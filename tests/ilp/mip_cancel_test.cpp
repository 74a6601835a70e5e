// Cooperative cancellation / deadline plumbing of the branch & bound:
// MipOptions::cancel_token must stop the search with the right status and
// stop_reason, from any state (before the root, mid-search, serial and
// parallel), and a stopped solve must still report sound bounds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "ilp/mip_solver.hpp"
#include "mapping/complete_mapper.hpp"
#include "mapping/cost_model.hpp"
#include "support/cancellation.hpp"
#include "support/rng.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::ilp {
namespace {

using lp::Index;
using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::SolveStatus;

/// Small but not-instant 0/1 knapsack-ish model.
Model small_model(std::uint64_t seed = 11) {
  support::Rng rng(seed);
  Model m;
  std::vector<Index> vars;
  for (int j = 0; j < 18; ++j) {
    vars.push_back(m.add_binary(static_cast<double>(rng.uniform_int(-30, -1))));
  }
  for (int i = 0; i < 4; ++i) {
    LinExpr knap;
    std::int64_t total = 0;
    for (const Index j : vars) {
      if (rng.bernoulli(0.6)) {
        const std::int64_t w = rng.uniform_int(1, 20);
        knap.add(j, static_cast<double>(w));
        total += w;
      }
    }
    m.add_constraint(knap, Sense::kLessEqual,
                     static_cast<double>(std::max<std::int64_t>(1, total / 2)));
  }
  return m;
}

TEST(MipCancel, PreCancelledTokenStopsBeforeAnyNode) {
  auto token = std::make_shared<support::CancelToken>();
  token->cancel();
  MipOptions options;
  options.cancel_token = token;
  const MipResult r = solve_mip(small_model(), options);
  EXPECT_EQ(r.status, SolveStatus::kCancelled);
  EXPECT_EQ(r.stop_reason, SolveStatus::kCancelled);
  EXPECT_FALSE(r.has_incumbent());
  EXPECT_EQ(r.nodes, 0);
}

TEST(MipCancel, ExpiredDeadlineReportsTimeLimit) {
  auto token = std::make_shared<support::CancelToken>();
  token->set_deadline_after_seconds(0.0);
  MipOptions options;
  options.cancel_token = token;
  const MipResult r = solve_mip(small_model(), options);
  EXPECT_EQ(r.status, SolveStatus::kTimeLimit);
  EXPECT_EQ(r.stop_reason, SolveStatus::kTimeLimit);
}

TEST(MipCancel, CancelOutranksExpiredDeadline) {
  auto token = std::make_shared<support::CancelToken>();
  token->set_deadline_after_seconds(0.0);
  token->cancel();
  MipOptions options;
  options.cancel_token = token;
  EXPECT_EQ(solve_mip(small_model(), options).status,
            SolveStatus::kCancelled);
}

TEST(MipCancel, UntouchedTokenDoesNotPerturbTheSolve) {
  const Model m = small_model();
  MipOptions plain;
  plain.rel_gap = 0.0;
  MipOptions with_token = plain;
  with_token.cancel_token = std::make_shared<support::CancelToken>();
  const MipResult a = solve_mip(m, plain);
  const MipResult b = solve_mip(m, with_token);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(b.stop_reason, SolveStatus::kOptimal);
}

TEST(MipCancel, CancelDuringRootStrongBranchingStopsWithinOneCandidate) {
  // A packing MIP whose root LP is fractional in many columns, none with
  // a reliable pseudocost yet, so the root strong-branches candidate
  // after candidate.  Limits are polled between candidates: once the
  // cancel lands, at most the candidate in flight finishes its two probe
  // LPs.  (Left alone, the search runs for more than a minute.)
  support::Rng rng(7);
  Model m;
  std::vector<Index> vars;
  for (int j = 0; j < 200; ++j) {
    vars.push_back(m.add_variable(
        0, 10, static_cast<double>(rng.uniform_int(-10, -1)),
        lp::VarType::kInteger));
  }
  for (int i = 0; i < 100; ++i) {
    LinExpr row;
    double box_max = 0;
    for (const Index j : vars) {
      if (!rng.bernoulli(0.2)) continue;
      const double a = static_cast<double>(rng.uniform_int(1, 9));
      row.add(j, a);
      box_max += 10 * a;
    }
    m.add_constraint(row, Sense::kLessEqual, std::floor(box_max / 3));
  }

  auto token = std::make_shared<support::CancelToken>();
  auto progress = std::make_shared<std::atomic<std::int64_t>>(0);
  MipOptions options;
  options.cancel_token = token;
  options.progress = progress;
  std::atomic<bool> returned{false};
  std::int64_t at_cancel = 0;
  std::thread canceller([&] {
    // The counter is bumped once per node and once per probe LP, so 1 is
    // the root node and 2 its first strong-branch probe.
    while (progress->load() < 2) {
      if (returned.load()) return;
      std::this_thread::yield();
    }
    token->cancel();
    at_cancel = progress->load();
  });
  const MipResult r = solve_mip(m, options);
  returned.store(true);
  canceller.join();

  ASSERT_GE(at_cancel, 2) << "the root ran no strong-branch probe";
  EXPECT_EQ(r.stop_reason, SolveStatus::kCancelled);
  EXPECT_LE(progress->load() - at_cancel, 2);
}

class MipCancelMidSolve : public ::testing::TestWithParam<int> {};

TEST_P(MipCancelMidSolve, CancelWhileSolvingSurfacesCancelled) {
  // A complete-formulation ILP that runs for seconds: build it through
  // the complete mapper so the model matches the serving workload, and
  // cancel from another thread shortly after the solve starts.
  const auto board = workload::board_from_totals(
      {.banks = 180, .ports = 265, .configs = 375});
  ASSERT_TRUE(board.has_value());
  workload::DesignGenOptions gen;
  gen.num_segments = 64;
  gen.seed = 5;
  const design::Design design = workload::generate_design(*board, gen);
  const mapping::CostTable table(design, *board);

  auto token = std::make_shared<support::CancelToken>();
  mapping::CompleteOptions options;
  options.mip.cancel_token = token;
  options.mip.num_threads = GetParam();

  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token->cancel();
  });
  const mapping::Outcome r =
      mapping::map_complete(design, *board, table, options);
  canceller.join();

  // Whatever progress the solve made, it stopped because of the cancel:
  // either no incumbent yet (kCancelled) or a best-effort incumbent
  // (kFeasible) whose stop_reason records the cancellation.
  if (r.status == SolveStatus::kFeasible) {
    EXPECT_EQ(r.mip.stop_reason, SolveStatus::kCancelled);
    EXPECT_LE(r.mip.best_bound, r.mip.objective + 1e-9);
  } else {
    ASSERT_EQ(r.status, SolveStatus::kCancelled);
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, MipCancelMidSolve,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace gmm::ilp
