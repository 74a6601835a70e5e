// Stress tier (CTest label "stress"; the sanitizer CI lane runs it):
// multi-threaded branch & bound under basis-cache pressure.  Small caps
// force constant snapshot eviction while 4 workers race pushes, pops,
// and prune-while-queued discards; randomized cancellation and deadline
// injection (support::CancelToken) interrupts solves at arbitrary
// points of that churn.  Asserts, under ASan+UBSan in CI:
//
//   * every solve terminates with a definite status and a valid
//     stop_reason (no hangs, no leaked snapshots, no invalid statuses),
//   * the cache accounting stays consistent (loaded + evicted never
//     exceeds stored; a disabled cache stores nothing),
//   * the objective is identical across cache caps {off, 1, 3, 4096}
//     when the solve runs to completion — cap pressure may only ever
//     cost speed, never answers.
//
// Schedules are randomized but the SEEDS are fixed, so a failure
// reproduces.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "ilp/mip_solver.hpp"
#include "lp/model.hpp"
#include "support/cancellation.hpp"
#include "support/rng.hpp"

namespace gmm::ilp {
namespace {

using lp::SolveStatus;

/// Multi-dimensional knapsack with a weak LP bound (no cuts): a deep
/// branch & bound tree with real heap traffic — the shape that exercises
/// snapshot storage, loading, and eviction hardest.
lp::Model deep_tree_mip(int vars, int rows, std::uint64_t seed) {
  support::Rng rng(seed);
  lp::Model model;
  std::vector<lp::Index> x;
  for (int j = 0; j < vars; ++j) {
    x.push_back(
        model.add_binary(static_cast<double>(-rng.uniform_int(10, 100))));
  }
  for (int i = 0; i < rows; ++i) {
    lp::LinExpr weight;
    std::int64_t total = 0;
    for (const lp::Index j : x) {
      const std::int64_t w = rng.uniform_int(5, 40);
      weight.add(j, static_cast<double>(w));
      total += w;
    }
    model.add_constraint(weight, lp::Sense::kLessEqual,
                         static_cast<double>(total * 30 / 100));
  }
  return model;
}

MipOptions stress_options(int threads, std::size_t cap) {
  MipOptions options;
  options.num_threads = threads;
  options.max_stored_bases = cap;
  options.rel_gap = 0.0;
  options.abs_gap = 0.5;  // exact for the integer objectives used here
  return options;
}

void check_cache_invariants(const MipResult& result, std::size_t cap) {
  const lp::BasisCacheStats& basis = result.basis;
  EXPECT_GE(basis.stored, 0);
  EXPECT_GE(basis.loaded, 0);
  EXPECT_GE(basis.evicted, 0);
  EXPECT_GE(basis.cold_pops, 0);
  EXPECT_LE(basis.loaded + basis.evicted, basis.stored)
      << "more snapshots consumed than ever stored";
  if (cap == 0) {
    EXPECT_EQ(basis.stored, 0);
    EXPECT_EQ(basis.loaded, 0);
    EXPECT_EQ(basis.evicted, 0);
    EXPECT_EQ(basis.warm_pop_pivots, 0);
  }
}

TEST(BasisCacheStress, TinyCapsNeverChangeTheObjective) {
  // Uncancelled runs across cap settings, 4 racing workers: identical
  // objectives, consistent accounting, and real eviction churn at the
  // tiny caps.
  const lp::Model model = deep_tree_mip(64, 10, 20260729);
  const MipResult reference = solve_mip(model, stress_options(1, 4096));
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);

  for (const std::size_t cap : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{4096}}) {
    const MipResult result = solve_mip(model, stress_options(4, cap));
    ASSERT_EQ(result.status, SolveStatus::kOptimal) << "cap " << cap;
    EXPECT_EQ(result.stop_reason, SolveStatus::kOptimal) << "cap " << cap;
    EXPECT_EQ(result.objective, reference.objective) << "cap " << cap;
    check_cache_invariants(result, cap);
    if (cap == 1 || cap == 3) {
      // A deep tree under a near-zero cap must actually evict (the
      // accounting, not the luck of scheduling, guarantees this: far
      // more nodes are pushed than the cap can hold).
      EXPECT_GT(result.basis.evicted, 0) << "cap " << cap;
    }
  }
}

TEST(BasisCacheStress, RandomizedCancellationUnderCapPressure) {
  // Cancels fired after a random delay race pushes, pops, and evictions.
  // Every solve must terminate with a definite status, a valid
  // stop_reason, and consistent cache accounting — whatever instant the
  // token fired at.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    support::Rng rng(seed);
    const lp::Model model =
        deep_tree_mip(56 + static_cast<int>(rng.uniform_int(0, 16)), 8,
                      seed * 7919);
    const std::size_t cap = static_cast<std::size_t>(
        rng.uniform_int(0, 3));  // 0..3: off or severely squeezed
    MipOptions options = stress_options(4, cap);
    auto token = std::make_shared<support::CancelToken>();
    options.cancel_token = token;

    const auto delay =
        std::chrono::microseconds(rng.uniform_int(50, 30'000));
    std::thread canceller([token, delay] {
      std::this_thread::sleep_for(delay);
      token->cancel();
    });
    const MipResult result = solve_mip(model, options);
    canceller.join();

    EXPECT_TRUE(result.status == SolveStatus::kOptimal ||
                result.status == SolveStatus::kFeasible ||
                result.status == SolveStatus::kCancelled)
        << "seed " << seed << ": " << lp::to_string(result.status);
    EXPECT_TRUE(result.stop_reason == SolveStatus::kOptimal ||
                result.stop_reason == SolveStatus::kCancelled)
        << "seed " << seed << ": " << lp::to_string(result.stop_reason);
    check_cache_invariants(result, cap);
  }
}

TEST(BasisCacheStress, RandomizedDeadlinesUnderCapPressure) {
  // Deadline injection: some budgets expire before the root, some
  // mid-churn, some never fire.  stop_reason must say which.
  for (const std::uint64_t seed : {10ull, 11ull, 12ull, 13ull, 14ull}) {
    support::Rng rng(seed);
    const lp::Model model = deep_tree_mip(60, 8, seed * 104729);
    const std::size_t cap = static_cast<std::size_t>(rng.uniform_int(0, 4));
    MipOptions options = stress_options(4, cap);
    auto token = std::make_shared<support::CancelToken>();
    token->set_deadline_after_seconds(
        static_cast<double>(rng.uniform_int(0, 40)) / 1000.0);
    options.cancel_token = token;

    const MipResult result = solve_mip(model, options);
    EXPECT_TRUE(result.status == SolveStatus::kOptimal ||
                result.status == SolveStatus::kFeasible ||
                result.status == SolveStatus::kTimeLimit)
        << "seed " << seed << ": " << lp::to_string(result.status);
    EXPECT_TRUE(result.stop_reason == SolveStatus::kOptimal ||
                result.stop_reason == SolveStatus::kTimeLimit)
        << "seed " << seed << ": " << lp::to_string(result.stop_reason);
    check_cache_invariants(result, cap);
    if (result.stop_reason == SolveStatus::kTimeLimit &&
        result.has_incumbent()) {
      // A deadline-stopped incumbent still reports a sound bound.
      EXPECT_LE(result.best_bound, result.objective) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gmm::ilp
