// Parallel branch & bound: 1-thread and 8-thread solves of the same model
// must agree.  With rel_gap/abs_gap at 0 both searches prove the exact
// optimum, so the objectives must match to numerical tolerance even
// though the multi-threaded node ORDER is nondeterministic; the returned
// assignments must each be feasible (they may differ when the optimum is
// not unique).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ilp/mip_solver.hpp"
#include "mapping/cost_model.hpp"
#include "mapping/global_mapper.hpp"
#include "support/rng.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::ilp {
namespace {

using lp::Index;
using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::SolveStatus;

MipOptions exact_options(int threads) {
  MipOptions options;
  options.num_threads = threads;
  options.rel_gap = 0.0;
  options.abs_gap = 1e-9;
  return options;
}

/// A random multi-constraint 0/1 program: a handful of knapsack rows plus
/// a few generalized-upper-bound rows, the same shape the mapping ILPs
/// take (selection + capacity).
Model random_mip(std::uint64_t seed) {
  support::Rng rng(seed);
  const int n = static_cast<int>(rng.uniform_int(8, 24));
  Model m;
  std::vector<Index> vars;
  for (int j = 0; j < n; ++j) {
    vars.push_back(m.add_binary(static_cast<double>(rng.uniform_int(-40, -1))));
  }
  const int rows = static_cast<int>(rng.uniform_int(2, 5));
  for (int i = 0; i < rows; ++i) {
    LinExpr knap;
    std::int64_t total = 0;
    for (const Index j : vars) {
      if (rng.bernoulli(0.7)) {
        const std::int64_t w = rng.uniform_int(1, 25);
        knap.add(j, static_cast<double>(w));
        total += w;
      }
    }
    if (!knap.empty()) {
      m.add_constraint(knap, Sense::kLessEqual,
                       static_cast<double>(std::max<std::int64_t>(1, total / 2)));
    }
  }
  // A couple of at-most-one groups (the uniqueness rows of the mappers).
  for (int g = 0; g + 3 < n; g += 4) {
    LinExpr group;
    for (int k = 0; k < 4; ++k) group.add(vars[g + k], 1.0);
    m.add_constraint(group, Sense::kLessEqual, 2.0);
  }
  return m;
}

void expect_feasible_incumbent(const Model& m, const MipResult& r) {
  ASSERT_TRUE(r.has_incumbent());
  EXPECT_TRUE(m.is_feasible(r.x, 1e-5));
}

class ParallelEqualsSerial : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEqualsSerial, IdenticalOptimalObjectives) {
  const Model m = random_mip(7700 + GetParam());
  const MipResult serial = solve_mip(m, exact_options(1));
  const MipResult parallel = solve_mip(m, exact_options(8));
  ASSERT_EQ(serial.status, SolveStatus::kOptimal) << "seed " << GetParam();
  ASSERT_EQ(parallel.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(serial.objective, parallel.objective, 1e-6)
      << "seed " << GetParam();
  expect_feasible_incumbent(m, serial);
  expect_feasible_incumbent(m, parallel);
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParallelEqualsSerial,
                         ::testing::Range(0, 25));

TEST(MipParallel, SerialPathIsDeterministic) {
  // Two 1-thread solves must agree bit for bit: objective, incumbent
  // vector, node count and LP iteration count.
  const Model m = random_mip(991);
  const MipResult a = solve_mip(m, exact_options(1));
  const MipResult b = solve_mip(m, exact_options(1));
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t j = 0; j < a.x.size(); ++j) EXPECT_EQ(a.x[j], b.x[j]);
}

TEST(MipParallel, HardwareConcurrencyRequest) {
  // num_threads = 0 resolves to hardware concurrency and still solves.
  const Model m = random_mip(1234);
  MipOptions options = exact_options(0);
  const MipResult r = solve_mip(m, options);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  expect_feasible_incumbent(m, r);
}

TEST(MipParallel, InfeasibleModelAgrees) {
  Model m;
  const Index a = m.add_binary(-1.0);
  const Index b = m.add_binary(-1.0);
  LinExpr sum;
  sum.add(a, 1.0);
  sum.add(b, 1.0);
  m.add_constraint(sum, Sense::kGreaterEqual, 3.0);  // impossible for 0/1
  EXPECT_EQ(solve_mip(m, exact_options(1)).status, SolveStatus::kInfeasible);
  EXPECT_EQ(solve_mip(m, exact_options(8)).status, SolveStatus::kInfeasible);
}

TEST(MipParallel, NodeLimitStillReportsValidBound) {
  const Model m = random_mip(4242);
  MipOptions options = exact_options(4);
  options.node_limit = 1;
  const MipResult r = solve_mip(m, options);
  // Whatever the outcome, the proven bound may not exceed any incumbent.
  if (r.has_incumbent()) {
    EXPECT_LE(r.best_bound, r.objective + 1e-9);
    EXPECT_TRUE(m.is_feasible(r.x, 1e-5));
  }
}

TEST(MipParallel, GlobalMapperAgreesAcrossThreadCounts) {
  // The paper workload end-to-end: a Table-3-shaped board/design pair
  // solved through the global ILP with 1 and 8 workers.
  const auto board =
      workload::board_from_totals({.banks = 24, .ports = 36, .configs = 80});
  ASSERT_TRUE(board.has_value());
  workload::DesignGenOptions gen;
  gen.num_segments = 20;
  gen.seed = 77;
  const design::Design design = workload::generate_design(*board, gen);
  const mapping::CostTable table(design, *board);

  mapping::GlobalOptions serial_options;
  serial_options.mip.rel_gap = 0.0;
  mapping::GlobalOptions parallel_options = serial_options;
  parallel_options.mip.num_threads = 8;

  const mapping::Outcome serial =
      mapping::map_global(design, *board, table, serial_options);
  const mapping::Outcome parallel =
      mapping::map_global(design, *board, table, parallel_options);
  ASSERT_EQ(serial.status, SolveStatus::kOptimal);
  ASSERT_EQ(parallel.status, SolveStatus::kOptimal);
  EXPECT_NEAR(serial.assignment.objective, parallel.assignment.objective,
              1e-6 * std::max(1.0, std::abs(serial.assignment.objective)));
}

}  // namespace
}  // namespace gmm::ilp
