// Incremental re-solve: a prior whose pins the design cannot live with
// falls back to a cold solve, and the fallback's total_effort charges the
// failed warm attempt as well as the cold solve.
#include "mapping/remap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/arch_io.hpp"
#include "design/design_io.hpp"

namespace gmm::mapping {
namespace {

TEST(Remap, InfeasiblePinsFallBackColdAndCountBothSolves) {
  // A, B and C have 3 single-port instances each; D fits only the wide
  // structure p.  Cold, p goes to D and f1..f3 take one of A, B, C each.
  // A prior that pins p onto C (all three of its ports) leaves A and B
  // for three structures of 2 ports each: the LP relaxation is feasible,
  // so the pinned attempt does real branch & bound work before it proves
  // infeasibility.
  const arch::BoardParseResult board = arch::parse_board_string(
      "board b\n"
      "banktype A instances 3 ports 1 rl 1 wl 1 pins 0\nconfig 1024 8\nend\n"
      "banktype B instances 3 ports 1 rl 1 wl 1 pins 0\nconfig 1024 8\nend\n"
      "banktype C instances 3 ports 1 rl 1 wl 1 pins 0\nconfig 1024 8\nend\n"
      "banktype D instances 2 ports 1 rl 2 wl 2 pins 2\nconfig 512 32\nend\n");
  ASSERT_TRUE(board.ok) << board.error;
  const design::DesignParseResult design = design::parse_design_string(
      "design d\n"
      "segment p depth 1024 width 24\n"
      "segment f1 depth 2048 width 8\n"
      "segment f2 depth 2048 width 8\n"
      "segment f3 depth 2048 width 8\n"
      "conflicts all\n");
  ASSERT_TRUE(design.ok) << design.error;
  const std::vector<int> prior = {2, 0, 1, 3};

  RemapOptions options;
  options.pipeline.global.mip.num_threads = 1;
  options.pinned_structures = {0};
  const RemapResult out = remap(design.design, board.board, prior, options);
  EXPECT_TRUE(out.fell_back_cold);
  EXPECT_FALSE(out.warm_used);
  ASSERT_TRUE(out.result.mapped());

  const Outcome cold =
      map_pipeline(design.design, board.board, options.pipeline);
  ASSERT_TRUE(cold.mapped());
  EXPECT_NEAR(out.result.assignment.objective, cold.assignment.objective,
              1e-9 * std::max(1.0, std::abs(cold.assignment.objective)));

  // The warm attempt, re-run with the same pinned options.
  PipelineOptions pinned = options.pipeline;
  pinned.global.warm_assignment = prior;
  pinned.global.pinned_structures = options.pinned_structures;
  const Outcome warm = map_pipeline(design.design, board.board, pinned);
  EXPECT_EQ(warm.status, lp::SolveStatus::kInfeasible);
  EXPECT_GT(warm.total_effort.bnb_nodes, 0);

  // At 1 thread the counters are deterministic: the total is exactly
  // the two solves, while `effort` stays the returned (cold) mapping's.
  const SolveEffort& total = out.result.total_effort;
  EXPECT_EQ(total.bnb_nodes,
            warm.total_effort.bnb_nodes + cold.total_effort.bnb_nodes);
  EXPECT_EQ(total.lp_iterations,
            warm.total_effort.lp_iterations + cold.total_effort.lp_iterations);
  EXPECT_EQ(total.lp_refactorizations,
            warm.total_effort.lp_refactorizations +
                cold.total_effort.lp_refactorizations);
  EXPECT_EQ(total.basis.stored,
            warm.total_effort.basis.stored + cold.total_effort.basis.stored);
  EXPECT_EQ(out.result.effort.bnb_nodes, cold.effort.bnb_nodes);
  EXPECT_EQ(out.result.effort.lp_iterations, cold.effort.lp_iterations);
}

}  // namespace
}  // namespace gmm::mapping
