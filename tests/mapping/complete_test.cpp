#include "mapping/complete_mapper.hpp"

#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
#include "mapping/global_mapper.hpp"
#include "mapping/validate.hpp"
#include "support/rng.hpp"

namespace gmm::mapping {
namespace {

design::DataStructure ds(const std::string& name, std::int64_t depth,
                         std::int64_t width) {
  design::DataStructure s;
  s.name = name;
  s.depth = depth;
  s.width = width;
  return s;
}

TEST(CompleteMapper, SolvesSmallDesign) {
  const arch::Board board = arch::single_fpga_board("XCV50", 2);
  design::Design design("d");
  design.add(ds("a", 1024, 4));
  design.add(ds("b", 256, 16));
  design.set_all_conflicting();
  const CostTable table(design, board);
  const Outcome r = map_complete(design, board, table);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(r.assignment.complete());
  EXPECT_TRUE(r.detailed.success);
  EXPECT_TRUE(validate_mapping(design, board, r.assignment, r.detailed)
                  .empty());
}

TEST(CompleteMapper, FlatModelIsMuchBiggerThanGlobal) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  design::Design design("d");
  for (int i = 0; i < 8; ++i) {
    design.add(ds("s" + std::to_string(i), 512, 8));
  }
  design.set_all_conflicting();
  const CostTable table(design, board);
  const Outcome global = map_global(design, board, table);
  const Outcome complete = map_complete(design, board, table);
  ASSERT_EQ(global.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(complete.status, lp::SolveStatus::kOptimal);
  // The paper's point: the flat formulation explodes with instances.
  EXPECT_GT(complete.model_size.variables, 4 * global.model_size.variables);
  EXPECT_GT(complete.model_size.rows, 4 * global.model_size.rows);
}

// The optimality-preservation claim: global/detailed reaches the same
// objective the complete formulation proves optimal.
class ParitySweep : public ::testing::TestWithParam<int> {};

TEST_P(ParitySweep, GlobalMatchesCompleteObjective) {
  support::Rng rng(3600 + GetParam());
  arch::Board board("b");
  arch::BankType onchip =
      arch::on_chip_bank_type(*arch::find_device("XCV100"));
  board.add_bank_type(onchip);
  board.add_bank_type(arch::offchip_sram(2, 8192, 16));

  design::Design design("d");
  const int n = static_cast<int>(rng.uniform_int(3, 8));
  for (int i = 0; i < n; ++i) {
    auto s = ds("s" + std::to_string(i), rng.uniform_int(64, 3000),
                rng.uniform_int(1, 16));
    s.reads = rng.uniform_int(10, 10000);
    s.writes = rng.uniform_int(10, 1000);
    design.add(s);
  }
  design.set_all_conflicting();
  const CostTable table(design, board);
  // Exact-equality comparison requires proving to zero gap (the default
  // matches CPLEX's 1e-4, which these instances are small enough to beat).
  GlobalOptions global_options;
  global_options.mip.rel_gap = 1e-9;
  CompleteOptions complete_options;
  complete_options.mip.rel_gap = 1e-9;
  const Outcome global = map_global(design, board, table, global_options);
  const Outcome complete =
      map_complete(design, board, table, complete_options);
  if (global.status == lp::SolveStatus::kInfeasible) {
    // The flat formulation must agree on infeasibility.
    EXPECT_EQ(complete.status, lp::SolveStatus::kInfeasible)
        << "seed " << GetParam();
    return;
  }
  ASSERT_EQ(global.status, lp::SolveStatus::kOptimal) << "seed " << GetParam();
  ASSERT_EQ(complete.status, lp::SolveStatus::kOptimal)
      << "seed " << GetParam();
  EXPECT_NEAR(global.assignment.objective, complete.assignment.objective,
              1e-6 * std::max(1.0, global.assignment.objective))
      << "seed " << GetParam();
  // The complete mapper's decoded placement must be legal.
  EXPECT_TRUE(validate_mapping(design, board, complete.assignment,
                               complete.detailed)
                  .empty())
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParitySweep, ::testing::Range(0, 15));

TEST(CompleteMapper, HeuristicOnOffSameOptimum) {
  support::Rng rng(111);
  const arch::Board board = arch::single_fpga_board("XCV150", 2);
  design::Design design("d");
  for (int i = 0; i < 5; ++i) {
    design.add(ds("s" + std::to_string(i), rng.uniform_int(100, 2000),
                  rng.uniform_int(1, 16)));
  }
  design.set_all_conflicting();
  const CostTable table(design, board);
  CompleteOptions with, without;
  with.use_packing_heuristic = true;
  without.use_packing_heuristic = false;
  with.mip.rel_gap = 1e-9;
  without.mip.rel_gap = 1e-9;
  const Outcome a = map_complete(design, board, table, with);
  const Outcome b = map_complete(design, board, table, without);
  ASSERT_EQ(a.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(b.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(a.assignment.objective, b.assignment.objective, 1e-6);
}

}  // namespace
}  // namespace gmm::mapping
