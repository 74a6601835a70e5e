#include "mapping/global_mapper.hpp"

#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
#include "mapping/greedy_mapper.hpp"
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

TEST(GlobalMapper, PrefersOnChipWhenEverythingFits) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  design::Design design("d");
  design.add(ds("a", 1024, 4));
  design.add(ds("b", 256, 16));
  design.set_all_conflicting();
  const CostTable table(design, board);
  const Outcome r = map_global(design, board, table);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  // On-chip is strictly cheaper and fits both structures.
  EXPECT_EQ(r.assignment.type_of, (std::vector<int>{0, 0}));
  EXPECT_DOUBLE_EQ(r.assignment.objective,
                   table.cost(0, 0) + table.cost(1, 0));
}

TEST(GlobalMapper, SpillsToOffChipUnderCapacityPressure) {
  // XCV50: 8 BlockRAMs = 32 Kbit on-chip.  Two 32 Kbit structures cannot
  // both live on-chip; the cheaper-to-access one should stay.
  const arch::Board board = arch::single_fpga_board("XCV50", 4);
  design::Design design("d");
  auto hot = ds("hot", 2048, 16);  // 32 Kbit, heavily read
  hot.reads = 100000;
  auto cold = ds("cold", 2048, 16);  // 32 Kbit, rarely touched
  cold.reads = 1;
  cold.writes = 1;
  design.add(hot);
  design.add(cold);
  design.set_all_conflicting();
  const CostTable table(design, board);
  const Outcome r = map_global(design, board, table);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(r.assignment.type_of[0], 0);  // hot on-chip
  EXPECT_EQ(r.assignment.type_of[1], 1);  // cold spilled to SRAM
}

TEST(GlobalMapper, InfeasibleWhenNothingFits) {
  arch::Board board("tiny");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  design.add(ds("huge", 1 << 20, 64));  // far beyond 32 Kbit
  design.set_all_conflicting();
  const CostTable table(design, board);
  const Outcome r = map_global(design, board, table);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST(GlobalMapper, PortConstraintForcesSpill) {
  // One single-ported SRAM type with 2 instances (2 ports total) plus a
  // bulk tier; three port-hungry structures cannot all use the SRAM.
  arch::Board board("b");
  board.add_bank_type(arch::offchip_sram(2, 32768, 32));
  board.add_bank_type(arch::offchip_bulk(4, 1 << 20, 32));
  design::Design design("d");
  for (int i = 0; i < 3; ++i) {
    design.add(ds("s" + std::to_string(i), 1024, 32));
  }
  design.set_all_conflicting();
  const CostTable table(design, board);
  const Outcome r = map_global(design, board, table);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  int on_sram = 0;
  for (const int t : r.assignment.type_of) on_sram += t == 0 ? 1 : 0;
  EXPECT_EQ(on_sram, 2);  // exactly the two available ports
}

TEST(GlobalMapper, OverlapAwareCapacityAdmitsMore) {
  // Two full-chip structures with disjoint lifetimes fit on-chip only
  // when capacity is overlap-aware.
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  auto a = ds("a", 4096, 8);  // 32 Kbit = whole chip... too big; halve:
  a.depth = 2048;             // 16 Kbit
  a.lifetime = design::Lifetime{0, 10};
  auto b = ds("b", 2048, 8);
  b.lifetime = design::Lifetime{20, 30};
  auto c = ds("c", 2048, 8);
  c.lifetime = design::Lifetime{40, 50};
  design.add(a);
  design.add(b);
  design.add(c);
  design.derive_conflicts_from_lifetimes();  // pairwise disjoint

  const CostTable table(design, board);
  GlobalOptions overlap_on;
  overlap_on.overlap_aware_capacity = true;
  const Outcome with = map_global(design, board, table, overlap_on);
  // 3 x 16 Kbit > 32 Kbit, but they never coexist: feasible with overlap.
  ASSERT_EQ(with.status, lp::SolveStatus::kOptimal);

  GlobalOptions overlap_off;
  overlap_off.overlap_aware_capacity = false;
  const Outcome without = map_global(design, board, table, overlap_off);
  EXPECT_EQ(without.status, lp::SolveStatus::kInfeasible);
}

TEST(GlobalMapper, NoGoodCutExcludesAssignment) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 4);
  design::Design design("d");
  design.add(ds("a", 1024, 4));
  design.set_all_conflicting();
  const CostTable table(design, board);
  const Outcome first = map_global(design, board, table);
  ASSERT_EQ(first.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(first.assignment.type_of[0], 0);

  GlobalOptions options;
  options.no_good_cuts.push_back({{0, 0}});  // forbid a -> type 0
  const Outcome second = map_global(design, board, table, options);
  ASSERT_EQ(second.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(second.assignment.type_of[0], 1);
  EXPECT_GT(second.assignment.objective, first.assignment.objective);
}

TEST(GlobalMapper, NeverWorseThanGreedy) {
  // The ILP optimum must be <= any greedy assignment's objective.
  support::Rng rng(909);
  const arch::Board board = arch::hierarchical_board("XCV300");
  for (int trial = 0; trial < 5; ++trial) {
    design::Design design("d");
    const int n = static_cast<int>(rng.uniform_int(5, 15));
    for (int i = 0; i < n; ++i) {
      auto s = ds("s" + std::to_string(i), rng.uniform_int(16, 4096),
                  rng.uniform_int(1, 32));
      s.reads = rng.uniform_int(1, 100000);
      s.writes = rng.uniform_int(1, 1000);
      design.add(s);
    }
    design.set_all_conflicting();
    const CostTable table(design, board);
    const GreedyResult greedy = map_greedy(design, board, table);
    GlobalOptions options;
    options.mip.rel_gap = 1e-9;  // the comparison needs a proven optimum
    const Outcome global = map_global(design, board, table, options);
    if (global.status != lp::SolveStatus::kOptimal) continue;
    if (greedy.success) {
      EXPECT_LE(global.assignment.objective,
                greedy.assignment.objective + 1e-6)
          << "trial " << trial;
    }
  }
}

TEST(GlobalMapper, ModelSizeReported) {
  const arch::Board board = arch::hierarchical_board("XCV300");
  design::Design design("d");
  for (int i = 0; i < 6; ++i) design.add(ds("s" + std::to_string(i), 512, 8));
  design.set_all_conflicting();
  const CostTable table(design, board);
  const Outcome r = map_global(design, board, table);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(r.model_size.variables, 0);
  EXPECT_LE(r.model_size.variables,
            static_cast<std::int64_t>(design.size() * board.num_types()));
  // Uniqueness + ports + capacity rows.
  EXPECT_GE(r.model_size.rows, static_cast<std::int64_t>(design.size()));
}

}  // namespace
}  // namespace gmm::mapping
