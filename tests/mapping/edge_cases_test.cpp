// Edge cases across the mapping stack: empty designs, single-structure
// boards, one-instance types, and preprocessing over every catalog device.
#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "support/arithmetic.hpp"
#include "support/rng.hpp"

namespace gmm::mapping {
namespace {

TEST(EdgeCases, EmptyDesignMapsTrivially) {
  const arch::Board board = arch::single_fpga_board("XCV50", 1);
  design::Design design("empty");
  const Outcome r = map_pipeline(design, board);
  EXPECT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(r.detailed.success);
  EXPECT_TRUE(r.detailed.fragments.empty());
}

TEST(EdgeCases, SingleBitStructure) {
  const arch::Board board = arch::single_fpga_board("XCV50", 1);
  design::Design design("d");
  design::DataStructure one;
  one.name = "bit";
  one.depth = 1;
  one.width = 1;
  design.add(one);
  design.set_all_conflicting();
  const Outcome r = map_pipeline(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(r.detailed.fragments.size(), 1u);
  EXPECT_TRUE(
      validate_mapping(design, board, r.assignment, r.detailed).empty());
}

TEST(EdgeCases, StructureExactlyFillsBoard) {
  // One structure consuming the whole on-chip space of an XCV50
  // (8 x 4096 bits = 8 full instances in 4096x1... as 4096 deep x 8 wide).
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  design::DataStructure full;
  full.name = "full";
  full.depth = 4096;
  full.width = 8;
  design.add(full);
  design.set_all_conflicting();
  const Outcome r = map_pipeline(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  ASSERT_TRUE(r.detailed.success);
  EXPECT_EQ(r.detailed.instances_used(0), 8);
  EXPECT_TRUE(
      validate_mapping(design, board, r.assignment, r.detailed).empty());
}

TEST(EdgeCases, OneBitOverTheBoardIsInfeasible) {
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  design::DataStructure too_big;
  too_big.name = "too_big";
  too_big.depth = 4096;
  too_big.width = 9;  // 36864 > 32768 bits
  design.add(too_big);
  design.set_all_conflicting();
  const Outcome r = map_pipeline(design, board);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST(EdgeCases, SingleInstanceType) {
  arch::Board board("b");
  board.add_bank_type(arch::offchip_sram(1, 32768, 32));
  design::Design design("d");
  for (int i = 0; i < 3; ++i) {
    design::DataStructure s;
    s.name = "s" + std::to_string(i);
    s.depth = 256;
    s.width = 32;
    design.add(s);
  }
  design.set_all_conflicting();
  // A single-ported single instance can host only one structure (ports).
  const Outcome r = map_pipeline(design, board);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST(EdgeCases, PreprocessInvariantsOnEveryCatalogDevice) {
  support::Rng rng(31);
  for (const arch::DeviceInfo& info : arch::device_catalog()) {
    const arch::BankType bank = arch::on_chip_bank_type(info);
    for (int iter = 0; iter < 25; ++iter) {
      design::DataStructure ds;
      ds.name = "s";
      ds.depth = rng.uniform_int(1, 3000);
      ds.width = rng.uniform_int(1, 40);
      const PlacementPlan plan = plan_placement(ds, bank);
      EXPECT_EQ(plan.cp, plan.fp + plan.wp + plan.dp + plan.wdp);
      std::int64_t covered = 0, ports = 0;
      for (const FragmentGroup& g : plan.groups) {
        covered += g.count * g.words_covered * g.bits_covered;
        ports += g.count * g.ports_each;
        EXPECT_TRUE(support::is_pow2(g.block_bits)) << info.device;
        EXPECT_LE(g.block_bits, bank.capacity_bits()) << info.device;
      }
      EXPECT_EQ(covered, ds.depth * ds.width) << info.device;
      EXPECT_EQ(ports, plan.cp) << info.device;
      // The reserved-bits identity: CW * CD equals the padded block area.
      EXPECT_EQ(plan.reserved_bits(), plan.cw * plan.cd) << info.device;
    }
  }
}

TEST(EdgeCases, WidthOneStructuresOnEveryTier) {
  const arch::Board board = arch::hierarchical_board("XCV300");
  design::Design design("d");
  for (int i = 0; i < 6; ++i) {
    design::DataStructure s;
    s.name = "bitstream" + std::to_string(i);
    s.depth = 1 << (6 + i);  // 64 .. 2048
    s.width = 1;
    design.add(s);
  }
  design.set_all_conflicting();
  const Outcome r = map_pipeline(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_TRUE(
      validate_mapping(design, board, r.assignment, r.detailed).empty());
}

}  // namespace
}  // namespace gmm::mapping
