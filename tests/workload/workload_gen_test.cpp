#include "workload/workload_gen.hpp"

#include <gtest/gtest.h>

#include "mapping/pipeline.hpp"

namespace gmm::workload {
namespace {

TEST(BoardFromTotals, HitsRequestedTotalsExactly) {
  const BoardTotals cases[] = {
      {13, 25, 50},   {23, 45, 100},  {45, 77, 150},
      {65, 105, 150}, {180, 265, 375}};
  for (const BoardTotals& totals : cases) {
    const auto board = board_from_totals(totals);
    ASSERT_TRUE(board.has_value())
        << totals.banks << "/" << totals.ports << "/" << totals.configs;
    EXPECT_EQ(board->total_banks(), totals.banks);
    EXPECT_EQ(board->total_ports(), totals.ports);
    EXPECT_EQ(board->total_configs(), totals.configs);
  }
}

TEST(BoardFromTotals, RejectsImpossibleTotals) {
  // More banks than ports is unrealizable (every bank has >= 1 port).
  EXPECT_FALSE(board_from_totals({10, 5, 0}).has_value());
  // Configs not a multiple of 5 cannot come from 5-config ports.
  EXPECT_FALSE(board_from_totals({10, 15, 7}).has_value());
}

TEST(BoardFromTotals, TypesAreValid) {
  const auto board = board_from_totals({45, 77, 150});
  ASSERT_TRUE(board.has_value());
  for (const arch::BankType& t : board->types()) {
    EXPECT_EQ(t.validate(), "") << t.name;
  }
  // The template mixes on-chip and off-chip tiers.
  bool has_onchip = false, has_offchip = false;
  for (const arch::BankType& t : board->types()) {
    (t.on_chip() ? has_onchip : has_offchip) = true;
  }
  EXPECT_TRUE(has_onchip);
  EXPECT_TRUE(has_offchip);
}

TEST(GenerateDesign, ProducesRequestedSegmentCount) {
  const auto board = board_from_totals({23, 45, 100});
  ASSERT_TRUE(board.has_value());
  DesignGenOptions options;
  options.num_segments = 32;
  options.seed = 7;
  const design::Design design = generate_design(*board, options);
  EXPECT_EQ(design.size(), 32u);
  // All-conflicting by default (Table-3 setting).
  EXPECT_EQ(design.num_conflicts(), 32u * 31u / 2u);
}

TEST(GenerateDesign, DeterministicForSeed) {
  const auto board = board_from_totals({23, 45, 100});
  DesignGenOptions options;
  options.num_segments = 16;
  options.seed = 42;
  const design::Design a = generate_design(*board, options);
  const design::Design b = generate_design(*board, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).depth, b.at(i).depth);
    EXPECT_EQ(a.at(i).width, b.at(i).width);
    EXPECT_EQ(a.at(i).reads, b.at(i).reads);
  }
}

TEST(GenerateDesign, DifferentSeedsDiffer) {
  const auto board = board_from_totals({23, 45, 100});
  DesignGenOptions a_options, b_options;
  a_options.num_segments = b_options.num_segments = 16;
  a_options.seed = 1;
  b_options.seed = 2;
  const design::Design a = generate_design(*board, a_options);
  const design::Design b = generate_design(*board, b_options);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.at(i).depth == b.at(i).depth && a.at(i).width == b.at(i).width) {
      ++same;
    }
  }
  EXPECT_LT(same, 8);
}

TEST(GenerateDesign, GeneratedDesignsAreMappable) {
  // The utilization targets must leave the pipeline a feasible problem.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto board = board_from_totals({13, 25, 50});
    DesignGenOptions options;
    options.num_segments = 22;
    options.seed = seed;
    const design::Design design = generate_design(*board, options);
    const mapping::Outcome r = mapping::map_pipeline(design, *board);
    EXPECT_EQ(r.status, lp::SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_TRUE(r.detailed.success) << r.detailed.failure;
  }
}

TEST(GenerateDesign, LifetimeModeDerivesConflicts) {
  const auto board = board_from_totals({23, 45, 100});
  DesignGenOptions options;
  options.num_segments = 20;
  options.all_conflicting = false;
  const design::Design design = generate_design(*board, options);
  // Random lifetimes virtually never produce an all-conflicting clique.
  EXPECT_LT(design.num_conflicts(), 20u * 19u / 2u);
  for (const design::DataStructure& ds : design.structures()) {
    EXPECT_TRUE(ds.lifetime.has_value());
  }
}

}  // namespace
}  // namespace gmm::workload
