#include "mapping/pipeline.hpp"

#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
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

TEST(Pipeline, EndToEndOnHierarchicalBoard) {
  const arch::Board board = arch::hierarchical_board("XCV300");
  design::Design design("d");
  design.add(ds("coeffs", 64, 16));
  design.add(ds("window", 512, 16));
  design.add(ds("frame", 65536, 8));
  design.set_all_conflicting();
  const Outcome r = map_pipeline(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  ASSERT_TRUE(r.detailed.success) << r.detailed.failure;
  EXPECT_EQ(r.retries, 0);
  EXPECT_TRUE(validate_mapping(design, board, r.assignment, r.detailed)
                  .empty());
  // The big frame cannot fit on-chip (XCV300: 16 x 4096 bits).
  EXPECT_NE(r.assignment.type_of[2], 0);
}

TEST(Pipeline, ReportsInfeasibleDesigns) {
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  design.add(ds("too_big", 1 << 20, 32));
  design.set_all_conflicting();
  const Outcome r = map_pipeline(design, board);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

// The headline property: on boards whose types have at most two ports
// (every real device in the catalog), the first global solution always
// detail-maps — zero retries, as the paper's design intends.
class FirstShotGuarantee : public ::testing::TestWithParam<int> {};

TEST_P(FirstShotGuarantee, DualPortBoardsNeverRetry) {
  support::Rng rng(8800 + GetParam());
  const char* devices[] = {"XCV50", "XCV300", "XCV1000", "EPF10K70",
                           "EP20K100E"};
  const arch::Board board = arch::hierarchical_board(
      devices[rng.index(std::size(devices))]);

  design::Design design("d");
  const int n = static_cast<int>(rng.uniform_int(4, 25));
  for (int i = 0; i < n; ++i) {
    auto s = ds("s" + std::to_string(i), rng.uniform_int(4, 20000),
                rng.uniform_int(1, 40));
    s.reads = rng.uniform_int(1, 50000);
    s.writes = rng.uniform_int(1, 5000);
    design.add(s);
  }
  design.set_all_conflicting();

  const Outcome r = map_pipeline(design, board);
  if (r.status == lp::SolveStatus::kInfeasible) return;  // legitimately
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_EQ(r.retries, 0) << "seed " << GetParam();
  ASSERT_TRUE(r.detailed.success) << r.detailed.failure;
  EXPECT_TRUE(validate_mapping(design, board, r.assignment, r.detailed)
                  .empty())
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, FirstShotGuarantee,
                         ::testing::Range(0, 30));

// With lifetime-derived conflicts, overlap-aware capacity + the sharing
// packer must still produce legal mappings.
class OverlapSweep : public ::testing::TestWithParam<int> {};

TEST_P(OverlapSweep, LifetimeOverlapMappingsAreLegal) {
  support::Rng rng(9900 + GetParam());
  const arch::Board board = arch::hierarchical_board("XCV300");
  design::Design design("d");
  const int n = static_cast<int>(rng.uniform_int(4, 15));
  for (int i = 0; i < n; ++i) {
    auto s = ds("s" + std::to_string(i), rng.uniform_int(16, 4000),
                rng.uniform_int(1, 32));
    const std::int64_t start = rng.uniform_int(0, 100);
    s.lifetime = design::Lifetime{start, start + rng.uniform_int(1, 50)};
    design.add(s);
  }
  design.derive_conflicts_from_lifetimes();

  PipelineOptions options;
  options.max_retries = 32;
  const Outcome r = map_pipeline(design, board, options);
  if (r.status == lp::SolveStatus::kInfeasible) return;
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal) << "seed " << GetParam();
  ASSERT_TRUE(r.detailed.success) << r.detailed.failure;
  EXPECT_TRUE(validate_mapping(design, board, r.assignment, r.detailed)
                  .empty())
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, OverlapSweep, ::testing::Range(0, 15));

TEST(Pipeline, EffortBreakdownPopulated) {
  const arch::Board board = arch::single_fpga_board("XCV300", 4);
  design::Design design("d");
  for (int i = 0; i < 10; ++i) design.add(ds("s" + std::to_string(i), 256, 8));
  design.set_all_conflicting();
  const Outcome r = map_pipeline(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(r.effort.preprocess_seconds, 0.0);
  EXPECT_GT(r.effort.total_seconds(), 0.0);
  EXPECT_GT(r.model_size.variables, 0);
  EXPECT_GE(r.effort.bnb_nodes, 1);
}

}  // namespace
}  // namespace gmm::mapping
