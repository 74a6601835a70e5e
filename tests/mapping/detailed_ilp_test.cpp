#include "mapping/detailed_ilp.hpp"

#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
#include "mapping/detailed_mapper.hpp"
#include "mapping/pipeline.hpp"
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

TEST(DetailedIlp, ProducesLegalMapping) {
  const arch::Board board = arch::single_fpga_board("XCV300", 2);
  design::Design design("d");
  design.add(ds("a", 55, 17));
  design.add(ds("b", 256, 8));
  design.add(ds("c", 1024, 4));
  design.set_all_conflicting();
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0, 0, 0};
  const DetailedMapping mapping =
      map_detailed_ilp(design, board, table, assignment);
  ASSERT_TRUE(mapping.success) << mapping.failure;
  EXPECT_TRUE(validate_mapping(design, board, assignment, mapping).empty());
}

TEST(DetailedIlp, MinimizesInstancesTouched) {
  // Four quarter-bank structures: the ILP must co-locate them on a single
  // dual-ported instance pairwise -> exactly 2 instances, never 4.
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  for (int i = 0; i < 4; ++i) {
    design.add(ds("s" + std::to_string(i), 1024, 1));  // quarter of 4096x1
  }
  design.set_all_conflicting();
  const CostTable table(design, board);
  GlobalAssignment assignment;
  assignment.type_of = {0, 0, 0, 0};
  const DetailedMapping ilp =
      map_detailed_ilp(design, board, table, assignment);
  ASSERT_TRUE(ilp.success) << ilp.failure;
  // Each structure needs 1 port (1024 of 4096 rounds to a quarter, 1/4 of
  // 2 ports -> 1); two structures per dual-ported instance.
  EXPECT_EQ(ilp.instances_used(0), 2);
  EXPECT_TRUE(validate_mapping(design, board, assignment, ilp).empty());
}

TEST(DetailedIlp, NeverWorseThanConstructivePacker) {
  support::Rng rng(6400);
  const arch::Board board = arch::hierarchical_board("XCV1000");
  for (int trial = 0; trial < 8; ++trial) {
    design::Design design("d");
    const int n = static_cast<int>(rng.uniform_int(3, 10));
    for (int i = 0; i < n; ++i) {
      design.add(ds("s" + std::to_string(i), rng.uniform_int(64, 4096),
                    rng.uniform_int(1, 16)));
    }
    design.set_all_conflicting();
    const Outcome pipeline = map_pipeline(design, board);
    if (pipeline.status != lp::SolveStatus::kOptimal) continue;
    const CostTable table(design, board);
    DetailedOptions packer_options;
    packer_options.allow_overlap = false;  // same rules as ILP mode
    const DetailedMapping packer = map_detailed(
        design, board, table, pipeline.assignment, packer_options);
    const DetailedMapping ilp =
        map_detailed_ilp(design, board, table, pipeline.assignment);
    ASSERT_TRUE(packer.success);
    ASSERT_TRUE(ilp.success) << ilp.failure;
    EXPECT_TRUE(
        validate_mapping(design, board, pipeline.assignment, ilp).empty())
        << "trial " << trial;
    for (std::size_t t = 0; t < board.num_types(); ++t) {
      EXPECT_LE(ilp.instances_used(t), packer.instances_used(t))
          << "trial " << trial << " type " << t;
    }
  }
}

TEST(DetailedIlp, FallsBackAboveFragmentCap) {
  const arch::Board board = arch::single_fpga_board("XCV1000", 2);
  design::Design design("d");
  // Many fragments: a wide-and-deep structure decomposes into dozens of
  // pieces (7x2 full + 7 column + 2 row + corner = 24 fragments).
  design.add(ds("wide", 2000, 40));
  design.add(ds("more", 500, 24));
  design.set_all_conflicting();
  const CostTable table(design, board);
  ASSERT_TRUE(table.feasible(0, 0));
  ASSERT_TRUE(table.feasible(1, 0));
  GlobalAssignment assignment;
  assignment.type_of = {0, 0};
  DetailedIlpOptions options;
  options.max_fragments_for_ilp = 4;  // force the fallback
  const DetailedMapping mapping =
      map_detailed_ilp(design, board, table, assignment, options);
  ASSERT_TRUE(mapping.success) << mapping.failure;
  EXPECT_TRUE(validate_mapping(design, board, assignment, mapping).empty());
}

}  // namespace
}  // namespace gmm::mapping
