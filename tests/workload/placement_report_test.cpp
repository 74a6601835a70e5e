#include "report/placement_report.hpp"

#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
#include "mapping/pipeline.hpp"

namespace gmm::report {
namespace {

TEST(PlacementReport, RendersInstancesAndFragments) {
  const arch::Board board = arch::single_fpga_board("XCV300", 2);
  design::Design design("d");
  design::DataStructure a;
  a.name = "coeffs";
  a.depth = 64;
  a.width = 16;
  design.add(a);
  design::DataStructure b;
  b.name = "frame";
  b.depth = 65536;
  b.width = 8;
  design.add(b);
  design.set_all_conflicting();
  const mapping::Outcome r = mapping::map_pipeline(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);

  const std::string text =
      placement_report_to_string(design, board, r.detailed);
  EXPECT_NE(text.find("coeffs"), std::string::npos);
  EXPECT_NE(text.find("frame"), std::string::npos);
  EXPECT_NE(text.find("XCV300.BlockRAM"), std::string::npos);
  EXPECT_NE(text.find("config"), std::string::npos);
  EXPECT_NE(text.find("ports"), std::string::npos);
}

TEST(PlacementReport, FailedMappingReported) {
  const arch::Board board = arch::single_fpga_board("XCV50", 1);
  design::Design design("d");
  mapping::DetailedMapping failed;
  failed.success = false;
  failed.failure = "synthetic failure";
  const std::string text =
      placement_report_to_string(design, board, failed);
  EXPECT_NE(text.find("FAILED"), std::string::npos);
  EXPECT_NE(text.find("synthetic failure"), std::string::npos);
}

TEST(PlacementReport, SharedBlocksListedOnSameRange) {
  arch::Board board("b");
  board.add_bank_type(arch::on_chip_bank_type(*arch::find_device("XCV50")));
  design::Design design("d");
  for (int i = 0; i < 2; ++i) {
    design::DataStructure s;
    s.name = "phase" + std::to_string(i);
    s.depth = 4096;
    s.width = 1;
    s.lifetime = design::Lifetime{i * 100, i * 100 + 50};
    design.add(s);
  }
  design.derive_conflicts_from_lifetimes();  // disjoint -> can share
  const mapping::Outcome r = mapping::map_pipeline(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  const std::string text =
      placement_report_to_string(design, board, r.detailed);
  EXPECT_NE(text.find("phase0"), std::string::npos);
  EXPECT_NE(text.find("phase1"), std::string::npos);
  // Shared storage: single instance line for the one instance used.
  EXPECT_NE(text.find("[0]"), std::string::npos);
  EXPECT_EQ(text.find("[1]"), std::string::npos);
}

}  // namespace
}  // namespace gmm::report
