#include "sim/memory_sim.hpp"

#include <gtest/gtest.h>

#include "arch/device_catalog.hpp"
#include "mapping/pipeline.hpp"

namespace gmm::sim {
namespace {

struct Mapped {
  arch::Board board;
  design::Design design;
  mapping::Outcome pipeline;
};

Mapped map_simple(bool offchip) {
  Mapped m{arch::Board("b"), design::Design("d"), {}};
  m.board.add_bank_type(
      arch::on_chip_bank_type(*arch::find_device("XCV300")));
  m.board.add_bank_type(arch::offchip_sram(4, 32768, 32));
  design::DataStructure s;
  s.name = "s";
  s.depth = 256;
  s.width = 16;
  s.reads = 512;
  s.writes = 256;
  m.design.add(s);
  m.design.set_all_conflicting();
  if (offchip) {
    // Force the structure off-chip by forbidding the on-chip type.
    mapping::PipelineOptions options;
    options.global.no_good_cuts.push_back({{0, 0}});
    m.pipeline = mapping::map_pipeline(m.design, m.board, options);
  } else {
    m.pipeline = mapping::map_pipeline(m.design, m.board);
  }
  return m;
}

TEST(MemorySim, AccountsEveryAccess) {
  const Mapped m = map_simple(false);
  ASSERT_TRUE(m.pipeline.detailed.success);
  const std::vector<Access> trace = generate_trace(m.design);
  const SimReport report =
      simulate(m.board, m.design, m.pipeline.detailed, trace);
  EXPECT_EQ(report.accesses, static_cast<std::int64_t>(trace.size()));
  EXPECT_GT(report.total_cycles, 0);
  EXPECT_GT(report.latency_sum, 0);
  std::int64_t per_type = 0;
  for (const TypeStats& t : report.per_type) per_type += t.accesses;
  EXPECT_EQ(per_type, report.accesses);
}

TEST(MemorySim, OnChipLatencyMatchesModel) {
  const Mapped m = map_simple(false);
  ASSERT_TRUE(m.pipeline.detailed.success);
  ASSERT_EQ(m.pipeline.assignment.type_of[0], 0);  // on-chip
  const std::vector<Access> trace = generate_trace(m.design);
  const SimReport report =
      simulate(m.board, m.design, m.pipeline.detailed, trace);
  // On-chip: RL = WL = 1, no pin penalty -> every access takes 1 cycle.
  EXPECT_DOUBLE_EQ(report.average_latency(), 1.0);
}

TEST(MemorySim, OffChipMappingIsSlower) {
  const Mapped onchip = map_simple(false);
  const Mapped offchip = map_simple(true);
  ASSERT_TRUE(onchip.pipeline.detailed.success);
  ASSERT_TRUE(offchip.pipeline.detailed.success);
  ASSERT_NE(offchip.pipeline.assignment.type_of[0], 0);
  const std::vector<Access> trace = generate_trace(onchip.design);
  const SimReport fast =
      simulate(onchip.board, onchip.design, onchip.pipeline.detailed, trace);
  const SimReport slow = simulate(offchip.board, offchip.design,
                                  offchip.pipeline.detailed, trace);
  EXPECT_GT(slow.latency_sum, fast.latency_sum);
  EXPECT_GT(slow.total_cycles, fast.total_cycles);
  // Off-chip SRAM: latency 2 + pin penalty ceil(2/2) = 3 per access.
  EXPECT_DOUBLE_EQ(slow.average_latency(), 3.0);
}

TEST(MemorySim, PortContentionCreatesStalls) {
  // Single-ported SRAM, wide issue: concurrent accesses must serialize.
  arch::Board board("b");
  board.add_bank_type(arch::offchip_sram(1, 32768, 32));
  design::Design design("d");
  design::DataStructure s;
  s.name = "s";
  s.depth = 1024;
  s.width = 32;
  s.reads = 2048;
  s.writes = 512;
  design.add(s);
  design.set_all_conflicting();
  const mapping::Outcome pipeline = mapping::map_pipeline(design, board);
  ASSERT_TRUE(pipeline.detailed.success);
  const std::vector<Access> trace = generate_trace(design);
  SimOptions wide;
  wide.issue_width = 8;
  const SimReport report =
      simulate(board, design, pipeline.detailed, trace, wide);
  EXPECT_GT(report.stall_cycles, 0);
  // Makespan is bounded below by serialized service on the single port.
  EXPECT_GE(report.total_cycles, report.latency_sum);
}

TEST(MemorySim, DualPortedBankServesTwoStreams) {
  // Two structures on one dual-ported BlockRAM: both ports work in
  // parallel, so the makespan is about half the single-port case.
  arch::Board board("b");
  arch::BankType t = arch::on_chip_bank_type(*arch::find_device("XCV50"));
  board.add_bank_type(t);
  design::Design design("d");
  for (int i = 0; i < 2; ++i) {
    design::DataStructure s;
    s.name = "s" + std::to_string(i);
    s.depth = 2048;
    s.width = 1;
    s.reads = 4096;
    s.writes = 1024;
    design.add(s);
  }
  design.set_all_conflicting();
  const mapping::Outcome pipeline = mapping::map_pipeline(design, board);
  ASSERT_TRUE(pipeline.detailed.success);
  const std::vector<Access> trace = generate_trace(design);
  SimOptions wide;
  wide.issue_width = 4;
  const SimReport report =
      simulate(board, design, pipeline.detailed, trace, wide);
  // With 2 ports and issue width 4, total cycles are roughly half the
  // fully serialized bound (each access takes 1 cycle on-chip).
  EXPECT_LT(report.total_cycles, report.latency_sum);
}

TEST(MemorySim, MultiBankWordStripesAcrossColumns) {
  // A 17-bit-wide structure on the Figure-2 style bank uses multiple
  // column fragments per word; the simulation must still account one
  // access per trace entry.
  arch::Board board("b");
  arch::BankType t;
  t.name = "fig2";
  t.instances = 16;
  t.ports = 3;
  t.configs = {{128, 1}, {64, 2}, {32, 4}, {16, 8}};
  board.add_bank_type(t);
  design::Design design("d");
  design::DataStructure s;
  s.name = "wide";
  s.depth = 55;
  s.width = 17;
  s.reads = 110;
  s.writes = 55;
  design.add(s);
  design.set_all_conflicting();
  const mapping::Outcome pipeline = mapping::map_pipeline(design, board);
  ASSERT_TRUE(pipeline.detailed.success) << pipeline.detailed.failure;
  const std::vector<Access> trace = generate_trace(design);
  const SimReport report =
      simulate(board, design, pipeline.detailed, trace);
  EXPECT_EQ(report.accesses, static_cast<std::int64_t>(trace.size()));
  EXPECT_GT(report.total_cycles, 0);
}

}  // namespace
}  // namespace gmm::sim
