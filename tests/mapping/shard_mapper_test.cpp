// Multi-device sharded mapping: single-device degeneration (bitwise
// identical to map_pipeline), zero-bank devices, the devices x threads
// determinism grid, stitch-cost accounting, the repair loop, and
// legality of the stitched flat-index mapping.
#include "mapping/shard_mapper.hpp"

#include <gtest/gtest.h>

#include <string>

#include "arch/device_catalog.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "support/rng.hpp"
#include "workload/workload_gen.hpp"

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

design::Design fft_like_design() {
  design::Design design("fft");
  design.add(ds("twiddle", 1024, 16));
  design.add(ds("ping", 1024, 32));
  design.add(ds("pong", 1024, 32));
  design.add(ds("spill", 4096, 16));
  design.set_all_conflicting();
  return design;
}

/// Field-for-field equality with the plain pipeline result: the 1-device
/// degeneration contract is IDENTICAL output, not merely equal cost.
void expect_matches_pipeline(const Outcome& sharded,
                             const Outcome& pipeline) {
  EXPECT_EQ(sharded.status, pipeline.status);
  EXPECT_EQ(sharded.assignment.type_of, pipeline.assignment.type_of);
  EXPECT_EQ(sharded.assignment.objective, pipeline.assignment.objective);
  EXPECT_EQ(sharded.retries, pipeline.retries);
  EXPECT_EQ(sharded.model_size.variables, pipeline.model_size.variables);
  EXPECT_EQ(sharded.model_size.rows, pipeline.model_size.rows);
  EXPECT_EQ(sharded.model_size.nonzeros, pipeline.model_size.nonzeros);
  EXPECT_EQ(sharded.detailed.success, pipeline.detailed.success);
  ASSERT_EQ(sharded.detailed.fragments.size(),
            pipeline.detailed.fragments.size());
  for (std::size_t i = 0; i < sharded.detailed.fragments.size(); ++i) {
    const PlacedFragment& a = sharded.detailed.fragments[i];
    const PlacedFragment& b = pipeline.detailed.fragments[i];
    EXPECT_EQ(a.ds, b.ds) << i;
    EXPECT_EQ(a.type, b.type) << i;
    EXPECT_EQ(a.instance, b.instance) << i;
    EXPECT_EQ(a.config_index, b.config_index) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.ports, b.ports) << i;
    EXPECT_EQ(a.first_port, b.first_port) << i;
    EXPECT_EQ(a.offset_bits, b.offset_bits) << i;
    EXPECT_EQ(a.block_bits, b.block_bits) << i;
    EXPECT_EQ(a.words_covered, b.words_covered) << i;
    EXPECT_EQ(a.bits_covered, b.bits_covered) << i;
  }
}

TEST(ShardMapper, SingleDeviceBoardDegeneratesToPipeline) {
  const arch::Board board = arch::single_fpga_board("XCV300", 4);
  const design::Design design = fft_like_design();
  const Outcome sharded = map_sharded(design, board);
  const Outcome pipeline = map_pipeline(design, board);
  ASSERT_EQ(sharded.status, lp::SolveStatus::kOptimal);
  expect_matches_pipeline(sharded, pipeline);
  EXPECT_EQ(sharded.shard.shards, 1);
  EXPECT_EQ(sharded.shard.stitch_cost, 0.0);
  EXPECT_EQ(sharded.device_of, (std::vector<int>{0, 0, 0, 0}));
}

TEST(ShardMapper, ExplicitSingleDeviceBoardAlsoDegenerates) {
  const arch::Board base = arch::single_fpga_board("XCV300", 4);
  arch::Board board("b");
  board.add_device({.name = "only", .inter_device_pins = 2});
  for (const arch::BankType& type : base.types()) board.add_bank_type(type);
  const design::Design design = fft_like_design();
  const Outcome sharded = map_sharded(design, board);
  const Outcome pipeline = map_pipeline(design, board);
  ASSERT_EQ(sharded.status, lp::SolveStatus::kOptimal);
  expect_matches_pipeline(sharded, pipeline);
}

TEST(ShardMapper, ZeroBankDeviceIsSkippedNotCrashed) {
  // One populated device plus one declared-but-empty device: the empty
  // one is skipped, and the result is the single-device pipeline's.
  const arch::Board base = arch::single_fpga_board("XCV300", 4);
  arch::Board board("b");
  board.add_device({.name = "dead"});
  board.add_device({.name = "live", .inter_device_pins = 2});
  for (const arch::BankType& type : base.types()) board.add_bank_type(type);
  const design::Design design = fft_like_design();
  const Outcome sharded = map_sharded(design, board);
  ASSERT_EQ(sharded.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(sharded.shard.skipped_devices, 1);
  EXPECT_EQ(sharded.shard.shards, 1);
  // Every structure lands on the live device (index 1).
  EXPECT_EQ(sharded.device_of, (std::vector<int>{1, 1, 1, 1}));
  expect_matches_pipeline(sharded, map_pipeline(design, board));

  // All-dead boards report infeasible instead of crashing.
  arch::Board dead("dead");
  dead.add_device({.name = "a"});
  dead.add_device({.name = "b"});
  const Outcome hopeless = map_sharded(design, dead);
  EXPECT_EQ(hopeless.status, lp::SolveStatus::kInfeasible);
}

TEST(ShardMapper, ZeroBankDeviceAmongUsableMultiDevice) {
  // Two populated devices + one empty one: sharding proceeds over the
  // usable pair and nothing is ever placed on the empty device.
  const arch::Board base = arch::single_fpga_board("XCV300", 4);
  arch::Board board("b");
  board.add_device({.name = "fpga0", .inter_device_pins = 2});
  for (const arch::BankType& type : base.types()) board.add_bank_type(type);
  board.add_device({.name = "hole"});
  board.add_device({.name = "fpga2", .inter_device_pins = 2});
  for (const arch::BankType& type : base.types()) board.add_bank_type(type);

  const design::Design design = fft_like_design();
  const Outcome r = map_sharded(design, board);
  ASSERT_TRUE(r.status == lp::SolveStatus::kOptimal ||
              r.status == lp::SolveStatus::kFeasible);
  EXPECT_EQ(r.shard.skipped_devices, 1);
  for (const int dev : r.device_of) EXPECT_NE(dev, 1);
  EXPECT_TRUE(
      validate_mapping(design, board, r.assignment, r.detailed).empty());
}

/// Devices {1, 2, 4} x fan-out/solver threads {1, 4}: the sharded
/// objective must be EXACTLY equal across thread counts for a fixed
/// device count (gap 0 makes the parallel B&B return the exact optimum,
/// and every candidate solve is deterministic per item regardless of
/// pool interleaving).
TEST(ShardMapper, DeterminismGridAcrossDevicesAndThreads) {
  const arch::Board base = arch::single_fpga_board("XCV1000", 16);
  workload::DesignGenOptions gen;
  gen.num_segments = 24;
  gen.seed = 2001;
  gen.target_port_utilization = 0.35;
  gen.target_bit_utilization = 0.25;
  const design::Design design = workload::generate_design(base, gen);

  for (const int devices : {1, 2, 4}) {
    const arch::Board board =
        devices == 1 ? base : arch::split_across_devices(base, devices);
    double reference = 0.0;
    std::vector<int> reference_types;
    bool first = true;
    for (const int threads : {1, 4}) {
      ShardOptions options;
      options.pipeline.global.mip.rel_gap = 0.0;
      options.pipeline.global.mip.abs_gap = 0.0;
      options.pipeline.global.mip.num_threads = threads;
      options.thread_budget = threads * threads;
      const Outcome r = map_sharded(design, board, options);
      ASSERT_EQ(r.status, lp::SolveStatus::kOptimal)
          << devices << " devices, " << threads << " threads";
      EXPECT_TRUE(
          validate_mapping(design, board, r.assignment, r.detailed).empty())
          << devices << " devices, " << threads << " threads";
      if (first) {
        reference = r.assignment.objective;
        reference_types = r.assignment.type_of;
        first = false;
      } else {
        EXPECT_EQ(r.assignment.objective, reference)
            << devices << " devices, " << threads << " threads";
        EXPECT_EQ(r.assignment.type_of, reference_types)
            << devices << " devices, " << threads << " threads";
      }
    }
  }
}

TEST(ShardMapper, StitchCostMatchesCutAndPins) {
  // Recompute the stitch transfer term from the final device assignment:
  // every conflict pair split across devices pays its traffic times both
  // endpoints' inter-device pins.
  const arch::Board board =
      arch::split_across_devices(arch::single_fpga_board("XCV1000", 16), 2,
                                 /*inter_device_pins=*/3);
  workload::DesignGenOptions gen;
  gen.num_segments = 24;
  gen.seed = 2001;
  gen.target_port_utilization = 0.35;
  gen.target_bit_utilization = 0.25;
  const design::Design design = workload::generate_design(board, gen);
  const Outcome r = map_sharded(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  ASSERT_GT(r.shard.shards, 1);

  double expected = 0.0;
  std::int64_t cut = 0;
  for (const auto& [a, b] : design.conflict_pairs()) {
    if (r.device_of[a] == r.device_of[b]) continue;
    ++cut;
    const double traffic =
        static_cast<double>(design::edge_traffic(design, a, b));
    expected +=
        traffic *
        static_cast<double>(
            board.device(static_cast<std::size_t>(r.device_of[a]))
                .inter_device_pins +
            board.device(static_cast<std::size_t>(r.device_of[b]))
                .inter_device_pins);
  }
  EXPECT_EQ(r.shard.cut_edges, cut);
  EXPECT_DOUBLE_EQ(r.shard.stitch_cost, expected);
  // The stitched objective includes the transfer term exactly once.
  EXPECT_GE(r.assignment.objective, r.shard.stitch_cost);
}

TEST(ShardMapper, RepairMigratesOffUnplaceablePart) {
  // dev0 cannot host the small-but-wide structure (its narrow SRAM has
  // too few instances for a width split), and both parts' only feasible
  // device is dev1 — the stitch assignment is then infeasible and the
  // repair loop must merge the parts onto dev1.
  arch::Board board("b");
  board.add_device({.name = "narrow", .inter_device_pins = 2});
  arch::BankType narrow;
  narrow.name = "narrow_sram";
  narrow.instances = 2;
  narrow.ports = 1;
  narrow.read_latency = 2;
  narrow.write_latency = 2;
  narrow.pins_traversed = 2;
  narrow.configs.push_back({1024, 8});
  board.add_bank_type(narrow);
  board.add_device({.name = "wide", .inter_device_pins = 2});
  arch::BankType wide;
  wide.name = "wide_sram";
  wide.instances = 4;
  wide.ports = 1;
  wide.read_latency = 2;
  wide.write_latency = 2;
  wide.pins_traversed = 2;
  wide.configs.push_back({32768, 32});
  board.add_bank_type(wide);

  design::Design design("d");
  design.add(ds("big", 65536, 8));   // too many bits for the narrow device
  design.add(ds("wide16", 16, 32));  // too wide for the narrow device

  const Outcome r = map_sharded(design, board);
  ASSERT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(r.device_of, (std::vector<int>{1, 1}));
  EXPECT_EQ(r.shard.shards, 1);
  EXPECT_GE(r.shard.migrations, 1);
  EXPECT_GE(r.shard.repair_rounds, 1);
  EXPECT_TRUE(
      validate_mapping(design, board, r.assignment, r.detailed).empty());
}

TEST(ShardMapper, TrulyUnmappableDesignReportsInfeasible) {
  // A structure too big for every device in total bits: the repair loop
  // must conclude infeasible (quickly — singleton parts stop migration).
  const arch::Board board =
      arch::split_across_devices(arch::single_fpga_board("XCV300", 4), 2);
  design::Design design("d");
  design.add(ds("vast", 1 << 22, 32));
  design.add(ds("tiny", 64, 8));
  design.set_all_conflicting();
  const Outcome r = map_sharded(design, board);
  EXPECT_EQ(r.status, lp::SolveStatus::kInfeasible);
}

TEST(ShardMapper, CancelledBeforeStartReturnsCancelled) {
  const arch::Board board =
      arch::split_across_devices(arch::single_fpga_board("XCV300", 4), 2);
  const design::Design design = fft_like_design();
  ShardOptions options;
  auto token = std::make_shared<support::CancelToken>();
  token->cancel();
  options.pipeline.global.mip.cancel_token = token;
  const Outcome r = map_sharded(design, board, options);
  EXPECT_EQ(r.status, lp::SolveStatus::kCancelled);
}

}  // namespace
}  // namespace gmm::mapping
