// Multi-device sharding sweep: one synthetic design mapped onto 1-, 2-
// and 4-device splits of the same board (total banks/ports/bits
// preserved by arch::split_across_devices), reporting wall clock, the
// stitched objective, the inter-device stitch cost and the repair-loop
// effort per device count.  JSON mirror: BENCH_sharding.json.
//
// Environment knobs (on top of bench_common's):
//   GMM_BENCH_SHARD_DEVICES   comma-separated device counts (default 1,2,4)
//   GMM_BENCH_SHARD_SEGMENTS  segments in the generated design (default 32)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/board.hpp"
#include "arch/device_catalog.hpp"
#include "bench_common.hpp"
#include "lp/types.hpp"
#include "mapping/shard_mapper.hpp"
#include "support/string_util.hpp"
#include "support/timer.hpp"
#include "workload/workload_gen.hpp"

namespace {

using namespace gmm;

std::vector<int> env_device_sweep() {
  const char* raw = std::getenv("GMM_BENCH_SHARD_DEVICES");
  std::vector<int> counts;
  for (const std::string& token :
       support::split(raw != nullptr ? raw : "1,2,4", ',')) {
    std::int64_t value = 0;
    if (support::parse_int(support::trim(token), value) && value >= 1 &&
        value <= 64) {
      counts.push_back(static_cast<int>(value));
    }
  }
  if (counts.empty()) counts = {1, 2, 4};
  return counts;
}

std::int64_t env_segments() {
  const char* raw = std::getenv("GMM_BENCH_SHARD_SEGMENTS");
  std::int64_t value = 0;
  if (raw != nullptr && support::parse_int(raw, value) && value >= 2 &&
      value <= 4096) {
    return value;
  }
  return 32;
}

}  // namespace

int main() {
  bench::BenchJson json("sharding");

  // An XCV1000 with sixteen attached SRAMs: enough bank instances that a
  // four-way split still leaves every device four SRAMs and a quarter of
  // the BlockRAMs.  Utilization targets deliberately leave slack — a
  // design that saturates the whole board's off-chip ports cannot be
  // split at all (splitting only ever removes co-location options).
  const arch::Board base = arch::single_fpga_board("XCV1000", 16);
  workload::DesignGenOptions gen;
  gen.num_segments = env_segments();
  gen.seed = bench::env_seed();
  gen.target_port_utilization = 0.35;
  gen.target_bit_utilization = 0.25;
  const design::Design design = workload::generate_design(base, gen);

  std::printf("sharding sweep: design '%s' (%zu segments, %lld bits) on "
              "splits of '%s' (%lld banks, %lld bits)\n\n",
              design.name().c_str(), design.size(),
              static_cast<long long>(design.total_bits()),
              base.name().c_str(),
              static_cast<long long>(base.total_banks()),
              static_cast<long long>(base.total_bits()));
  std::printf("%8s %10s %12s %12s %7s %10s %7s %10s  %s\n", "devices",
              "seconds", "objective", "stitch", "shards", "cut_edges",
              "repair", "solves", "status");

  int exit_code = 0;
  for (const int devices : env_device_sweep()) {
    const arch::Board board =
        devices == 1 ? base : arch::split_across_devices(base, devices);
    support::WallTimer timer;
    const mapping::Outcome r = mapping::map_sharded(design, board);
    const double seconds = timer.seconds();
    const bool ok = r.status == lp::SolveStatus::kOptimal ||
                    r.status == lp::SolveStatus::kFeasible;
    if (!ok) exit_code = 1;
    std::printf("%8d %10.3f %12.0f %12.0f %7d %10lld %7d %10lld  %s\n",
                devices, seconds, r.assignment.objective, r.shard.stitch_cost,
                r.shard.shards, static_cast<long long>(r.shard.cut_edges),
                r.shard.repair_rounds,
                static_cast<long long>(r.shard.candidate_solves),
                lp::to_string(r.status));
    json.write("device_sweep",
               {bench::jint("devices", devices),
                bench::jnum("seconds", seconds),
                bench::jnum("objective", r.assignment.objective),
                bench::jnum("stitch_cost", r.shard.stitch_cost),
                bench::jint("shards", r.shard.shards),
                bench::jint("cut_edges", r.shard.cut_edges),
                bench::jint("repair_rounds", r.shard.repair_rounds),
                bench::jint("migrations", r.shard.migrations),
                bench::jint("candidate_solves", r.shard.candidate_solves),
                bench::jnum("stitch_seconds", r.shard.stitch_seconds),
                bench::jint("bnb_nodes", r.effort.bnb_nodes),
                bench::jstr("status", lp::to_string(r.status))});
  }
  std::printf("\nJSON mirror: %s\n", json.path().c_str());
  return exit_code;
}
