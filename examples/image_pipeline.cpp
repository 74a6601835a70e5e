// Image-processing pipeline mapping — the workload class the paper's
// introduction motivates ("with signal and image processing applications,
// memory mapping becomes a crucial step").
//
// A 3x3 convolution + histogram stage over a 256x256 8-bit image on a
// hierarchical board (on-chip BlockRAM, direct SRAM, far bulk memory):
//   * three line buffers, heavily read every pixel,
//   * the 3x3 coefficient table, read 9x per pixel,
//   * input and output frame halves with disjoint lifetimes (ping/pong),
//   * a histogram updated per pixel.
// Shows lifetime-derived conflicts, the overlap-aware capacity relaxation,
// and validates the mapping in the cycle-approximate simulator.
#include <cstdio>

#include "arch/device_catalog.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "sim/footprint.hpp"
#include "sim/memory_sim.hpp"

int main() {
  using namespace gmm;

  const arch::Board board = arch::hierarchical_board("XCV1000");
  std::printf("board: %s\n", board.name().c_str());
  for (const arch::BankType& t : board.types()) {
    std::printf("  %-22s x%-3lld %lld ports, %lld bits, RL/WL %lld/%lld, "
                "%lld pins\n",
                t.name.c_str(), static_cast<long long>(t.instances),
                static_cast<long long>(t.ports),
                static_cast<long long>(t.capacity_bits()),
                static_cast<long long>(t.read_latency),
                static_cast<long long>(t.write_latency),
                static_cast<long long>(t.pins_traversed));
  }

  constexpr std::int64_t kWidth = 256, kHeight = 256;
  constexpr std::int64_t kPixels = kWidth * kHeight;

  design::Design design("convolve3x3");
  const auto add = [&design](const char* name, std::int64_t depth,
                             std::int64_t width, std::int64_t reads,
                             std::int64_t writes, std::int64_t t0,
                             std::int64_t t1) {
    design::DataStructure ds;
    ds.name = name;
    ds.depth = depth;
    ds.width = width;
    ds.reads = reads;
    ds.writes = writes;
    ds.lifetime = design::Lifetime{t0, t1};
    design.add(ds);
  };
  // Whole run spans schedule steps [0, 300).
  add("line0", kWidth, 8, 3 * kPixels, kPixels, 0, 200);
  add("line1", kWidth, 8, 3 * kPixels, kPixels, 0, 200);
  add("line2", kWidth, 8, 3 * kPixels, kPixels, 0, 200);
  add("kernel", 16, 16, 9 * kPixels, 16, 0, 200);
  add("frame_in", kPixels, 8, kPixels, kPixels, 0, 200);
  add("frame_out", kPixels, 8, kPixels, kPixels, 100, 300);
  // The histogram stage runs after convolution; its scratch can overlap
  // storage with the line buffers, whose lifetime has ended.
  add("histogram", 256, 16, 2 * kPixels, 2 * kPixels, 200, 300);
  design.derive_conflicts_from_lifetimes();
  std::printf("\n%zu structures, %zu conflict pairs (of %zu possible)\n",
              design.size(), design.num_conflicts(),
              design.size() * (design.size() - 1) / 2);

  const mapping::Outcome result = mapping::map_pipeline(design, board);
  if (result.status != lp::SolveStatus::kOptimal ||
      !result.detailed.success) {
    std::printf("mapping failed (%s)\n", lp::to_string(result.status));
    return 1;
  }
  const auto violations = mapping::validate_mapping(
      design, board, result.assignment, result.detailed);
  std::printf("mapping objective %.0f, legality violations: %zu\n\n",
              result.assignment.objective, violations.size());

  for (std::size_t d = 0; d < design.size(); ++d) {
    const arch::BankType& type =
        board.type(static_cast<std::size_t>(result.assignment.type_of[d]));
    std::printf("  %-10s -> %-22s (%lld fragment%s)\n",
                design.at(d).name.c_str(), type.name.c_str(),
                static_cast<long long>(result.detailed.fragment_count(d)),
                result.detailed.fragment_count(d) == 1 ? "" : "s");
  }

  // Replay a pixel-streaming trace.
  sim::TraceOptions trace_options;
  trace_options.pattern = sim::AddressPattern::kSequential;
  trace_options.max_accesses = 150'000;
  const std::vector<sim::Access> trace =
      sim::generate_trace(design, trace_options);
  const sim::SimReport report =
      sim::simulate(board, design, result.detailed, trace);
  std::printf(
      "\nsimulated %lld accesses: makespan %lld cycles, average service "
      "latency %.2f,\nport-contention stalls %lld cycles\n",
      static_cast<long long>(report.accesses),
      static_cast<long long>(report.total_cycles), report.average_latency(),
      static_cast<long long>(report.stall_cycles));
  for (std::size_t t = 0; t < board.num_types(); ++t) {
    if (report.per_type[t].accesses == 0) continue;
    std::printf("  %-22s %9lld accesses, %lld latency cycles\n",
                board.type(t).name.c_str(),
                static_cast<long long>(report.per_type[t].accesses),
                static_cast<long long>(report.per_type[t].latency_cycles));
  }

  // ---- profile-guided remapping -----------------------------------------
  // The paper (Section 3.2): "A footprint analysis of the memory accesses
  // could tremendously help in guiding the mapping process."  Extract the
  // footprints the simulator observed, remap, and re-simulate.
  const design::Design profiled =
      sim::with_trace_footprints(design, trace);
  const mapping::Outcome remapped =
      mapping::map_pipeline(profiled, board);
  if (remapped.status == lp::SolveStatus::kOptimal &&
      remapped.detailed.success) {
    const sim::SimReport report2 =
        sim::simulate(board, profiled, remapped.detailed, trace);
    std::printf(
        "\nprofile-guided remap: objective %.0f, simulated latency sum "
        "%lld -> %lld\n",
        remapped.assignment.objective,
        static_cast<long long>(report.latency_sum),
        static_cast<long long>(report2.latency_sum));
    for (std::size_t d = 0; d < design.size(); ++d) {
      if (remapped.assignment.type_of[d] != result.assignment.type_of[d]) {
        std::printf(
            "  %-10s moved %s -> %s\n", design.at(d).name.c_str(),
            board.type(static_cast<std::size_t>(result.assignment.type_of[d]))
                .name.c_str(),
            board
                .type(static_cast<std::size_t>(remapped.assignment.type_of[d]))
                .name.c_str());
      }
    }
  }
  return 0;
}
