// Quickstart: map three data structures onto a Virtex board in ~40 lines.
//
//   build/examples/quickstart
//
// Walks the canonical flow: pick a board (device catalog), describe the
// design (data structures + conflicts), run the global/detailed pipeline,
// inspect the assignment and the concrete placements.
#include <cstdio>

#include "arch/device_catalog.hpp"
#include "mapping/pipeline.hpp"

int main() {
  using namespace gmm;

  // A single-FPGA reconfigurable board: XCV300 (16 dual-ported 4096-bit
  // BlockRAMs) plus four off-chip 32Kx32 SRAM banks.
  const arch::Board board = arch::single_fpga_board("XCV300", 4);

  // Three structures of a small filter kernel.  Reads/writes bias the
  // mapper: the hot coefficient table belongs on-chip.
  design::Design design("quickstart");
  design::DataStructure coeffs{.name = "coeffs", .depth = 64, .width = 16,
                               .reads = 100000, .writes = 64};
  design::DataStructure window{.name = "window", .depth = 512, .width = 16,
                               .reads = 50000, .writes = 50000};
  design::DataStructure frame{.name = "frame", .depth = 65536, .width = 8,
                              .reads = 65536, .writes = 65536};
  design.add(coeffs);
  design.add(window);
  design.add(frame);
  design.set_all_conflicting();  // all live simultaneously

  const mapping::Outcome result = mapping::map_pipeline(design, board);
  if (result.status != lp::SolveStatus::kOptimal) {
    std::printf("mapping failed: %s\n", lp::to_string(result.status));
    return 1;
  }

  std::printf("objective %.0f, solved in %.3fs (%lld B&B nodes)\n\n",
              result.assignment.objective, result.effort.total_seconds(),
              static_cast<long long>(result.effort.bnb_nodes));
  for (std::size_t d = 0; d < design.size(); ++d) {
    const arch::BankType& type =
        board.type(static_cast<std::size_t>(result.assignment.type_of[d]));
    std::printf("%-8s -> %-18s (%s, %lld fragment%s)\n",
                design.at(d).name.c_str(), type.name.c_str(),
                type.on_chip() ? "on-chip" : "off-chip",
                static_cast<long long>(result.detailed.fragment_count(d)),
                result.detailed.fragment_count(d) == 1 ? "" : "s");
  }

  std::printf("\nconcrete placements:\n");
  for (const mapping::PlacedFragment& f : result.detailed.fragments) {
    const arch::BankType& type = board.type(f.type);
    std::printf(
        "  %-8s %s[%lld] ports %lld..%lld config %-7s offset %6lld bits "
        "(%s)\n",
        design.at(f.ds).name.c_str(), type.name.c_str(),
        static_cast<long long>(f.instance),
        static_cast<long long>(f.first_port),
        static_cast<long long>(f.first_port + f.ports - 1),
        type.configs[f.config_index].to_string().c_str(),
        static_cast<long long>(f.offset_bits), mapping::to_string(f.kind));
  }
  return 0;
}
