// Device exploration: map one design across every FPGA in the Table-1
// catalog and compare cost, on-chip fit, and solve effort — the
// "which part do I buy?" question a designer would ask this library.
#include <cstdio>
#include <iostream>

#include "arch/device_catalog.hpp"
#include "mapping/pipeline.hpp"
#include "report/text_table.hpp"
#include "support/string_util.hpp"

int main() {
  using namespace gmm;

  // A mid-size DSP design: FFT twiddle factors, two ping-pong buffers,
  // a windowing table and an output accumulator.
  design::Design design("fft1k");
  const auto add = [&design](const char* name, std::int64_t depth,
                             std::int64_t width, std::int64_t reads,
                             std::int64_t writes) {
    design::DataStructure ds;
    ds.name = name;
    ds.depth = depth;
    ds.width = width;
    ds.reads = reads;
    ds.writes = writes;
    design.add(ds);
  };
  add("twiddle", 512, 32, 500000, 512);
  add("ping", 1024, 32, 300000, 300000);
  add("pong", 1024, 32, 300000, 300000);
  add("window", 1024, 16, 100000, 1024);
  add("accum", 2048, 24, 200000, 200000);
  design.set_all_conflicting();

  std::printf("design '%s': %zu structures, %lld total bits\n\n",
              design.name().c_str(), design.size(),
              static_cast<long long>(design.total_bits()));

  report::TextTable table({"Device", "On-chip RAMs", "Status", "Objective",
                           "On-chip segs", "Solve (ms)"});
  table.set_alignment(0, report::Align::kLeft);

  for (const arch::DeviceInfo& info : arch::device_catalog()) {
    const arch::Board board = arch::single_fpga_board(info.device, 4);
    const mapping::Outcome r = mapping::map_pipeline(design, board);
    std::string objective = "-";
    std::string onchip = "-";
    if (r.status == lp::SolveStatus::kOptimal) {
      objective = support::format_fixed(r.assignment.objective, 0);
      int count = 0;
      for (std::size_t d = 0; d < design.size(); ++d) {
        if (board.type(static_cast<std::size_t>(r.assignment.type_of[d]))
                .on_chip()) {
          ++count;
        }
      }
      onchip = std::to_string(count) + "/" + std::to_string(design.size());
    }
    table.add_row({info.device, std::to_string(info.ram_banks),
                   lp::to_string(r.status), objective, onchip,
                   support::format_fixed(r.effort.total_seconds() * 1e3, 1)});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: bigger devices pull more structures on-chip and the\n"
      "objective falls monotonically until everything fits on-chip.\n");
  return 0;
}
