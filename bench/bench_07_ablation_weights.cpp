// Ablation: the objective's weight coefficients (paper Section 4.1.3).
// Sweeps the three cost-component weights and shows how the optimal
// assignment shifts between on-chip and off-chip tiers — latency weight
// pulls hot structures on-chip, pin weights push big far structures
// off... quantified rather than asserted.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "mapping/pipeline.hpp"
#include "report/text_table.hpp"
#include "support/string_util.hpp"

int main() {
  using namespace gmm;
  std::printf(
      "== Ablation: objective weight sweep (alpha_1 latency, alpha_2 pin "
      "delay, alpha_3 pin I/O) ==\n\n");

  const workload::Table3Instance instance =
      workload::build_instance(workload::table3_points()[1],
                               bench::env_seed());

  struct WeightCase {
    const char* name;
    mapping::CostWeights weights;
  };
  const WeightCase cases[] = {
      {"latency only", {1.0, 0.0, 0.0}},
      {"pin delay only", {0.0, 1.0, 0.0}},
      {"pin I/O only", {0.0, 0.0, 1.0}},
      {"equal (paper default)", {1.0, 1.0, 1.0}},
      {"latency-heavy", {10.0, 1.0, 1.0}},
      {"pin-heavy", {1.0, 10.0, 10.0}},
  };

  report::TextTable table({"weights", "status", "objective",
                           "on-chip segs", "off-chip segs", "latency part",
                           "pin-delay part", "pin-I/O part"});
  table.set_alignment(0, report::Align::kLeft);
  bench::BenchJson json("ablation_weights");

  for (const WeightCase& c : cases) {
    mapping::PipelineOptions options;
    options.global.weights = c.weights;
    options.global.mip.time_limit_seconds = bench::env_time_limit();
    const mapping::Outcome r =
        mapping::map_pipeline(instance.design, instance.board, options);
    if (r.status != lp::SolveStatus::kOptimal) {
      table.add_row({c.name, lp::to_string(r.status), "-", "-", "-", "-",
                     "-", "-"});
      continue;
    }
    const mapping::CostTable table_for_weights(instance.design,
                                               instance.board, c.weights);
    int onchip = 0, offchip = 0;
    double latency = 0, pin_delay = 0, pin_io = 0;
    for (std::size_t d = 0; d < instance.design.size(); ++d) {
      const int t = r.assignment.type_of[d];
      (instance.board.type(t).on_chip() ? onchip : offchip) += 1;
      const mapping::CostBreakdown& b = table_for_weights.breakdown(d, t);
      latency += b.latency;
      pin_delay += b.pin_delay;
      pin_io += b.pin_io;
    }
    table.add_row({c.name, "optimal",
                   support::format_fixed(r.assignment.objective, 0),
                   std::to_string(onchip), std::to_string(offchip),
                   support::format_fixed(latency, 0),
                   support::format_fixed(pin_delay, 0),
                   support::format_fixed(pin_io, 0)});
    json.write("weight_case",
               {bench::jstr("name", c.name),
                bench::jnum("objective", r.assignment.objective),
                bench::jint("onchip_segments", onchip),
                bench::jint("offchip_segments", offchip),
                bench::jnum("latency_part", latency),
                bench::jnum("pin_delay_part", pin_delay),
                bench::jnum("pin_io_part", pin_io)});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: with pin weights zeroed nothing distinguishes tiers but "
      "raw\nlatency; pin-heavy weights trade latency for fewer traversed "
      "pins.\n");
  return 0;
}
