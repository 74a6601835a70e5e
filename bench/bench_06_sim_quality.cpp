// Extension bench: does the paper's ILP objective predict simulated
// memory performance?  For each instance: map with the global/detailed
// pipeline and with the greedy baseline, replay the same access trace
// through the cycle-approximate simulator, and compare objective ordering
// with simulated latency/makespan ordering.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "mapping/greedy_mapper.hpp"
#include "mapping/pipeline.hpp"
#include "report/text_table.hpp"
#include "sim/memory_sim.hpp"
#include "support/string_util.hpp"

int main() {
  using namespace gmm;
  std::printf(
      "== Simulator validation: ILP objective vs simulated latency ==\n\n");

  report::TextTable table({"point", "seed", "mapper", "objective",
                           "sim latency sum", "sim makespan",
                           "avg latency", "stalls"});
  table.set_alignment(2, report::Align::kLeft);

  bench::BenchJson json("sim_quality");
  int agree = 0, comparisons = 0;
  for (int point_index : {0, 1, 3}) {
    const workload::Table3Point& point =
        workload::table3_points()[point_index];
    for (std::uint64_t seed : {5ull, 6ull}) {
      const workload::Table3Instance instance =
          workload::build_instance(point, seed);
      const mapping::CostTable cost_table(instance.design, instance.board);

      const auto skip = [&](const char* why) {
        table.add_row({std::to_string(point.index), std::to_string(seed),
                       why, "-", "-", "-", "-", "-"});
      };
      const mapping::Outcome pipeline =
          mapping::map_pipeline(instance.design, instance.board);
      if (pipeline.status != lp::SolveStatus::kOptimal ||
          !pipeline.detailed.success) {
        skip("(pipeline did not solve)");
        continue;
      }
      const mapping::GreedyResult greedy =
          mapping::map_greedy(instance.design, instance.board, cost_table);
      if (!greedy.success) {
        skip("(greedy found no assignment)");
        continue;
      }
      const mapping::DetailedMapping greedy_detail = mapping::map_detailed(
          instance.design, instance.board, cost_table, greedy.assignment);
      if (!greedy_detail.success) {
        skip("(greedy assignment unpackable)");
        continue;
      }

      sim::TraceOptions trace_options;
      trace_options.seed = seed;
      const std::vector<sim::Access> trace =
          sim::generate_trace(instance.design, trace_options);

      const sim::SimReport ilp_sim = sim::simulate(
          instance.board, instance.design, pipeline.detailed, trace);
      const sim::SimReport greedy_sim = sim::simulate(
          instance.board, instance.design, greedy_detail, trace);

      const auto add = [&](const char* name, double objective,
                           const sim::SimReport& report) {
        table.add_row({std::to_string(point.index), std::to_string(seed),
                       name, support::format_fixed(objective, 0),
                       std::to_string(report.latency_sum),
                       std::to_string(report.total_cycles),
                       support::format_fixed(report.average_latency(), 2),
                       std::to_string(report.stall_cycles)});
        json.write("mapper",
                   {bench::jint("point", point.index),
                    bench::jint("seed", static_cast<std::int64_t>(seed)),
                    bench::jstr("mapper", name),
                    bench::jnum("objective", objective),
                    bench::jint("latency_sum", report.latency_sum),
                    bench::jint("makespan", report.total_cycles),
                    bench::jint("stalls", report.stall_cycles)});
      };
      add("global/detailed", pipeline.assignment.objective, ilp_sim);
      add("greedy", greedy.assignment.objective, greedy_sim);

      ++comparisons;
      const bool objective_order =
          pipeline.assignment.objective <= greedy.assignment.objective;
      const bool sim_order = ilp_sim.latency_sum <= greedy_sim.latency_sum;
      if (objective_order == sim_order) ++agree;
    }
  }
  table.print(std::cout);
  std::printf(
      "\nObjective ordering agreed with simulated latency ordering on %d "
      "of %d\ninstance pairs.\n",
      agree, comparisons);
  json.write("summary", {bench::jint("comparisons", comparisons),
                         bench::jint("agreements", agree)});
  return 0;
}
