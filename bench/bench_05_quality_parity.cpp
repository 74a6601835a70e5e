// Extension bench: the paper's optimality-preservation claim, measured.
// For a sweep of random designs (several seeds per size), compares the
// objective reached by (a) the global/detailed pipeline, (b) the complete
// flat formulation, and (c) the greedy baseline.  (a) == (b) wherever both
// prove optimality is the parity claim; (c) quantifies what the ILP buys.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "mapping/complete_mapper.hpp"
#include "mapping/greedy_mapper.hpp"
#include "mapping/pipeline.hpp"
#include "report/text_table.hpp"
#include "support/string_util.hpp"

int main() {
  using namespace gmm;
  std::printf(
      "== Quality parity: global/detailed vs complete vs greedy ==\n\n");

  report::TextTable table({"point", "seed", "global obj", "complete obj",
                           "parity", "greedy obj", "greedy excess"});
  bench::BenchJson json("quality_parity");
  int parity_checked = 0, parity_held = 0;

  for (int point_index : {0, 1, 2}) {  // the three smallest Table-3 points
    const workload::Table3Point& point =
        workload::table3_points()[point_index];
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
      const workload::Table3Instance instance =
          workload::build_instance(point, seed);
      const mapping::CostTable cost_table(instance.design, instance.board);

      // Nine instances run here, so cap each solve below the sweep-wide
      // budget (the headline Table-3 bench is where long limits belong).
      const double limit = std::min(60.0, bench::env_time_limit());
      mapping::PipelineOptions pipeline_options;
      pipeline_options.global.mip.time_limit_seconds = limit;
      const mapping::Outcome pipeline = mapping::map_pipeline(
          instance.design, instance.board, pipeline_options);

      mapping::CompleteOptions complete_options;
      complete_options.mip.time_limit_seconds = limit;
      const mapping::Outcome complete = mapping::map_complete(
          instance.design, instance.board, cost_table, complete_options);

      const mapping::GreedyResult greedy =
          mapping::map_greedy(instance.design, instance.board, cost_table);

      std::string parity = "-";
      if (pipeline.status == lp::SolveStatus::kOptimal &&
          complete.status == lp::SolveStatus::kOptimal) {
        ++parity_checked;
        // Both solvers prove optimality to the 1e-4 relative gap.
        const bool match =
            std::abs(pipeline.assignment.objective -
                     complete.assignment.objective) <=
            2e-4 * std::max(1.0, pipeline.assignment.objective);
        parity = match ? "yes" : "NO";
        parity_held += match ? 1 : 0;
      }
      const double greedy_excess =
          greedy.success && pipeline.status == lp::SolveStatus::kOptimal
              ? 100.0 *
                    (greedy.assignment.objective -
                     pipeline.assignment.objective) /
                    pipeline.assignment.objective
              : -1.0;
      table.add_row(
          {std::to_string(point.index), std::to_string(seed),
           support::format_fixed(pipeline.assignment.objective, 0),
           complete.mip.has_incumbent()
               ? support::format_fixed(complete.assignment.objective, 0)
               : std::string(lp::to_string(complete.status)),
           parity,
           greedy.success
               ? support::format_fixed(greedy.assignment.objective, 0)
               : "failed",
           greedy_excess >= 0
               ? "+" + support::format_fixed(greedy_excess, 2) + "%"
               : "-"});
      json.write("instance",
                 {bench::jint("point", point.index),
                  bench::jint("seed", static_cast<std::int64_t>(seed)),
                  bench::jnum("global_objective",
                              pipeline.assignment.objective),
                  bench::jnum("complete_objective",
                              complete.mip.has_incumbent()
                                  ? complete.assignment.objective
                                  : -1.0),
                  bench::jstr("parity", parity),
                  bench::jnum("greedy_objective",
                              greedy.success ? greedy.assignment.objective
                                             : -1.0),
                  bench::jnum("greedy_excess_pct", greedy_excess)});
    }
  }
  table.print(std::cout);
  std::printf("\nParity held on %d of %d double-proven instances.\n",
              parity_held, parity_checked);
  json.write("summary", {bench::jint("parity_checked", parity_checked),
                         bench::jint("parity_held", parity_held)});
  return 0;
}
