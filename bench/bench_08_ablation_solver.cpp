// Ablation of the MILP solver design choices that DESIGN.md calls out:
// presolve on/off, the packing-repair primal heuristic of the complete
// formulation on/off, and the greedy-repair heuristic's effect on the
// global formulation (measured as nodes + time on a mid-size point).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "mapping/complete_mapper.hpp"
#include "mapping/global_mapper.hpp"
#include "report/text_table.hpp"
#include "support/string_util.hpp"
#include "support/timer.hpp"

int main() {
  using namespace gmm;
  std::printf("== Ablation: solver design choices ==\n\n");

  // A footprint-model instance (random read/write counts): its cost
  // structure is far less uniform than the paper's reads = writes = D_d
  // model, which is exactly when the solver features under ablation earn
  // their keep.
  const workload::Table3Point& point = workload::table3_points()[2];
  auto board = workload::board_from_totals(point.totals);
  workload::DesignGenOptions gen;
  gen.num_segments = point.segments;
  gen.seed = bench::env_seed();
  gen.paper_access_model = false;
  const design::Design footprint_design =
      workload::generate_design(*board, gen);
  const workload::Table3Instance instance{point, std::move(*board),
                                          footprint_design};
  const mapping::CostTable table(instance.design, instance.board);

  report::TextTable out({"configuration", "status", "objective", "seconds",
                         "B&B nodes", "LP iterations"});
  out.set_alignment(0, report::Align::kLeft);
  bench::BenchJson json("ablation_solver");
  const auto emit = [&json](const char* name, lp::SolveStatus status,
                            const ilp::MipResult& mip, double seconds) {
    json.write("configuration",
               {bench::jstr("name", name),
                bench::jstr("status", lp::to_string(status)),
                bench::jnum("objective",
                            mip.has_incumbent() ? mip.objective : -1.0),
                bench::jnum("seconds", seconds),
                bench::jint("nodes", mip.nodes),
                bench::jint("lp_iterations", mip.lp_iterations)});
  };

  // Several solver configurations run here; cap each below the sweep
  // budget so a pathological configuration cannot stall the bench.
  const double limit = std::min(60.0, bench::env_time_limit());
  const auto run_global = [&](const char* name, bool presolve) {
    mapping::GlobalOptions options;
    options.mip.use_presolve = presolve;
    options.mip.time_limit_seconds = limit;
    support::WallTimer timer;
    const mapping::Outcome r =
        mapping::map_global(instance.design, instance.board, table, options);
    out.add_row({name, lp::to_string(r.status),
                 r.mip.has_incumbent()
                     ? support::format_fixed(r.mip.objective, 0)
                     : "-",
                 bench::fmt_seconds(timer.seconds()),
                 std::to_string(r.mip.nodes),
                 std::to_string(r.mip.lp_iterations)});
    emit(name, r.status, r.mip, timer.seconds());
  };
  run_global("global, presolve on", true);
  run_global("global, presolve off", false);

  const auto run_complete = [&](const char* name, bool heuristic,
                                bool presolve) {
    mapping::CompleteOptions options;
    options.use_packing_heuristic = heuristic;
    options.mip.use_presolve = presolve;
    options.mip.time_limit_seconds = limit;
    support::WallTimer timer;
    const mapping::Outcome r = mapping::map_complete(
        instance.design, instance.board, table, options);
    out.add_row({name, lp::to_string(r.status),
                 r.mip.has_incumbent()
                     ? support::format_fixed(r.mip.objective, 0)
                     : "-",
                 bench::fmt_seconds(timer.seconds()),
                 std::to_string(r.mip.nodes),
                 std::to_string(r.mip.lp_iterations)});
    emit(name, r.status, r.mip, timer.seconds());
  };
  run_complete("complete, packing heuristic + presolve", true, true);
  run_complete("complete, no packing heuristic", false, true);
  run_complete("complete, no presolve", true, false);

  out.print(std::cout);
  std::printf(
      "\nReading: the packing-repair heuristic is what closes the "
      "complete\nformulation's symmetric placement plateau; without it "
      "the flat model\nbranches on interchangeable instances.\n");
  return 0;
}
