#include "layers.hpp"

#include <cmath>

namespace perfbench {

void SolveTally::add(const gmm::mapping::SolveEffort& effort,
                     const gmm::ilp::MipResult& mip, std::int64_t retry_count,
                     std::int64_t solves) {
  ++calls;
  global_solves += solves;
  retries += retry_count;
  preprocess_ms += 1e3 * effort.preprocess_seconds;
  formulate_ms += 1e3 * effort.formulate_seconds;
  ilp_ms += 1e3 * effort.solve_seconds;
  detailed_ms += 1e3 * effort.detailed_seconds;
  if (solves > 0) {
    ++global_calls_;
    global_stage_ms +=
        1e3 * (effort.formulate_seconds + effort.solve_seconds);
  }
  nodes += effort.bnb_nodes;
  pivots += effort.lp_iterations;
  refactorizations += effort.lp_refactorizations;
  cover_cuts += mip.cover_cuts;
  clique_cuts += mip.clique_cuts;
  rc_fixed += mip.rc_fixed;
  basis += effort.basis;
  if (mip.stop_reason != gmm::lp::SolveStatus::kOptimal &&
      mip.has_incumbent()) {
    gaps_at_budget.push_back(mip.gap());
  }
  last_ = Effort{effort.bnb_nodes, effort.lp_iterations,
                 effort.lp_refactorizations, mip.cover_cuts, mip.clique_cuts,
                 mip.rc_fixed, retry_count};
}

void emit_layer_metrics(const Tracer& tracer, const SolveTally& tally,
                        const ServiceLayer& service, const Tails& tails,
                        double remap_nodes, double overhead_share,
                        Report& report) {
  const auto self = tracer.self_ms();
  const auto counts = tracer.counts();
  // Mean self time per span of `name`, 0 when the layer never ran.
  const auto per_call = [&](const char* name) {
    const auto it = self.find(name);
    const auto n = counts.find(name);
    if (it == self.end() || n == counts.end() || n->second == 0) return 0.0;
    return it->second / static_cast<double>(n->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double calls = static_cast<double>(tally.calls);

  report.set("design.parse_ms", per_call("design.parse"), "ms");
  report.set("design.cliques_ms", per_call("design.cliques"), "ms");

  report.set("mapping.preprocess_ms", ratio(tally.preprocess_ms, calls), "ms");
  report.set("mapping.formulate_ms", ratio(tally.formulate_ms, calls), "ms");
  report.set("mapping.detailed_ms", ratio(tally.detailed_ms, calls), "ms");
  report.set("mapping.global_ms",
             ratio(tally.global_stage_ms,
                   static_cast<double>(tally.global_calls())),
             "ms");
  report.set("mapping.retry_share",
             ratio(static_cast<double>(tally.retries),
                   static_cast<double>(tally.global_solves)),
             "share");
  report.set("mapping.complete_ms", per_call("mapping.complete"), "ms");
  report.set("mapping.validate_ms", per_call("mapping.validate"), "ms");
  report.set("mapping.remap_ms", per_call("mapping.remap"), "ms");
  report.set("mapping.remap_nodes", remap_nodes, "count");

  report.set("ilp.solve_ms", ratio(tally.ilp_ms, calls), "ms");
  report.set("ilp.nodes", static_cast<double>(tally.nodes), "count");
  report.set("ilp.nodes_per_s",
             ratio(static_cast<double>(tally.nodes), tally.ilp_ms / 1e3),
             "1/s");
  report.set("ilp.gap_at_budget", mean(tally.gaps_at_budget), "share");
  report.set("ilp.unproved", static_cast<double>(tally.gaps_at_budget.size()),
             "count");
  report.set("ilp.cover_cuts", static_cast<double>(tally.cover_cuts), "count");
  report.set("ilp.clique_cuts", static_cast<double>(tally.clique_cuts),
             "count");
  report.set("ilp.rc_fixed", static_cast<double>(tally.rc_fixed), "count");

  report.set("lp.pivots", static_cast<double>(tally.pivots), "count");
  report.set("lp.refactorizations",
             static_cast<double>(tally.refactorizations), "count");
  // Computed, not measured per pivot: ILP solve time / pivots.
  report.set("lp.us_per_pivot",
             ratio(1e3 * tally.ilp_ms, static_cast<double>(tally.pivots)),
             "us");
  report.set("lp.pivots_per_node",
             ratio(static_cast<double>(tally.pivots),
                   static_cast<double>(tally.nodes)),
             "count");
  report.set("lp.basis_hit_rate", tally.basis.hit_rate(), "share");

  report.set("service.parse_ms", per_call("service.parse"), "ms");
  report.set("service.fingerprint_ms", per_call("service.fingerprint"), "ms");
  report.set("service.serialize_ms", per_call("service.serialize"), "ms");
  report.set("service.inproc_ms_p50", service.inproc_ms_p50, "ms");
  report.set("service.inproc_ms_p99", service.inproc_ms_p99, "ms");
  report.set("service.cache.hit_share", service.hit_share, "share");
  report.set("service.cache.near_miss_share", service.near_miss_share,
             "share");
  report.set("service.cache.miss_share", service.miss_share, "share");
  report.set("service.cache.evictions", service.evictions, "count");
  report.set("service.cache.verify_fails", service.verify_fails, "count");
  report.set("service.nodes", service.nodes, "count");
  report.set("service.socket.ping_ms_p50", service.ping_ms_p50, "ms");
  report.set("service.socket.ping_ms_p99", service.ping_ms_p99, "ms");
  report.set("service.socket.bytes_per_request", service.bytes_per_request,
             "bytes");
  report.set("harness.lateness_ms_p99", service.lateness_ms_p99, "ms");
  report.set("tail.solve_ms_p90", tails.solve_ms_p90, "ms");
  report.set("tail.latency_ms_p99", tails.latency_ms_p99, "ms");
  report.set("tail.max_rate_rps", tails.max_rate_rps, "1/s");
  report.set("trace.overhead_share", overhead_share, "share");
  report.set("trace.spans", static_cast<double>(tracer.size()), "count");
}

}  // namespace perfbench
