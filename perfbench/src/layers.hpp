// Per-layer metrics of the traced run.
//
// Every workload reports the same per-layer names; a layer a workload
// bypasses reads 0 there (global-batch never touches the service,
// serve-mix never runs the complete formulation).  Layer times are mean
// self time per call in ms, counts are totals over the measured items.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "ilp/mip_solver.hpp"
#include "lp/basis.hpp"
#include "mapping/types.hpp"
#include "trace.hpp"

namespace perfbench {

/// Solver-side effort summed over the mapping calls of one pass.
struct SolveTally {
  std::int64_t calls = 0;          // mapping entry calls tallied
  std::int64_t global_solves = 0;  // global ILP solves incl. retries
  std::int64_t retries = 0;        // global solves rejected by packing
  double preprocess_ms = 0.0;
  double formulate_ms = 0.0;
  double ilp_ms = 0.0;  // branch & bound incl. root LP and cut loop
  double detailed_ms = 0.0;
  double global_stage_ms = 0.0;  // formulate + ILP of global solves only
  std::int64_t nodes = 0;
  std::int64_t pivots = 0;
  std::int64_t refactorizations = 0;
  std::int64_t cover_cuts = 0;
  std::int64_t clique_cuts = 0;
  std::int64_t rc_fixed = 0;
  gmm::lp::BasisCacheStats basis;
  std::vector<double> gaps_at_budget;  // relative gap of unproved solves

  /// `global_solves` is 1 + retries for the pipeline, 0 for the complete
  /// formulation (its one ILP is not a global solve).
  void add(const gmm::mapping::SolveEffort& effort,
           const gmm::ilp::MipResult& mip, std::int64_t retries,
           std::int64_t global_solves);
  [[nodiscard]] Effort effort_of_last() const { return last_; }
  [[nodiscard]] std::int64_t global_calls() const { return global_calls_; }

 private:
  Effort last_;
  std::int64_t global_calls_ = 0;
};

/// Service-layer values measured by serve-mix (all 0 elsewhere).
struct ServiceLayer {
  double inproc_ms_p50 = 0.0;
  double inproc_ms_p99 = 0.0;
  double hit_share = 0.0;
  double near_miss_share = 0.0;
  double miss_share = 0.0;
  double evictions = 0.0;
  double verify_fails = 0.0;
  double nodes = 0.0;
  double ping_ms_p50 = 0.0;
  double ping_ms_p99 = 0.0;
  double bytes_per_request = 0.0;
  double lateness_ms_p99 = 0.0;
};

/// Tail diagnostics of the traced run.  Too unsteady on a shared machine
/// to carry a regression bound (see perfbench/config.json), so they are
/// reported here rather than as end-to-end metrics.
struct Tails {
  double solve_ms_p90 = 0.0;
  double latency_ms_p99 = 0.0;
  double max_rate_rps = 0.0;  // serve-mix only
};

/// Writes every per-layer metric into `report`.
void emit_layer_metrics(const Tracer& tracer, const SolveTally& tally,
                        const ServiceLayer& service, const Tails& tails,
                        double remap_nodes, double overhead_share,
                        Report& report);

}  // namespace perfbench
