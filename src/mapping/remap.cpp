#include "mapping/remap.hpp"

#include "support/log.hpp"

namespace gmm::mapping {

RemapResult remap(const design::Design& design, const arch::Board& board,
                  const std::vector<int>& prior_type_of,
                  const RemapOptions& options) {
  RemapResult out;
  PipelineOptions warm = options.pipeline;
  if (prior_type_of.size() == design.size()) {
    warm.global.warm_assignment = prior_type_of;
    warm.global.pinned_structures = options.pinned_structures;
    warm.global.migration_penalty = options.migration_penalty;
  }
  out.result = map_pipeline(design, board, warm);
  out.warm_used = out.result.mip.mip_start_used;
  if (out.result.mapped()) return out;

  // A pin the delta cannot live with (or a stale prior on a changed
  // board) shows up as infeasibility; the cold path is always available.
  const bool constrained = !warm.global.pinned_structures.empty() ||
                           warm.global.migration_penalty > 0.0;
  if (constrained && out.result.status != lp::SolveStatus::kCancelled &&
      out.result.status != lp::SolveStatus::kTimeLimit) {
    GMM_LOG(kInfo) << "remap: incremental solve failed ("
                   << lp::to_string(out.result.status)
                   << "); falling back to a cold solve";
    const SolveEffort warm_effort = out.result.total_effort;
    out.result = map_pipeline(design, board, options.pipeline);
    out.result.total_effort += warm_effort;
    out.warm_used = false;
    out.fell_back_cold = true;
  }
  return out;
}

}  // namespace gmm::mapping
