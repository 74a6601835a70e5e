#include "mapping/solve.hpp"

#include "mapping/complete_mapper.hpp"
#include "mapping/shard_mapper.hpp"

namespace gmm::mapping {

Outcome solve(Formulation formulation, const design::Design& design,
              const arch::Board& board, const ilp::MipOptions& mip,
              int thread_budget) {
  if (formulation == Formulation::kComplete) {
    CompleteOptions options;
    options.mip = mip;
    return map_complete(design, board, CostTable(design, board), options);
  }
  ShardOptions options;
  options.pipeline.global.mip = mip;
  if (formulation == Formulation::kGlobal) {
    return map_pipeline(design, board, options.pipeline);
  }
  options.thread_budget = thread_budget;
  return map_sharded(design, board, options);
}

}  // namespace gmm::mapping
