#include "mapping/batch_mapper.hpp"

#include "support/assert.hpp"

namespace gmm::mapping {

BatchResult map_batch(support::ThreadPool& pool,
                      const std::vector<BatchItem>& items,
                      const PipelineOptions& options) {
  BatchResult batch;
  batch.results.resize(items.size());
  support::parallel_for(pool, items.size(), [&](std::size_t i) {
    const BatchItem& item = items[i];
    GMM_ASSERT(item.design != nullptr && item.board != nullptr,
               "map_batch item with null design or board");
    batch.results[i] = map_pipeline(*item.design, *item.board,
                                    item.options ? *item.options : options);
  });
  for (const Outcome& r : batch.results) {
    if (r.mapped()) ++batch.succeeded;
  }
  return batch;
}

BatchResult map_batch(const std::vector<BatchItem>& items,
                      const PipelineOptions& options,
                      std::size_t num_workers) {
  support::ThreadPool pool(num_workers);
  return map_batch(pool, items, options);
}

}  // namespace gmm::mapping
