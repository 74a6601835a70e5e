// Batched mapping driver: map N independent designs concurrently.
//
// This is the serving-path counterpart of the single-design pipeline —
// the "many scenarios at once" workload: a board (with its parsed device
// catalog and bank types) is loaded once and shared read-only by every
// request, while a ThreadPool fans the per-design global/detailed
// pipelines out across workers.  Each pipeline run is independent, so
// results are deterministic per item regardless of worker interleaving
// (when the per-item solver itself runs with num_threads == 1).
//
// Two entry points: one borrowing a caller-owned pool (so a server can
// share a single pool between batches) and an owning convenience that
// spins one up for the call.
#pragma once

#include <cstddef>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/pipeline.hpp"
#include "support/thread_pool.hpp"

namespace gmm::mapping {

/// One mapping request.  The pointed-to design and board must outlive the
/// map_batch call; the board is typically shared by every item.
struct BatchItem {
  const design::Design* design = nullptr;
  const arch::Board* board = nullptr;
  /// Per-item override of the batch-wide options (null = use the batch
  /// default).  The shard-repair loop uses this to warm-start re-solves
  /// of changed parts with the previous round's assignment.  Must outlive
  /// the map_batch call.
  const PipelineOptions* options = nullptr;
};

struct BatchResult {
  std::vector<Outcome> results;  // parallel to the input items
  std::size_t succeeded = 0;     // items that mapped

  [[nodiscard]] bool all_succeeded() const {
    return succeeded == results.size();
  }
};

/// Map every item over `pool`, blocking until the batch completes.
BatchResult map_batch(support::ThreadPool& pool,
                      const std::vector<BatchItem>& items,
                      const PipelineOptions& options = {});

/// Convenience: create a pool of `num_workers` (0 = hardware concurrency)
/// for the duration of the call.
BatchResult map_batch(const std::vector<BatchItem>& items,
                      const PipelineOptions& options = {},
                      std::size_t num_workers = 0);

}  // namespace gmm::mapping
