// Multi-device sharded mapping: partition -> per-device ILP fan-out ->
// top-level stitch ILP.
//
// Boards with several FPGAs (arch::Board devices) cannot be fed to the
// single-device pipeline directly: bank sharing never crosses a device,
// and inter-device transfers pay board-level pin cost the flat model
// does not see.  map_sharded scales the paper's formulation out instead
// of up:
//
//   1. PARTITION the design's conflict graph into one part per usable
//      device with a balanced min-cut heuristic (design/partition.hpp) —
//      cut conflict edges are simultaneous cross-device traffic, which
//      is exactly what the stitch objective charges for;
//   2. FAN OUT the per-device global/detailed pipelines: every
//      (part, device) candidate whose bits fit is solved concurrently
//      over a support::ThreadPool via the map_batch machinery, each
//      candidate an independent, deterministic map_pipeline run on the
//      device's single-device board view;
//   3. STITCH with a small assignment ILP over the candidates: binary
//      Y_pk ("part p lands on device k"), cost = the candidate's solved
//      objective + transfer_weight * (part p's incident cut traffic) *
//      (device k's inter_device_pins), one-device-per-part equality rows
//      and at-most-one-part-per-device rows, solved exactly (gap 0) by
//      the in-tree MipSolver;
//   4. REPAIR: a part that is infeasible on every device migrates its
//      largest structure to the part with the most slack and the loop
//      re-solves, up to max_repair_rounds, after which the result is
//      reported infeasible.
//
// Determinism: the partition is deterministic, each candidate pipeline
// is deterministic regardless of pool interleaving (per-solve solver
// threads default to 1), and the stitch ILP is solved serially at gap 0
// — so for a fixed board the sharded objective is EXACTLY equal across
// worker counts.  Single-device boards (including boards with no
// explicit devices) bypass all of the above and return the plain
// map_pipeline result unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "design/partition.hpp"
#include "mapping/pipeline.hpp"
#include "support/thread_pool.hpp"

namespace gmm::mapping {

struct ShardOptions {
  /// Options for every per-device global/detailed pipeline run.  The
  /// embedded cancel token is honored between fan-out rounds.
  PipelineOptions pipeline;
  /// Partitioner knobs; `parts` and `capacities` are overwritten with the
  /// usable-device count and per-device bit capacities.
  design::PartitionOptions partition;
  /// Weight of the inter-device transfer term in the stitched objective
  /// (multiplies cut traffic x endpoint inter_device_pins).
  double transfer_weight = 1.0;
  /// Migration rounds for parts that are infeasible on every device.
  int max_repair_rounds = 8;
  /// Threads the whole sharded solve may occupy when map_sharded creates
  /// its own pool: fan-out workers x per-candidate B&B threads stays
  /// within it, and there is never more than one worker per candidate
  /// solve (0 = the hardware concurrency).  The pool-taking overload
  /// ignores this.
  int thread_budget = 0;
};

/// Shard over a caller-owned pool (shared fan-out workers).  The result's
/// sharded extras (device_of, total_effort, shard) are set; mip stays
/// default: no single ILP stands behind a stitched mapping.
Outcome map_sharded(support::ThreadPool& pool, const design::Design& design,
                    const arch::Board& board,
                    const ShardOptions& options = {});

/// Convenience: create a pool for the duration of the call.
Outcome map_sharded(const design::Design& design, const arch::Board& board,
                    const ShardOptions& options = {});

}  // namespace gmm::mapping
