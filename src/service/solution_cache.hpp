// Fingerprint-keyed solution cache for the mapping service.
//
// Serving workloads repeat themselves: CAD flows re-submit the same
// design/board pair while iterating on unrelated parts of a system, and
// profile-driven flows re-submit the same STRUCTURE with updated traffic
// counts.  Both patterns pay a full branch & bound per request unless the
// service remembers what it already proved.  This cache closes that gap
// with two lookups:
//
//   * EXACT HIT — a canonical 128-bit fingerprint over everything that
//     can influence the mapping objective: per-structure parameters
//     (depth, width, effective reads/writes — names excluded), the
//     conflict graph (via Weisfeiler-Leman refinement, so the key is
//     invariant under structure reordering and renaming), the board's
//     bank types and device grouping (invariant under type reordering;
//     config LISTS hash in order, because config_index and the placement
//     planner's config choice depend on list position), the formulation,
//     and the effective relative gap.  A hit replays the cached mapping
//     through the canonical permutations back into the request's own
//     index space — and is then RE-VERIFIED (validate_mapping + a cost
//     recompute against the cached objective) before being served, so a
//     fingerprint collision degrades to a miss, never a wrong answer.
//
//   * NEAR MISS — a second, traffic-excluded STRUCTURAL fingerprint
//     indexes entries by shape alone.  A request that matches an entry
//     structurally but not exactly changed only access counts; the
//     service then runs mapping::remap seeded with the cached assignment
//     (MIP start) and pins the structures whose full parameter hashes
//     still match, instead of solving cold.  Placement feasibility never
//     depends on traffic, so the warm start is always valid.
//
// Only PROVED results are inserted (solve status kOptimal with B&B stop
// reason kOptimal): node/time budgets then never need to be part of the
// key, and a replayed answer is exactly what a fresh solve would return.
// Entries live in an LRU list under an internal mutex; capacity 0
// disables the cache entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "mapping/types.hpp"

namespace gmm::service {

/// 128-bit cache key; two independently mixed 64-bit lanes keep the
/// collision probability negligible at serving scale (and a collision is
/// caught by replay re-verification anyway).
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  friend auto operator<=>(const Fingerprint&, const Fingerprint&) = default;
};

/// The fingerprints and canonical orderings of one map request.
struct RequestFingerprint {
  /// Everything objective-relevant (see file comment) — the exact-hit key.
  Fingerprint full;
  /// `full` minus the per-structure traffic (effective reads/writes) —
  /// the near-miss index.  Depth/width/lifetime-derived conflicts stay.
  Fingerprint structural;
  /// Canonical rank of each structure (a permutation of [0, size)),
  /// ordered by traffic-EXCLUDED refinement hashes so the ranks of
  /// traffic-mutated resubmissions still line up with the cached entry.
  std::vector<std::size_t> structure_rank;
  /// Canonical rank of each flat bank-type index.
  std::vector<std::size_t> type_rank;
  /// Per-structure FULL parameter hash (traffic included), indexed by
  /// canonical rank — the near-miss path pins exactly the ranks whose
  /// hashes are unchanged.
  std::vector<std::uint64_t> param_hash_by_rank;
};

/// Formulation tag folded into both fingerprints.  Sharded solves are
/// never cached (their objective includes a stitch term the replay
/// verifier cannot recompute), so only kGlobal and kComplete appear.
using CachedFormulation = mapping::Formulation;

/// Compute both fingerprints and the canonical orderings for a request.
/// `rel_gap` must be the EFFECTIVE gap the solve will run with (knob
/// default already applied) — two requests at different gaps are
/// different quality contracts and must never share an entry.
RequestFingerprint fingerprint_request(const design::Design& design,
                                       const arch::Board& board,
                                       CachedFormulation formulation,
                                       double rel_gap);

/// One cached proved mapping, stored entirely in CANONICAL index space
/// (structure ranks / type ranks) so any permutation of the same request
/// replays it.
struct CacheEntry {
  Fingerprint key;         // full fingerprint
  Fingerprint structural;  // traffic-excluded fingerprint
  std::size_t num_structures = 0;
  std::size_t num_types = 0;
  /// Canonical structure rank -> canonical type rank.
  std::vector<int> type_of_by_rank;
  /// Placed fragments with ds/type rewritten to canonical ranks.
  std::vector<mapping::PlacedFragment> fragments_by_rank;
  /// Full per-structure parameter hashes by rank (for near-miss pinning).
  std::vector<std::uint64_t> param_hash_by_rank;
  double objective = 0.0;
  int retries = 0;
  std::string solve_status;  // wire "solve_status" of the original solve
};

/// Rewrite a request-space mapping into `entry`'s canonical form (sizes,
/// type_of_by_rank, fragments_by_rank, param_hash_by_rank) through `fp`'s
/// ranks.  False when an assignment is incomplete or any structure/type
/// index is out of range for `fp`.
bool to_canonical(const RequestFingerprint& fp,
                  const mapping::GlobalAssignment& assignment,
                  const mapping::DetailedMapping& detailed, CacheEntry& entry);

/// Rewrite `entry`'s canonical mapping back into `fp`'s request index
/// space: bank type per structure into `type_of` and, when `detailed` is
/// given, the placed fragments (detailed->success = true).  False when
/// the entry's sizes differ from the request's or any rank is out of
/// range.
bool from_canonical(const RequestFingerprint& fp, const CacheEntry& entry,
                    std::vector<int>& type_of,
                    mapping::DetailedMapping* detailed);

/// Structures (request indices) whose full parameter hash equals
/// `entry`'s at the same canonical rank: unchanged by a traffic mutation,
/// so the near-miss re-solve may pin them.  `entry` must have passed
/// from_canonical for `fp`.
std::vector<std::size_t> unchanged_structures(const RequestFingerprint& fp,
                                              const CacheEntry& entry);

/// Thread-safe LRU store.  Lookups copy the entry out (a reference could
/// be evicted by a concurrent insert while the caller replays it).
class SolutionCache {
 public:
  /// `capacity` = maximum entries; 0 disables every operation.
  explicit SolutionCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

  /// Exact lookup; refreshes LRU recency on hit.
  [[nodiscard]] std::optional<CacheEntry> find(const Fingerprint& key);

  /// Near-miss lookup: the most recently used entry with this structural
  /// fingerprint.  Does NOT refresh recency (the caller is about to
  /// re-solve and insert the fresh result under its own key).
  [[nodiscard]] std::optional<CacheEntry> find_structural(
      const Fingerprint& structural);

  /// Insert (or refresh) an entry; evicts the least recently used entry
  /// beyond capacity.
  void insert(CacheEntry entry);

  /// Drop an entry — the verify-fail path poisons the colliding key so
  /// it cannot fail again on every future request.
  void erase(const Fingerprint& key);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::int64_t insertions() const;
  [[nodiscard]] std::int64_t evictions() const;

 private:
  using Lru = std::list<CacheEntry>;

  void unindex_structural(const Lru::iterator it);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  Lru lru_;  // front = most recently used
  std::map<Fingerprint, Lru::iterator> index_;
  /// structural fingerprint -> full key of the most recent entry with it.
  std::map<Fingerprint, Fingerprint> structural_index_;
  std::int64_t insertions_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace gmm::service
