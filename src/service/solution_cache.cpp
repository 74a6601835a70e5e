#include "service/solution_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

namespace gmm::service {

namespace {

// splitmix64 finalizer — the mixing step behind every hash here.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-SENSITIVE accumulator; order-invariance is obtained by feeding
/// sorted sequences, never by a commutative combine (xor-folding loses
/// multiplicities).
constexpr std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

std::uint64_t double_bits(double x) {
  // -0.0 and 0.0 compare equal but differ in bits; normalize.
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

/// Per-structure parameter hash with traffic (the exact-key seed and the
/// near-miss pin comparison).  Names and lifetimes are EXCLUDED: names
/// never reach the cost model, and lifetimes act only through the
/// conflict pairs, which the graph refinement hashes separately.
std::uint64_t param_hash_full(const design::DataStructure& ds) {
  std::uint64_t h = 0x5157f3a1c0ffee01ULL;
  h = combine(h, static_cast<std::uint64_t>(ds.depth));
  h = combine(h, static_cast<std::uint64_t>(ds.width));
  h = combine(h, static_cast<std::uint64_t>(ds.effective_reads()));
  h = combine(h, static_cast<std::uint64_t>(ds.effective_writes()));
  return h;
}

/// Traffic-excluded parameter hash (the structural/near-miss seed).
/// Depth and width stay: they decide placement feasibility, so two
/// designs differing in them are never remap candidates for each other.
std::uint64_t param_hash_structural(const design::DataStructure& ds) {
  std::uint64_t h = 0x5157f3a1c0ffee02ULL;
  h = combine(h, static_cast<std::uint64_t>(ds.depth));
  h = combine(h, static_cast<std::uint64_t>(ds.width));
  return h;
}

/// Weisfeiler-Leman refinement over the conflict graph: each round folds
/// the sorted multiset of neighbor hashes into every structure's hash.
/// After a few rounds two structures hash equal only when their local
/// graph neighborhoods are indistinguishable — which makes the sorted
/// hash multiset invariant under any reordering/renaming of the design.
std::vector<std::uint64_t> wl_refine(
    std::vector<std::uint64_t> hash,
    const std::vector<std::vector<std::size_t>>& adjacency) {
  constexpr int kRounds = 3;
  const std::size_t n = hash.size();
  std::vector<std::uint64_t> next(n);
  std::vector<std::uint64_t> neighborhood;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t d = 0; d < n; ++d) {
      neighborhood.clear();
      neighborhood.reserve(adjacency[d].size());
      for (const std::size_t peer : adjacency[d]) {
        neighborhood.push_back(hash[peer]);
      }
      std::sort(neighborhood.begin(), neighborhood.end());
      std::uint64_t h = mix64(hash[d]);
      for (const std::uint64_t peer : neighborhood) h = combine(h, peer);
      next[d] = h;
    }
    hash.swap(next);
  }
  return hash;
}

/// Content hash of one bank type.  Configs hash IN LIST ORDER:
/// config_index in placements and the planner's alpha/beta choice depend
/// on list position, so two boards differing only in config order are
/// (conservatively) distinct keys.  Bank-TYPE order, by contrast, is
/// canonicalized away by the caller sorting these hashes.
std::uint64_t type_hash(const arch::BankType& type) {
  std::uint64_t h = 0x5157f3a1c0ffee03ULL;
  h = combine(h, static_cast<std::uint64_t>(type.instances));
  h = combine(h, static_cast<std::uint64_t>(type.ports));
  h = combine(h, static_cast<std::uint64_t>(type.read_latency));
  h = combine(h, static_cast<std::uint64_t>(type.write_latency));
  h = combine(h, static_cast<std::uint64_t>(type.pins_traversed));
  h = combine(h, type.configs.size());
  for (const arch::BankConfig& config : type.configs) {
    h = combine(h, static_cast<std::uint64_t>(config.depth));
    h = combine(h, static_cast<std::uint64_t>(config.width));
  }
  return h;
}

/// Board hash: sorted multiset of per-device hashes, each the device's
/// pin count plus the sorted multiset of its types' content hashes —
/// invariant under type AND device reordering, sensitive to grouping.
std::uint64_t board_hash(const arch::Board& board,
                         const std::vector<std::uint64_t>& th) {
  std::vector<std::uint64_t> devices;
  devices.reserve(board.num_devices());
  for (std::size_t k = 0; k < board.num_devices(); ++k) {
    std::uint64_t h = 0x5157f3a1c0ffee04ULL;
    h = combine(h, static_cast<std::uint64_t>(board.device(k).inter_device_pins));
    std::vector<std::size_t> members = board.device_type_indices(k);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(members.size());
    for (const std::size_t t : members) hashes.push_back(th[t]);
    std::sort(hashes.begin(), hashes.end());
    h = combine(h, hashes.size());
    for (const std::uint64_t v : hashes) h = combine(h, v);
    devices.push_back(h);
  }
  std::sort(devices.begin(), devices.end());
  std::uint64_t h = combine(0x5157f3a1c0ffee05ULL,
                            board.has_explicit_devices() ? 1u : 0u);
  h = combine(h, devices.size());
  for (const std::uint64_t v : devices) h = combine(h, v);
  return h;
}

/// Fold one lane of a fingerprint over the request's component hashes.
/// Both lanes fold the same components under different seeds.
std::uint64_t assemble_lane(std::uint64_t seed,
                            const std::vector<std::uint64_t>& node_hashes,
                            const std::vector<std::uint64_t>& edge_hashes,
                            std::uint64_t board, int formulation,
                            double rel_gap) {
  std::uint64_t h = mix64(seed);
  h = combine(h, node_hashes.size());
  for (const std::uint64_t v : node_hashes) h = combine(h, v);
  h = combine(h, edge_hashes.size());
  for (const std::uint64_t v : edge_hashes) h = combine(h, v);
  h = combine(h, board);
  h = combine(h, static_cast<std::uint64_t>(formulation));
  h = combine(h, double_bits(rel_gap));
  return h;
}

Fingerprint assemble(const std::vector<std::uint64_t>& wl,
                     const std::vector<std::pair<std::size_t, std::size_t>>&
                         conflict_pairs,
                     std::uint64_t board, int formulation, double rel_gap) {
  std::vector<std::uint64_t> nodes = wl;
  std::sort(nodes.begin(), nodes.end());
  std::vector<std::uint64_t> edges;
  edges.reserve(conflict_pairs.size());
  for (const auto& [a, b] : conflict_pairs) {
    const std::uint64_t lo = std::min(wl[a], wl[b]);
    const std::uint64_t hi = std::max(wl[a], wl[b]);
    edges.push_back(combine(combine(0x5157f3a1c0ffee06ULL, lo), hi));
  }
  std::sort(edges.begin(), edges.end());
  Fingerprint fp;
  fp.hi = assemble_lane(0x8badf00ddeadbeefULL, nodes, edges, board,
                        formulation, rel_gap);
  fp.lo = assemble_lane(0x0123456789abcdefULL, nodes, edges, board,
                        formulation, rel_gap);
  return fp;
}

}  // namespace

RequestFingerprint fingerprint_request(const design::Design& design,
                                       const arch::Board& board,
                                       CachedFormulation formulation,
                                       double rel_gap) {
  const std::size_t n = design.size();
  std::vector<std::vector<std::size_t>> adjacency(n);
  for (const auto& [a, b] : design.conflict_pairs()) {
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }

  std::vector<std::uint64_t> full_seed(n);
  std::vector<std::uint64_t> structural_seed(n);
  for (std::size_t d = 0; d < n; ++d) {
    full_seed[d] = param_hash_full(design.at(d));
    structural_seed[d] = param_hash_structural(design.at(d));
  }
  const std::vector<std::uint64_t> fwl = wl_refine(full_seed, adjacency);
  const std::vector<std::uint64_t> swl =
      wl_refine(structural_seed, adjacency);

  std::vector<std::uint64_t> th(board.num_types());
  for (std::size_t t = 0; t < board.num_types(); ++t) {
    th[t] = type_hash(board.type(t));
  }
  const std::uint64_t bh = board_hash(board, th);
  const int form = static_cast<int>(formulation);

  RequestFingerprint out;
  out.full = assemble(fwl, design.conflict_pairs(), bh, form, rel_gap);
  out.structural =
      assemble(swl, design.conflict_pairs(), bh, form, rel_gap);

  // Canonical structure order: traffic-excluded keys FIRST so the ranks
  // of a traffic-mutated resubmission still align with the cached entry;
  // the full hash only breaks structural ties, and residual ties (fully
  // WL-equivalent structures) are interchangeable by construction — any
  // remaining wrongness is caught by replay re-verification.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](const std::size_t a, const std::size_t b) {
              if (swl[a] != swl[b]) return swl[a] < swl[b];
              if (fwl[a] != fwl[b]) return fwl[a] < fwl[b];
              return a < b;
            });
  out.structure_rank.resize(n);
  out.param_hash_by_rank.resize(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    out.structure_rank[order[rank]] = rank;
    out.param_hash_by_rank[rank] = param_hash_full(design.at(order[rank]));
  }

  std::vector<std::size_t> type_order(board.num_types());
  std::iota(type_order.begin(), type_order.end(), std::size_t{0});
  std::sort(type_order.begin(), type_order.end(),
            [&](const std::size_t a, const std::size_t b) {
              if (th[a] != th[b]) return th[a] < th[b];
              return a < b;
            });
  out.type_rank.resize(board.num_types());
  for (std::size_t rank = 0; rank < board.num_types(); ++rank) {
    out.type_rank[type_order[rank]] = rank;
  }
  return out;
}

bool to_canonical(const RequestFingerprint& fp,
                  const mapping::GlobalAssignment& assignment,
                  const mapping::DetailedMapping& detailed,
                  CacheEntry& entry) {
  const std::size_t n = fp.structure_rank.size();
  const std::size_t types = fp.type_rank.size();
  if (assignment.type_of.size() != n) return false;
  entry.num_structures = n;
  entry.num_types = types;
  entry.type_of_by_rank.assign(n, -1);
  for (std::size_t d = 0; d < n; ++d) {
    const int t = assignment.type_of[d];
    if (t < 0 || t >= static_cast<int>(types)) return false;
    entry.type_of_by_rank[fp.structure_rank[d]] =
        static_cast<int>(fp.type_rank[static_cast<std::size_t>(t)]);
  }
  entry.fragments_by_rank.clear();
  entry.fragments_by_rank.reserve(detailed.fragments.size());
  for (const mapping::PlacedFragment& f : detailed.fragments) {
    if (f.ds >= n || f.type >= types) return false;
    mapping::PlacedFragment& canon = entry.fragments_by_rank.emplace_back(f);
    canon.ds = fp.structure_rank[f.ds];
    canon.type = fp.type_rank[f.type];
  }
  entry.param_hash_by_rank = fp.param_hash_by_rank;
  return true;
}

bool from_canonical(const RequestFingerprint& fp, const CacheEntry& entry,
                    std::vector<int>& type_of,
                    mapping::DetailedMapping* detailed) {
  const std::size_t n = fp.structure_rank.size();
  const std::size_t types = fp.type_rank.size();
  if (entry.num_structures != n || entry.num_types != types ||
      entry.type_of_by_rank.size() != n) {
    return false;
  }
  std::vector<std::size_t> type_by_rank(types);
  for (std::size_t t = 0; t < types; ++t) type_by_rank[fp.type_rank[t]] = t;
  type_of.assign(n, -1);
  for (std::size_t d = 0; d < n; ++d) {
    const int tr = entry.type_of_by_rank[fp.structure_rank[d]];
    if (tr < 0 || tr >= static_cast<int>(types)) return false;
    type_of[d] = static_cast<int>(type_by_rank[static_cast<std::size_t>(tr)]);
  }
  if (detailed == nullptr) return true;
  std::vector<std::size_t> ds_by_rank(n);
  for (std::size_t d = 0; d < n; ++d) ds_by_rank[fp.structure_rank[d]] = d;
  detailed->fragments.clear();
  detailed->fragments.reserve(entry.fragments_by_rank.size());
  for (const mapping::PlacedFragment& f : entry.fragments_by_rank) {
    if (f.ds >= n || f.type >= types) return false;
    mapping::PlacedFragment& placed = detailed->fragments.emplace_back(f);
    placed.ds = ds_by_rank[f.ds];
    placed.type = type_by_rank[f.type];
  }
  detailed->success = true;
  return true;
}

std::vector<std::size_t> unchanged_structures(const RequestFingerprint& fp,
                                              const CacheEntry& entry) {
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < fp.structure_rank.size(); ++d) {
    const std::size_t r = fp.structure_rank[d];
    if (fp.param_hash_by_rank[r] == entry.param_hash_by_rank[r]) {
      out.push_back(d);
    }
  }
  return out;
}

std::optional<CacheEntry> SolutionCache::find(const Fingerprint& key) {
  if (capacity_ == 0) return std::nullopt;
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

std::optional<CacheEntry> SolutionCache::find_structural(
    const Fingerprint& structural) {
  if (capacity_ == 0) return std::nullopt;
  const std::scoped_lock lock(mutex_);
  const auto st = structural_index_.find(structural);
  if (st == structural_index_.end()) return std::nullopt;
  const auto it = index_.find(st->second);
  if (it == index_.end()) return std::nullopt;
  return *it->second;
}

void SolutionCache::insert(CacheEntry entry) {
  if (capacity_ == 0) return;
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(entry.key);
  if (it != index_.end()) {
    // Refresh: same key means same proved problem; keep the newer entry.
    unindex_structural(it->second);
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(std::move(entry));
  index_[lru_.front().key] = lru_.begin();
  structural_index_[lru_.front().structural] = lru_.front().key;
  ++insertions_;
  while (lru_.size() > capacity_) {
    const auto victim = std::prev(lru_.end());
    unindex_structural(victim);
    index_.erase(victim->key);
    lru_.erase(victim);
    ++evictions_;
  }
}

void SolutionCache::erase(const Fingerprint& key) {
  if (capacity_ == 0) return;
  const std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  unindex_structural(it->second);
  lru_.erase(it->second);
  index_.erase(it);
}

void SolutionCache::unindex_structural(const Lru::iterator it) {
  const auto st = structural_index_.find(it->structural);
  if (st == structural_index_.end() || st->second != it->key) return;
  // The departing entry owns the structural slot.  Erasing the slot
  // outright would orphan any *surviving* entries that share the same
  // structural fingerprint (same conflict graph, different traffic):
  // a near-miss lookup after an eviction or a poisoning erase would
  // then miss even though a usable prior mapping is still cached.
  // Repoint the slot at the most-recently-used survivor instead, and
  // erase it only when no entry with this structural fingerprint
  // remains.
  for (auto other = lru_.begin(); other != lru_.end(); ++other) {
    if (other == it) continue;
    if (other->structural == it->structural) {
      st->second = other->key;
      return;
    }
  }
  structural_index_.erase(st);
}

std::size_t SolutionCache::size() const {
  const std::scoped_lock lock(mutex_);
  return lru_.size();
}

std::int64_t SolutionCache::insertions() const {
  const std::scoped_lock lock(mutex_);
  return insertions_;
}

std::int64_t SolutionCache::evictions() const {
  const std::scoped_lock lock(mutex_);
  return evictions_;
}

}  // namespace gmm::service
