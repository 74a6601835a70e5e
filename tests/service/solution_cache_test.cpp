// Solution-cache correctness wall.
//
// Property tests (300 seeds): the request fingerprint is invariant under
// structure reordering, renaming, and bank-type reordering — and differs
// whenever ANY objective-relevant field differs (structure shape,
// traffic, conflicts, bank parameters, formulation, gap).  The
// traffic-excluded STRUCTURAL fingerprint is additionally invariant
// under traffic mutation, which is what near-miss detection keys on.
//
// Service tests: an exact resubmission (even permuted and renamed)
// replays from the cache with "cached" set and an identical objective; a
// traffic-only mutation takes the incremental near-miss path; no_cache
// bypasses; a replay that fails re-verification is poisoned and answered
// by a cold solve; and the hit/miss/bypass accounting always sums to the
// accepted-request count.
#include "service/solution_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "arch/board.hpp"
#include "design/design.hpp"
#include "design/design_io.hpp"
#include "service/mapping_service.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "workload/workload_gen.hpp"

namespace gmm::service {
namespace {

// ---- random problem generators --------------------------------------------

design::Design random_design(support::Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 10));
  design::Design out("d");
  for (std::size_t i = 0; i < n; ++i) {
    design::DataStructure ds;
    ds.name = "s" + std::to_string(i);
    ds.depth = rng.uniform_int(8, 256);
    ds.width = rng.uniform_int(1, 32);
    // 0 = "unknown" (cost models fall back to depth); mixing both forms
    // exercises the effective_* normalization in the fingerprint.
    ds.reads = rng.bernoulli(0.5) ? rng.uniform_int(1, 4096) : 0;
    ds.writes = rng.bernoulli(0.5) ? rng.uniform_int(1, 4096) : 0;
    out.add(ds);
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (rng.bernoulli(0.4)) out.add_conflict(a, b);
    }
  }
  return out;
}

arch::Board random_board(support::Rng& rng) {
  arch::Board out("b");
  const int types = static_cast<int>(rng.uniform_int(2, 4));
  for (int t = 0; t < types; ++t) {
    arch::BankType type;
    type.name = "t" + std::to_string(t);
    type.instances = rng.uniform_int(2, 8);
    type.ports = rng.uniform_int(1, 2);
    type.read_latency = rng.uniform_int(1, 3);
    type.write_latency = rng.uniform_int(1, 3);
    type.pins_traversed = rng.uniform_int(0, 4);
    // Constant-capacity power-of-two configs (BankType::validate).
    const int log_capacity = static_cast<int>(rng.uniform_int(12, 15));
    const int configs = static_cast<int>(rng.uniform_int(1, 3));
    for (int c = 0; c < configs; ++c) {
      const int log_depth = log_capacity - 2 - c;
      type.configs.push_back(
          {.depth = std::int64_t{1} << log_depth,
           .width = std::int64_t{1} << (log_capacity - log_depth)});
    }
    out.add_bank_type(type);
  }
  return out;
}

/// Rebuild `design` with structures in `order` and fresh names; conflict
/// pairs are remapped through the permutation.
design::Design permute_design(const design::Design& design,
                              const std::vector<std::size_t>& order) {
  std::vector<std::size_t> position(design.size());
  for (std::size_t j = 0; j < order.size(); ++j) position[order[j]] = j;
  design::Design out("renamed");
  for (std::size_t j = 0; j < order.size(); ++j) {
    design::DataStructure ds = design.at(order[j]);
    ds.name = "x" + std::to_string(j);
    out.add(ds);
  }
  for (const auto& [a, b] : design.conflict_pairs()) {
    out.add_conflict(position[a], position[b]);
  }
  return out;
}

arch::Board permute_board(const arch::Board& board,
                          const std::vector<std::size_t>& order) {
  arch::Board out(board.name());
  for (const std::size_t t : order) {
    arch::BankType type = board.type(t);
    type.name = "r" + std::to_string(t);
    out.add_bank_type(type);
  }
  return out;
}

RequestFingerprint fp_of(const design::Design& design,
                         const arch::Board& board,
                         double gap = 1e-4) {
  return fingerprint_request(design, board, CachedFormulation::kGlobal, gap);
}

// ---- fingerprint properties -----------------------------------------------

TEST(SolutionCacheFingerprint, InvariantUnderReorderingAndRenaming) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    support::Rng rng(seed);
    const design::Design design = random_design(rng);
    const arch::Board board = random_board(rng);

    std::vector<std::size_t> ds_order(design.size());
    std::iota(ds_order.begin(), ds_order.end(), std::size_t{0});
    rng.shuffle(ds_order);
    std::vector<std::size_t> type_order(board.num_types());
    std::iota(type_order.begin(), type_order.end(), std::size_t{0});
    rng.shuffle(type_order);

    const RequestFingerprint a = fp_of(design, board);
    const RequestFingerprint b =
        fp_of(permute_design(design, ds_order), permute_board(board, type_order));

    ASSERT_EQ(a.full, b.full) << "seed " << seed;
    ASSERT_EQ(a.structural, b.structural) << "seed " << seed;
    // The canonical-rank views must agree too — that is what makes a
    // cached entry replayable onto any permutation of the same request.
    ASSERT_EQ(a.param_hash_by_rank, b.param_hash_by_rank) << "seed " << seed;
  }
}

TEST(SolutionCacheFingerprint, SeparatesEveryObjectiveRelevantField) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    support::Rng rng(seed + 1'000'000);
    const design::Design design = random_design(rng);
    const arch::Board board = random_board(rng);
    const RequestFingerprint base = fp_of(design, board);

    const auto expect_differs = [&](const design::Design& d,
                                    const arch::Board& b, const char* what) {
      const RequestFingerprint mutated = fp_of(d, b);
      ASSERT_NE(base.full, mutated.full) << what << " seed " << seed;
    };

    const std::size_t victim = rng.index(design.size());
    {  // depth: full AND structural change
      design::Design d("d");
      for (std::size_t i = 0; i < design.size(); ++i) {
        design::DataStructure ds = design.at(i);
        if (i == victim) ds.depth += 1;
        d.add(ds);
      }
      for (const auto& [a, b] : design.conflict_pairs()) d.add_conflict(a, b);
      const RequestFingerprint mutated = fp_of(d, board);
      ASSERT_NE(base.full, mutated.full) << "depth seed " << seed;
      ASSERT_NE(base.structural, mutated.structural) << "depth seed " << seed;
    }
    {  // traffic: full changes, STRUCTURAL stays (the near-miss property)
      design::Design d("d");
      for (std::size_t i = 0; i < design.size(); ++i) {
        design::DataStructure ds = design.at(i);
        if (i == victim) ds.reads = ds.effective_reads() + 7;
        d.add(ds);
      }
      for (const auto& [a, b] : design.conflict_pairs()) d.add_conflict(a, b);
      const RequestFingerprint mutated = fp_of(d, board);
      ASSERT_NE(base.full, mutated.full) << "reads seed " << seed;
      ASSERT_EQ(base.structural, mutated.structural) << "reads seed " << seed;
    }
    if (design.size() >= 2) {  // conflict edge flip
      design::Design d("d");
      for (std::size_t i = 0; i < design.size(); ++i) d.add(design.at(i));
      const std::size_t a = 0;
      const std::size_t b = 1;
      const bool had = design.conflicts(a, b);
      for (const auto& [x, y] : design.conflict_pairs()) {
        if (had && x == a && y == b) continue;
        d.add_conflict(x, y);
      }
      if (!had) d.add_conflict(a, b);
      expect_differs(d, board, "conflict flip");
    }
    {  // bank-type parameter changes
      const std::size_t t = rng.index(board.num_types());
      for (const int field : {0, 1, 2, 3, 4}) {
        arch::Board b("b");
        for (std::size_t k = 0; k < board.num_types(); ++k) {
          arch::BankType type = board.type(k);
          if (k == t) {
            switch (field) {
              case 0: type.instances += 1; break;
              case 1: type.ports += 1; break;
              case 2: type.read_latency += 1; break;
              case 3: type.write_latency += 1; break;
              case 4: type.pins_traversed += 1; break;
            }
          }
          b.add_bank_type(type);
        }
        expect_differs(design, b, "bank field");
      }
    }
    {  // formulation and gap are part of the contract
      const RequestFingerprint complete = fingerprint_request(
          design, board, CachedFormulation::kComplete, 1e-4);
      ASSERT_NE(base.full, complete.full) << "formulation seed " << seed;
      const RequestFingerprint loose = fp_of(design, board, 0.05);
      ASSERT_NE(base.full, loose.full) << "gap seed " << seed;
    }
  }
}

// ---- LRU store -------------------------------------------------------------

CacheEntry entry_with_key(std::uint64_t key, std::uint64_t structural) {
  CacheEntry e;
  e.key = {key, key ^ 0xabcdULL};
  e.structural = {structural, structural ^ 0x1234ULL};
  e.num_structures = 1;
  e.num_types = 1;
  e.type_of_by_rank = {0};
  e.objective = static_cast<double>(key);
  return e;
}

TEST(SolutionCacheStore, LruEvictsLeastRecentlyUsed) {
  SolutionCache cache(2);
  cache.insert(entry_with_key(1, 101));
  cache.insert(entry_with_key(2, 102));
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
  cache.insert(entry_with_key(3, 103));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.insertions(), 3);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_TRUE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
  EXPECT_FALSE(cache.find({2, 2 ^ 0xabcdULL}).has_value());
  EXPECT_TRUE(cache.find({3, 3 ^ 0xabcdULL}).has_value());
}

TEST(SolutionCacheStore, StructuralIndexAndErase) {
  SolutionCache cache(4);
  cache.insert(entry_with_key(1, 500));
  const auto near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->key, (Fingerprint{1, 1 ^ 0xabcdULL}));

  cache.erase({1, 1 ^ 0xabcdULL});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
  EXPECT_FALSE(cache.find_structural({500, 500 ^ 0x1234ULL}).has_value());
}

TEST(SolutionCacheStore, EraseRepointsStructuralIndexToSurvivor) {
  // Two entries share a structural fingerprint (same conflict graph and
  // shapes, different traffic).  The LAST insert owns the structural
  // slot; erasing the owner (poisoning path) must repoint the slot at
  // the survivor, not orphan it — a near-miss lookup afterwards still
  // has a usable prior mapping in the cache.
  SolutionCache cache(4);
  cache.insert(entry_with_key(1, 500));
  cache.insert(entry_with_key(2, 500));
  auto near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->key, (Fingerprint{2, 2 ^ 0xabcdULL}));

  cache.erase({2, 2 ^ 0xabcdULL});
  near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value()) << "structural slot orphaned by erase";
  EXPECT_EQ(near->key, (Fingerprint{1, 1 ^ 0xabcdULL}));

  cache.erase({1, 1 ^ 0xabcdULL});
  EXPECT_FALSE(cache.find_structural({500, 500 ^ 0x1234ULL}).has_value());
}

TEST(SolutionCacheStore, EvictionRepointsStructuralIndexToSurvivor) {
  SolutionCache cache(2);
  cache.insert(entry_with_key(1, 500));
  cache.insert(entry_with_key(2, 500));  // slot owner, currently MRU
  // Touch 1 so the slot OWNER becomes the LRU victim.
  ASSERT_TRUE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
  cache.insert(entry_with_key(3, 777));  // evicts 2

  EXPECT_FALSE(cache.find({2, 2 ^ 0xabcdULL}).has_value());
  const auto near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value()) << "structural slot orphaned by eviction";
  EXPECT_EQ(near->key, (Fingerprint{1, 1 ^ 0xabcdULL}));
  EXPECT_TRUE(cache.find_structural({777, 777 ^ 0x1234ULL}).has_value());
}

TEST(SolutionCacheStore, RefreshInsertKeepsStructuralIndexValid) {
  SolutionCache cache(4);
  cache.insert(entry_with_key(1, 500));
  CacheEntry refreshed = entry_with_key(1, 500);
  refreshed.objective = 42.0;
  cache.insert(refreshed);  // same key: refresh path erases + reinserts
  EXPECT_EQ(cache.size(), 1u);
  const auto near = cache.find_structural({500, 500 ^ 0x1234ULL});
  ASSERT_TRUE(near.has_value());
  EXPECT_DOUBLE_EQ(near->objective, 42.0);
}

TEST(SolutionCacheStore, CapacityZeroDisablesEverything) {
  SolutionCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(entry_with_key(1, 1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.insertions(), 0);
  EXPECT_FALSE(cache.find({1, 1 ^ 0xabcdULL}).has_value());
}

// ---- end-to-end service replay ---------------------------------------------

class Collector {
 public:
  MappingService::ResponseSink sink() {
    return [this](const Response& r) {
      const std::scoped_lock lock(mutex_);
      responses_.push_back(r);
    };
  }
  [[nodiscard]] Response only(const std::string& id) const {
    const std::scoped_lock lock(mutex_);
    const Response* found = nullptr;
    int count = 0;
    for (const Response& r : responses_) {
      if (r.id == id && r.method == "map") {
        found = &r;
        ++count;
      }
    }
    EXPECT_EQ(count, 1) << "id " << id << " got " << count << " responses";
    return found != nullptr ? *found : Response{};
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Response> responses_;
};

arch::Board test_board() {
  const auto board =
      workload::board_from_totals({.banks = 24, .ports = 36, .configs = 50});
  EXPECT_TRUE(board.has_value());
  return *board;
}

Request map_request(const std::string& id, std::string design_text) {
  Request r;
  r.method = Method::kMap;
  r.id = id;
  r.map.design_text = std::move(design_text);
  return r;
}

std::string demo_design_text() {
  return "design demo\n"
         "segment coeffs depth 64 width 8 reads 100 writes 50\n"
         "segment window depth 128 width 8 reads 200 writes 10\n"
         "segment taps depth 32 width 16\n"
         "conflicts all\n";
}

/// Same problem, segments renamed and reordered.
std::string permuted_design_text() {
  return "design other\n"
         "segment b depth 128 width 8 reads 200 writes 10\n"
         "segment c depth 32 width 16\n"
         "segment a depth 64 width 8 reads 100 writes 50\n"
         "conflicts all\n";
}

TEST(SolutionCacheService, ExactRepeatReplaysWithIdenticalObjective) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("cold", demo_design_text()));
  service.handle(map_request("warm", demo_design_text()));
  service.handle(map_request("permuted", permuted_design_text()));
  service.drain();

  const Response cold = out.only("cold");
  ASSERT_EQ(cold.status, ResponseStatus::kOk) << cold.error;
  EXPECT_FALSE(cold.cached);

  for (const char* id : {"warm", "permuted"}) {
    const Response hit = out.only(id);
    ASSERT_EQ(hit.status, ResponseStatus::kOk) << hit.error;
    EXPECT_TRUE(hit.cached) << id;
    EXPECT_EQ(hit.solve_status, "optimal");
    EXPECT_DOUBLE_EQ(hit.objective, cold.objective) << id;
    EXPECT_EQ(hit.placements.size(), cold.placements.size()) << id;
    EXPECT_EQ(hit.nodes, 0) << id;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 2);
  EXPECT_EQ(stats.cache.misses, 1);
  EXPECT_EQ(stats.cache.bypasses, 0);
  EXPECT_EQ(stats.cache.insertions, 1);
  EXPECT_EQ(stats.cache.entries, 1);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.cache.bypasses,
            stats.accepted);
  // Only the cold request actually solved.
  EXPECT_EQ(stats.solves, 1);
}

TEST(SolutionCacheService, NoCacheKnobBypassesLookupAndInsert) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  Request opt_out = map_request("first", demo_design_text());
  opt_out.map.knobs.no_cache = true;
  service.handle(opt_out);
  Request again = map_request("second", demo_design_text());
  again.map.knobs.no_cache = true;
  service.handle(again);
  service.drain();

  EXPECT_FALSE(out.only("first").cached);
  EXPECT_FALSE(out.only("second").cached);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.bypasses, 2);
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.insertions, 0);
  EXPECT_EQ(stats.solves, 2);
}

TEST(SolutionCacheService, CapacityZeroBehavesLikeNoCache) {
  Collector out;
  MappingService service({test_board()},
                         {.workers = 1, .cache_capacity = 0}, out.sink());
  service.handle(map_request("a", demo_design_text()));
  service.handle(map_request("b", demo_design_text()));
  service.drain();

  EXPECT_FALSE(out.only("a").cached);
  EXPECT_FALSE(out.only("b").cached);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.bypasses, 2);
  EXPECT_EQ(stats.cache.entries, 0);
}

TEST(SolutionCacheService, TrafficMutationTakesNearMissPath) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("cold", demo_design_text()));
  // Same structures and conflicts, different access counts only.
  service.handle(map_request("mutated",
                             "design demo\n"
                             "segment coeffs depth 64 width 8 reads 900 "
                             "writes 50\n"
                             "segment window depth 128 width 8 reads 200 "
                             "writes 10\n"
                             "segment taps depth 32 width 16\n"
                             "conflicts all\n"));
  service.drain();

  const Response mutated = out.only("mutated");
  ASSERT_EQ(mutated.status, ResponseStatus::kOk) << mutated.error;
  EXPECT_FALSE(mutated.cached);  // near miss solves; only exact hits replay

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 0);
  EXPECT_EQ(stats.cache.misses, 2);
  EXPECT_EQ(stats.cache.near_misses, 1);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.cache.bypasses,
            stats.accepted);
}

TEST(SolutionCacheService, NearMissStillFiresAfterExactHitTouchedTheEntry) {
  // Regression for the LRU-touch / structural-index interaction.  An
  // exact hit splices the cached entry to the front of the LRU list; the
  // structural index must keep resolving afterwards (it maps to the
  // entry's KEY, never to a list position).  Sequence: cold solve, exact
  // hit (touch), then two successive traffic mutations — each must take
  // the near-miss path off the still-indexed entry.
  const auto demo_with_reads = [](int reads) {
    return "design demo\n"
           "segment coeffs depth 64 width 8 reads " +
           std::to_string(reads) +
           " writes 50\n"
           "segment window depth 128 width 8 reads 200 writes 10\n"
           "segment taps depth 32 width 16\n"
           "conflicts all\n";
  };
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("cold", demo_with_reads(100)));
  service.handle(map_request("warm", demo_with_reads(100)));
  service.handle(map_request("variant1", demo_with_reads(900)));
  service.handle(map_request("variant2", demo_with_reads(500)));
  service.drain();

  for (const char* id : {"cold", "warm", "variant1", "variant2"}) {
    ASSERT_EQ(out.only(id).status, ResponseStatus::kOk) << id;
  }
  EXPECT_TRUE(out.only("warm").cached);
  EXPECT_FALSE(out.only("variant1").cached);
  EXPECT_FALSE(out.only("variant2").cached);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1);
  // BOTH mutations near-missed: the slot survived the exact-hit touch
  // and the first near-miss lookup (near-miss results are not inserted,
  // so the cold entry keeps owning its structural slot).
  EXPECT_EQ(stats.cache.near_misses, 2);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.cache.bypasses,
            stats.accepted);
}

/// Leaves the process-global fault injector disarmed, pass or fail.
class SolutionCacheServiceFaults : public ::testing::Test {
 protected:
  void TearDown() override { support::global_faults().disarm(); }
};

TEST_F(SolutionCacheServiceFaults, VerifyFailPoisonsEntryAndSolvesCold) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("cold", demo_design_text()));
  service.drain();

  // The resubmission finds the entry, its replay "fails" verification:
  // the entry is erased, a cold solve answers, and its proved result is
  // inserted again.
  std::string error;
  ASSERT_TRUE(
      support::global_faults().arm("seed=1,cache.verify:corrupt@once", error))
      << error;
  service.handle(map_request("poisoned", demo_design_text()));
  service.drain();
  support::global_faults().disarm();
  service.handle(map_request("again", demo_design_text()));
  service.drain();

  const Response cold = out.only("cold");
  const Response poisoned = out.only("poisoned");
  const Response again = out.only("again");
  ASSERT_EQ(cold.status, ResponseStatus::kOk) << cold.error;
  ASSERT_EQ(poisoned.status, ResponseStatus::kOk) << poisoned.error;
  ASSERT_EQ(again.status, ResponseStatus::kOk) << again.error;
  EXPECT_FALSE(poisoned.cached);
  EXPECT_DOUBLE_EQ(poisoned.objective, cold.objective);
  EXPECT_EQ(poisoned.degraded, 0);  // on the wire as "degraded":false
  EXPECT_EQ(cold.degraded, -1);
  EXPECT_TRUE(again.cached);
  EXPECT_DOUBLE_EQ(again.objective, cold.objective);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.verify_fails, 1);
  EXPECT_EQ(stats.cache.hits, 1);
  EXPECT_EQ(stats.cache.misses, 2);
  EXPECT_EQ(stats.cache.near_misses, 0);
  EXPECT_EQ(stats.cache.insertions, 2);
  EXPECT_EQ(stats.cache.entries, 1);
  EXPECT_EQ(stats.solves, 2);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses + stats.cache.bypasses,
            stats.completed);
}

TEST(SolutionCacheService, DifferentGapContractsNeverShareEntries) {
  Collector out;
  MappingService service({test_board()}, {.workers = 1}, out.sink());
  service.handle(map_request("tight", demo_design_text()));
  Request loose = map_request("loose", demo_design_text());
  loose.map.knobs.gap = 0.25;
  service.handle(loose);
  service.drain();

  EXPECT_TRUE(out.only("tight").status == ResponseStatus::kOk);
  EXPECT_FALSE(out.only("loose").cached);  // different quality contract
}

}  // namespace
}  // namespace gmm::service
