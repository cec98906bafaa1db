// The trapdoor-keyed result cache: key construction separates every
// id-shaping input, the striped LRU evicts and promotes correctly, and —
// the acceptance pin — a cached answer is always id-identical to a fresh
// search across EVERY mutation path: Insert, Delete, compaction, split, and
// WAL replay all invalidate before the next lookup can be served.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/result_cache.h"
#include "core/sharded_cloud_server.h"
#include "datagen/synthetic.h"

namespace ppanns {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDim = 16;

struct ScopedDir {
  explicit ScopedDir(const std::string& name)
      : path((fs::temp_directory_path() / ("ppanns_" + name)).string()) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// ---------------------------------------------------------------------------
// Unit layer: the key and the striped LRU, no serving stack involved.

QueryToken MakeToken(std::uint64_t seed) {
  QueryToken token;
  Rng rng(seed);
  token.sap.resize(kDim);
  for (auto& x : token.sap) x = static_cast<float>(rng.Gaussian());
  token.trapdoor.data.resize(2 * kDim + 16);
  for (auto& x : token.trapdoor.data) x = rng.Gaussian();
  return token;
}

TEST(ResultCacheKeyTest, IdenticalInputsCollideDifferingInputsSeparate) {
  const QueryToken token = MakeToken(1);
  const SearchSettings settings{.k_prime = 40, .ef_search = 80};
  const ResultCache::Key base = ResultCache::MakeKey(token, 10, settings);
  EXPECT_TRUE(base == ResultCache::MakeKey(token, 10, settings));

  // Every id-shaping input separates the key.
  EXPECT_FALSE(base == ResultCache::MakeKey(token, 11, settings));
  {
    SearchSettings s = settings;
    s.k_prime = 41;
    EXPECT_FALSE(base == ResultCache::MakeKey(token, 10, s));
  }
  {
    SearchSettings s = settings;
    s.ef_search = 81;
    EXPECT_FALSE(base == ResultCache::MakeKey(token, 10, s));
  }
  {
    SearchSettings s = settings;
    s.refine = false;
    EXPECT_FALSE(base == ResultCache::MakeKey(token, 10, s));
  }
  {
    SearchSettings s = settings;
    s.node_budget = 1000;
    EXPECT_FALSE(base == ResultCache::MakeKey(token, 10, s));
  }
  {
    QueryToken t = token;
    t.sap[3] += 1.0f;
    EXPECT_FALSE(base == ResultCache::MakeKey(t, 10, settings));
  }
  {
    QueryToken t = token;
    t.trapdoor.data[7] += 1.0;
    EXPECT_FALSE(base == ResultCache::MakeKey(t, 10, settings));
  }

  // Deadline/admission knobs do NOT separate: they never change the ids of
  // a completed query, so repeats under different deadlines still hit.
  {
    SearchSettings s = settings;
    s.deadline_ms = 123.0;
    s.admission_ms = 5.0;
    EXPECT_TRUE(base == ResultCache::MakeKey(token, 10, s));
  }
}

// The key reads token bytes in 8-byte words over four lanes. A flip of any
// single bit of the SAP floats or the trapdoor doubles changes one word, and
// that must change both halves: lo picks the bucket, hi the stripe. The
// second shape has a 68-byte SAP, so its last word is a zero-padded half.
TEST(ResultCacheKeyTest, EverySingleBitFlipChangesBothHalves) {
  const SearchSettings settings{.k_prime = 40, .ef_search = 80};
  Rng rng(5);
  for (const auto& [sap_len, trapdoor_len] :
       {std::pair<std::size_t, std::size_t>{kDim, 2 * kDim + 16},
        std::pair<std::size_t, std::size_t>{17, 50}}) {
    QueryToken token;
    token.sap.resize(sap_len);
    for (float& x : token.sap) x = static_cast<float>(rng.Gaussian());
    token.trapdoor.data.resize(trapdoor_len);
    for (double& x : token.trapdoor.data) x = rng.Gaussian();
    const ResultCache::Key base = ResultCache::MakeKey(token, 10, settings);

    auto expect_both_change = [&](unsigned char* bytes, std::size_t len,
                                  const char* field) {
      for (std::size_t i = 0; i < len; ++i) {
        for (int bit = 0; bit < 8; ++bit) {
          bytes[i] ^= static_cast<unsigned char>(1u << bit);
          const ResultCache::Key k = ResultCache::MakeKey(token, 10, settings);
          bytes[i] ^= static_cast<unsigned char>(1u << bit);
          ASSERT_NE(k.lo, base.lo) << field << " byte " << i << " bit " << bit;
          ASSERT_NE(k.hi, base.hi) << field << " byte " << i << " bit " << bit;
        }
      }
    };
    expect_both_change(reinterpret_cast<unsigned char*>(token.sap.data()),
                       sap_len * sizeof(float), "sap");
    expect_both_change(
        reinterpret_cast<unsigned char*>(token.trapdoor.data.data()),
        trapdoor_len * sizeof(double), "trapdoor");
    EXPECT_TRUE(base == ResultCache::MakeKey(token, 10, settings));
  }
}

// 2^17 random tokens: no two share a 128-bit key, and hi spreads them over
// the default 16 stripes with no stripe above twice its fair share.
TEST(ResultCacheKeyTest, RandomTokensNeitherCollideNorCrowdAStripe) {
  constexpr std::size_t kTokens = std::size_t{1} << 17;
  constexpr std::size_t kStripes = 16;
  const SearchSettings settings{.k_prime = 40, .ef_search = 80};
  Rng rng(17);
  QueryToken token;
  token.sap.resize(kDim);
  token.trapdoor.data.resize(2 * kDim + 16);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  keys.reserve(kTokens);
  std::vector<std::size_t> per_stripe(kStripes, 0);
  for (std::size_t i = 0; i < kTokens; ++i) {
    for (float& x : token.sap) x = static_cast<float>(rng.Gaussian());
    for (double& x : token.trapdoor.data) x = rng.Gaussian();
    const ResultCache::Key k = ResultCache::MakeKey(token, 10, settings);
    keys.emplace_back(k.lo, k.hi);
    ++per_stripe[k.hi & (kStripes - 1)];
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  for (std::size_t s = 0; s < kStripes; ++s) {
    EXPECT_LE(per_stripe[s], 2 * kTokens / kStripes) << "stripe " << s;
  }
}

TEST(ResultCacheLruTest, EvictsLeastRecentlyUsedWithinCapacity) {
  // One stripe so the eviction order is fully deterministic.
  ResultCache cache(ResultCacheOptions{.capacity = 2, .stripes = 1});
  const auto k1 = ResultCache::MakeKey(MakeToken(1), 10, {});
  const auto k2 = ResultCache::MakeKey(MakeToken(2), 10, {});
  const auto k3 = ResultCache::MakeKey(MakeToken(3), 10, {});

  cache.Insert(k1, 0, {1});
  cache.Insert(k2, 0, {2});
  std::vector<VectorId> ids;
  ASSERT_TRUE(cache.Lookup(k1, 0, &ids));  // promotes k1; k2 is now LRU
  EXPECT_EQ(ids, std::vector<VectorId>{1});

  cache.Insert(k3, 0, {3});  // capacity 2: evicts k2
  EXPECT_FALSE(cache.Lookup(k2, 0, &ids));
  ASSERT_TRUE(cache.Lookup(k1, 0, &ids));
  ASSERT_TRUE(cache.Lookup(k3, 0, &ids));

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCacheLruTest, StaleEpochIsAMissAndEvicts) {
  ResultCache cache(ResultCacheOptions{.capacity = 8, .stripes = 1});
  const auto key = ResultCache::MakeKey(MakeToken(1), 10, {});
  cache.Insert(key, /*epoch=*/0, {1, 2, 3});

  std::vector<VectorId> ids;
  EXPECT_FALSE(cache.Lookup(key, /*epoch=*/1, &ids));  // stale: dropped
  EXPECT_FALSE(cache.Lookup(key, /*epoch=*/0, &ids));  // really gone

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ResultCacheLruTest, ClearDropsEntriesKeepsCounters) {
  ResultCache cache(ResultCacheOptions{.capacity = 8, .stripes = 2});
  const auto key = ResultCache::MakeKey(MakeToken(1), 10, {});
  cache.Insert(key, 0, {1});
  std::vector<VectorId> ids;
  ASSERT_TRUE(cache.Lookup(key, 0, &ids));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(key, 0, &ids));
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

// ---------------------------------------------------------------------------
// Service layer: the facade's lookup/insert/invalidate choreography. An
// uncached twin service receives every mutation the cached one does, so
// "cached answer == fresh search" is checked against an oracle that cannot
// have cache state by construction.

struct TwinSystem {
  Dataset dataset;
  std::unique_ptr<DataOwner> owner;
  std::unique_ptr<QueryClient> client;
  std::unique_ptr<PpannsService> cached;
  std::unique_ptr<PpannsService> plain;  ///< oracle: same state, no cache
  std::vector<QueryToken> tokens;
};

PpannsParams TwinParams(IndexKind kind, std::uint32_t num_shards,
                        std::uint64_t seed) {
  PpannsParams params;
  params.dcpe_beta = 0.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = kind;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = seed};
  params.num_shards = num_shards;
  params.seed = seed;
  return params;
}

/// Twin services from the same seed hold byte-identical packages, so with
/// identical mutation streams their fresh search results stay identical.
TwinSystem BuildTwins(std::uint32_t num_shards, std::size_t n, std::size_t nq,
                      std::uint64_t seed) {
  TwinSystem sys;
  sys.dataset = MakeDataset(SyntheticKind::kGloveLike, n, nq, 0, seed, kDim);
  // num_shards = 0 selects the single-index topology below; params still
  // need a positive shard count to validate.
  const PpannsParams params =
      TwinParams(IndexKind::kBruteForce, num_shards == 0 ? 1 : num_shards, seed);
  auto owner = DataOwner::Create(kDim, params);
  PPANNS_CHECK(owner.ok());
  sys.owner = std::make_unique<DataOwner>(std::move(*owner));
  DataOwner twin_owner = [&] {
    auto o = DataOwner::Create(kDim, params);
    PPANNS_CHECK(o.ok());
    return std::move(*o);
  }();
  if (num_shards > 0) {
    sys.cached = std::make_unique<PpannsService>(
        ShardedCloudServer(sys.owner->EncryptAndIndexSharded(sys.dataset.base)));
    sys.plain = std::make_unique<PpannsService>(
        ShardedCloudServer(twin_owner.EncryptAndIndexSharded(sys.dataset.base)));
  } else {
    sys.cached = std::make_unique<PpannsService>(
        CloudServer(sys.owner->EncryptAndIndex(sys.dataset.base)));
    sys.plain = std::make_unique<PpannsService>(
        CloudServer(twin_owner.EncryptAndIndex(sys.dataset.base)));
  }
  sys.cached->EnableResultCache(ResultCacheOptions{.capacity = 256});
  sys.client = std::make_unique<QueryClient>(sys.owner->ShareKeys(), seed + 1);
  for (std::size_t i = 0; i < nq; ++i) {
    sys.tokens.push_back(sys.client->EncryptQuery(sys.dataset.queries.row(i)));
  }
  return sys;
}

constexpr SearchSettings kTwinSettings{.k_prime = 40};

/// One warm-compare round: every token is searched twice on the cached
/// service (the second must hit) and once on the oracle; all three id lists
/// must agree.
void ExpectCacheMatchesOracle(TwinSystem& sys, bool expect_first_fresh) {
  for (std::size_t i = 0; i < sys.tokens.size(); ++i) {
    auto first = sys.cached->Search(sys.tokens[i], 10, kTwinSettings);
    auto again = sys.cached->Search(sys.tokens[i], 10, kTwinSettings);
    auto oracle = sys.plain->Search(sys.tokens[i], 10, kTwinSettings);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    if (expect_first_fresh) {
      EXPECT_FALSE(first->counters.cache_hit) << "query " << i;
    }
    EXPECT_TRUE(again->counters.cache_hit) << "query " << i;
    EXPECT_EQ(first->ids, oracle->ids) << "query " << i;
    EXPECT_EQ(again->ids, oracle->ids) << "query " << i;
  }
}

TEST(ResultCacheServiceTest, RepeatQueryHitsWithIdenticalIdsAndZeroWork) {
  TwinSystem sys = BuildTwins(/*num_shards=*/0, 300, 6, /*seed=*/71);
  ExpectCacheMatchesOracle(sys, /*expect_first_fresh=*/true);

  const ResultCacheStats stats = sys.cached->result_cache_stats();
  EXPECT_EQ(stats.hits, sys.tokens.size());
  EXPECT_EQ(stats.misses, sys.tokens.size());
  EXPECT_EQ(stats.stale_evictions, 0u);

  // A hit does zero filter/refine work.
  auto hit = sys.cached->Search(sys.tokens[0], 10, kTwinSettings);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->counters.cache_hit);
  EXPECT_EQ(hit->counters.nodes_visited, 0u);
  EXPECT_EQ(hit->counters.dce_comparisons, 0u);
  EXPECT_EQ(hit->counters.filter_candidates, 0u);
}

TEST(ResultCacheServiceTest, InsertAndDeleteInvalidateOnBothTopologies) {
  for (std::uint32_t num_shards : {0u, 3u}) {
    TwinSystem sys = BuildTwins(num_shards, 300, 6, /*seed=*/73);
    ExpectCacheMatchesOracle(sys, /*expect_first_fresh=*/true);

    // Insert a duplicate of query 0 into both twins: fresh results change
    // (the duplicate becomes its own nearest neighbor), so a survivor from
    // the pre-insert cache would be visibly wrong.
    const EncryptedVector ev =
        sys.owner->EncryptOne(sys.dataset.queries.row(0));
    auto id_cached = sys.cached->Insert(ev);
    auto id_plain = sys.plain->Insert(ev);
    ASSERT_TRUE(id_cached.ok());
    ASSERT_TRUE(id_plain.ok());
    ASSERT_EQ(*id_cached, *id_plain);

    auto post = sys.cached->Search(sys.tokens[0], 10, kTwinSettings);
    ASSERT_TRUE(post.ok());
    EXPECT_FALSE(post->counters.cache_hit) << "insert must invalidate";
    EXPECT_EQ(post->ids.front(), *id_cached);
    ExpectCacheMatchesOracle(sys, /*expect_first_fresh=*/false);

    // Delete a base vector from both twins: same contract.
    ASSERT_TRUE(sys.cached->Delete(5).ok());
    ASSERT_TRUE(sys.plain->Delete(5).ok());
    auto post_del = sys.cached->Search(sys.tokens[1], 10, kTwinSettings);
    ASSERT_TRUE(post_del.ok());
    EXPECT_FALSE(post_del->counters.cache_hit) << "delete must invalidate";
    EXPECT_EQ(std::count(post_del->ids.begin(), post_del->ids.end(),
                         VectorId{5}),
              0);
    ExpectCacheMatchesOracle(sys, /*expect_first_fresh=*/false);
    EXPECT_GT(sys.cached->result_cache_stats().stale_evictions, 0u);
  }
}

TEST(ResultCacheServiceTest, CompactionAndSplitInvalidateViaStateVersion) {
  TwinSystem sys = BuildTwins(/*num_shards=*/4, 400, 8, /*seed=*/75);

  // Tombstones to compact away, applied to both twins.
  for (VectorId id : {3u, 17u, 45u, 101u, 200u}) {
    ASSERT_TRUE(sys.cached->Delete(id).ok());
    ASSERT_TRUE(sys.plain->Delete(id).ok());
  }
  ExpectCacheMatchesOracle(sys, /*expect_first_fresh=*/true);

  // CompactShard bumps state_version WITHOUT passing through the facade's
  // mutation path — the epoch must still move.
  ASSERT_TRUE(sys.cached->sharded_server_mutable().CompactShard(0).ok());
  ASSERT_TRUE(sys.plain->sharded_server_mutable().CompactShard(0).ok());
  auto post = sys.cached->Search(sys.tokens[0], 10, kTwinSettings);
  ASSERT_TRUE(post.ok());
  EXPECT_FALSE(post->counters.cache_hit) << "compaction must invalidate";
  ExpectCacheMatchesOracle(sys, /*expect_first_fresh=*/false);

  // SplitShard rebalances the manifest — again invisible to the facade.
  ASSERT_TRUE(sys.cached->sharded_server_mutable().SplitShard(0).ok());
  ASSERT_TRUE(sys.plain->sharded_server_mutable().SplitShard(0).ok());
  auto post_split = sys.cached->Search(sys.tokens[1], 10, kTwinSettings);
  ASSERT_TRUE(post_split.ok());
  EXPECT_FALSE(post_split->counters.cache_hit) << "split must invalidate";
  ExpectCacheMatchesOracle(sys, /*expect_first_fresh=*/false);
}

TEST(ResultCacheServiceTest, WalReplayInvalidatesTheRevivedCache) {
  TwinSystem sys = BuildTwins(/*num_shards=*/0, 300, 4, /*seed=*/77);
  ScopedDir dir("result_cache_wal");

  // Original run: log mutations through an attached WAL on the oracle twin
  // (which then holds the post-mutation state the replay must reproduce).
  ASSERT_TRUE(sys.plain->AttachWal(dir.path).ok());
  const EncryptedVector ev = sys.owner->EncryptOne(sys.dataset.queries.row(0));
  ASSERT_TRUE(sys.plain->Insert(ev).ok());
  ASSERT_TRUE(sys.plain->Delete(7).ok());

  // The cached service plays the crashed-and-revived process: it serves (and
  // caches) pre-replay answers, then replays the log. Every cached entry
  // predates the replayed mutations and must never be served again.
  auto pre = sys.cached->Search(sys.tokens[0], 10, kTwinSettings);
  ASSERT_TRUE(pre.ok());
  auto pre_hit = sys.cached->Search(sys.tokens[0], 10, kTwinSettings);
  ASSERT_TRUE(pre_hit.ok());
  EXPECT_TRUE(pre_hit->counters.cache_hit);

  auto applied = sys.cached->ReplayWal(dir.path);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 2u);

  auto post = sys.cached->Search(sys.tokens[0], 10, kTwinSettings);
  ASSERT_TRUE(post.ok());
  EXPECT_FALSE(post->counters.cache_hit) << "replay must invalidate";
  auto oracle = sys.plain->Search(sys.tokens[0], 10, kTwinSettings);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(post->ids, oracle->ids);
  EXPECT_NE(post->ids, pre->ids);  // the mutations really changed the answer
}

TEST(ResultCacheServiceTest, IneligibleResultsAreNeverCached) {
  TwinSystem sys = BuildTwins(/*num_shards=*/0, 300, 2, /*seed=*/79);

  // A node budget small enough to trip: the truncated result comes back
  // with early_exit set and must not be replayable.
  const SearchSettings truncated{.k_prime = 40, .node_budget = 10};
  auto first = sys.cached->Search(sys.tokens[0], 10, truncated);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->counters.early_exit, EarlyExit::kBudgetExhausted);
  auto again = sys.cached->Search(sys.tokens[0], 10, truncated);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->counters.cache_hit);
  EXPECT_EQ(sys.cached->result_cache_stats().insertions, 0u);
}

TEST(ResultCacheServiceTest, BatchPartitionsHitsAndMissesIdentically) {
  TwinSystem sys = BuildTwins(/*num_shards=*/3, 400, 8, /*seed=*/81);

  // Warm half the tokens through single-query Search.
  for (std::size_t i = 0; i < sys.tokens.size(); i += 2) {
    ASSERT_TRUE(sys.cached->Search(sys.tokens[i], 10, kTwinSettings).ok());
  }

  auto mixed = sys.cached->SearchBatch(sys.tokens, 10, kTwinSettings);
  auto oracle = sys.plain->SearchBatch(sys.tokens, 10, kTwinSettings);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(mixed->counters.cache_hits, (sys.tokens.size() + 1) / 2);
  EXPECT_EQ(oracle->counters.cache_hits, 0u);
  for (std::size_t i = 0; i < sys.tokens.size(); ++i) {
    EXPECT_EQ(mixed->results[i].ids, oracle->results[i].ids) << "query " << i;
    EXPECT_EQ(mixed->results[i].counters.cache_hit, i % 2 == 0);
  }

  // The whole batch is now resident: an all-hit batch runs no scatter.
  auto warm = sys.cached->SearchBatch(sys.tokens, 10, kTwinSettings);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->counters.cache_hits, sys.tokens.size());
  EXPECT_EQ(warm->counters.total.nodes_visited, 0u);
  for (std::size_t i = 0; i < sys.tokens.size(); ++i) {
    EXPECT_EQ(warm->results[i].ids, oracle->results[i].ids);
  }
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target): searches race epoch-swap compactions that
// invalidate the cache mid-flight. Compaction preserves result ids, so every
// answer — cached or fresh — must equal the pre-compaction baseline while
// stripes are concurrently probed, promoted, staled, and refilled.

TEST(ResultCacheConcurrencyTest, SearchesRaceCompactionInvalidation) {
  const std::size_t n = 300, nq = 6, k = 8;
  TwinSystem sys = BuildTwins(/*num_shards=*/3, n, nq, /*seed=*/83);

  // Tombstones on every shard so each compaction has real work.
  for (VectorId id = 0; id < 60; id += 4) {
    ASSERT_TRUE(sys.cached->Delete(id).ok());
    ASSERT_TRUE(sys.plain->Delete(id).ok());
  }

  std::vector<std::vector<VectorId>> baseline;
  for (const QueryToken& token : sys.tokens) {
    auto r = sys.plain->Search(token, k, kTwinSettings);
    ASSERT_TRUE(r.ok());
    baseline.push_back(r->ids);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::size_t qi = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t i = qi++ % sys.tokens.size();
        auto r = sys.cached->Search(sys.tokens[i], k, kTwinSettings);
        if (!r.ok() || r->ids != baseline[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Invalidation storm: epoch-swap compactions bump state_version while the
  // readers hit/miss/refill the stripes.
  ShardedCloudServer& server = sys.cached->sharded_server_mutable();
  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(server.CompactShard(round % 3).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const ResultCacheStats stats = sys.cached->result_cache_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace ppanns
