// The live-mutation path under churn: epoch-swapped tombstone compaction
// preserves every result id (pinned against a from-scratch rebuild of the
// live set), searches keep running *through* a compaction/split swap without
// ever reading freed state (the TSan target), MaybeCompact honors its
// threshold/skew/min-size knobs, dead manifest refs reject re-deletes, the
// compacted package round-trips through the checksummed v3 envelope, and a
// background sweep loop keeps tombstone ratios bounded while mutations land.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/sharded_cloud_server.h"
#include "common/rng.h"
#include "datagen/synthetic.h"

namespace ppanns {
namespace {

constexpr std::size_t kDim = 16;

PpannsParams BaseParams(IndexKind kind, std::uint32_t num_shards,
                        std::uint64_t seed) {
  PpannsParams params;
  // beta = 0: re-encrypting the same plaintext yields the identical SAP
  // ciphertext, which the fresh-rebuild equivalence below depends on.
  params.dcpe_beta = 0.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = kind;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = seed};
  params.num_shards = num_shards;
  params.seed = seed;
  return params;
}

DataOwner MakeOwner(const PpannsParams& params) {
  auto owner = DataOwner::Create(kDim, params);
  PPANNS_CHECK(owner.ok());
  return std::move(*owner);
}

Dataset MakeData(std::size_t n, std::size_t nq, std::uint64_t seed) {
  return MakeDataset(SyntheticKind::kGloveLike, n, nq, 0, seed, kDim);
}

std::vector<QueryToken> MakeTokens(const DataOwner& owner, const Dataset& ds,
                                   std::uint64_t seed) {
  QueryClient client(owner.ShareKeys(), seed);
  std::vector<QueryToken> tokens;
  tokens.reserve(ds.queries.size());
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    tokens.push_back(client.EncryptQuery(ds.queries.row(i)));
  }
  return tokens;
}

/// Global ids currently living on shard s, in manifest order.
std::vector<VectorId> IdsOnShard(const ShardedCloudServer& server,
                                 std::size_t s) {
  std::vector<VectorId> out;
  const ShardManifest& manifest = server.manifest();
  for (VectorId g = 0; g < manifest.size(); ++g) {
    const ShardRef& ref = manifest.at(g);
    if (!IsDeadRef(ref) && ref.shard == s) out.push_back(g);
  }
  return out;
}

// The acceptance pin of the compaction tentpole: with the exact filter
// backend the scatter-gather returns the global SAP-top-k' regardless of
// how rows are partitioned, so a compacted server must return the identical
// ids as a package freshly built from only the surviving plaintexts. Seeded
// 50/50 insert/delete churn first, so compaction runs against a realistic
// mixed shard state rather than a pure-delete one.
TEST(MaintenanceDynamicsTest, CompactionMatchesFreshRebuildOfLiveSet) {
  const std::size_t n = 400, nq = 12, k = 10;
  const Dataset ds = MakeData(n, nq, /*seed=*/101);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 101));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};

  // Seeded churn: half inserts (fresh gaussian plaintexts we keep around for
  // the rebuild), half deletes of random live ids.
  Rng rng(103);
  std::vector<std::vector<float>> plaintexts;
  for (std::size_t i = 0; i < n; ++i) {
    plaintexts.emplace_back(ds.base.row(i), ds.base.row(i) + kDim);
  }
  std::vector<VectorId> alive(n);
  for (std::size_t i = 0; i < n; ++i) alive[i] = static_cast<VectorId>(i);
  for (std::size_t op = 0; op < 200; ++op) {
    if (rng.UniformInt(0, 1) == 0 || alive.size() < 2) {
      std::vector<float> row(kDim);
      for (auto& x : row) x = static_cast<float>(rng.Gaussian());
      auto id = service.Insert(owner.EncryptOne(row.data()));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, plaintexts.size());
      plaintexts.push_back(std::move(row));
      alive.push_back(*id);
    } else {
      const std::size_t victim = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(alive.size()) - 1));
      ASSERT_TRUE(service.Delete(alive[victim]).ok());
      alive.erase(alive.begin() + victim);
    }
  }
  std::sort(alive.begin(), alive.end());
  ASSERT_EQ(service.size(), alive.size());

  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 107);
  const SearchSettings settings{.k_prime = 4 * k};
  std::vector<std::vector<VectorId>> before;
  for (const QueryToken& token : tokens) {
    auto r = service.Search(token, k, settings);
    ASSERT_TRUE(r.ok());
    before.push_back(r->ids);
  }

  // Compact every shard that accumulated tombstones.
  ShardedCloudServer& server = service.sharded_server_mutable();
  std::size_t compactions = 0;
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    if (server.tombstone_ratio(s) > 0.0) {
      ASSERT_TRUE(server.CompactShard(s).ok());
      ++compactions;
      EXPECT_EQ(server.last_compaction_epoch(s), 1u);
    }
  }
  ASSERT_GT(compactions, 0u);
  EXPECT_EQ(server.state_version(), compactions);
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    EXPECT_DOUBLE_EQ(server.tombstone_ratio(s), 0.0) << "shard " << s;
  }
  EXPECT_EQ(service.size(), alive.size());  // compaction loses nothing

  // Identical ids to the pre-compaction state...
  for (std::size_t qi = 0; qi < tokens.size(); ++qi) {
    auto r = service.Search(tokens[qi], k, settings);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->ids, before[qi]) << "query " << qi;
  }

  // ...and to a package built from scratch over only the live plaintexts
  // (whose dense ids are the ranks of `alive`, so map them back through it).
  FloatMatrix live(alive.size(), kDim);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    std::copy_n(plaintexts[alive[i]].data(), kDim, live.row(i));
  }
  DataOwner fresh_owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 101));
  PpannsService fresh{
      ShardedCloudServer(fresh_owner.EncryptAndIndexSharded(live))};
  for (std::size_t qi = 0; qi < tokens.size(); ++qi) {
    auto compacted = service.Search(tokens[qi], k, settings);
    auto rebuilt = fresh.Search(tokens[qi], k, settings);
    ASSERT_TRUE(compacted.ok());
    ASSERT_TRUE(rebuilt.ok());
    std::vector<VectorId> mapped;
    for (VectorId rank : rebuilt->ids) mapped.push_back(alive[rank]);
    EXPECT_EQ(compacted->ids, mapped) << "query " << qi;
  }
}

// The swap guarantee: searches racing a compaction (and a split) never
// block, never crash, never return a tombstoned id — in-flight queries
// finish on the old set, new ones pin the new set. Run under TSan in CI.
TEST(MaintenanceDynamicsTest, SearchesConcurrentWithCompactionStayValid) {
  const std::size_t n = 600, nq = 8, k = 10;
  const Dataset ds = MakeData(n, nq, /*seed=*/109);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 4, 109));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};

  // All mutation happens before the race: the live set stays fixed while
  // searches and structural maintenance overlap (Insert/Delete keep their
  // pre-existing "serialize against your own searches" contract; only
  // compaction/split carry the search-concurrent guarantee).
  Rng rng(113);
  std::set<VectorId> deleted;
  while (deleted.size() < 150) {
    deleted.insert(static_cast<VectorId>(rng.UniformInt(0, n - 1)));
  }
  for (VectorId id : deleted) ASSERT_TRUE(service.Delete(id).ok());

  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 127);
  const SearchSettings settings{.k_prime = 4 * k, .ef_search = 60};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries_served{0};

  std::vector<std::thread> searchers;
  for (int t = 0; t < 4; ++t) {
    searchers.emplace_back([&, t] {
      std::size_t qi = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = service.Search(tokens[qi % tokens.size()], k, settings);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_FALSE(r->ids.empty());
        for (VectorId id : r->ids) {
          EXPECT_LT(id, n);
          EXPECT_EQ(deleted.count(id), 0u) << "tombstoned id surfaced";
        }
        queries_served.fetch_add(1, std::memory_order_relaxed);
        ++qi;
      }
    });
  }

  // Structural maintenance races the searchers: compact all four shards,
  // then split one — five swaps total.
  ShardedCloudServer& server = service.sharded_server_mutable();
  for (std::size_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(server.CompactShard(s).ok());
  }
  ASSERT_TRUE(server.SplitShard(0).ok());
  EXPECT_EQ(server.num_shards(), 5u);
  EXPECT_EQ(server.state_version(), 5u);

  // Let the searchers observe the final topology before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& th : searchers) th.join();
  EXPECT_GT(queries_served.load(), 0u);
  EXPECT_EQ(service.size(), n - deleted.size());
}

TEST(MaintenanceDynamicsTest, SplitShardPreservesIdsAndRebalances) {
  const std::size_t n = 200, nq = 8, k = 10;
  const Dataset ds = MakeData(n, nq, /*seed=*/131);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 131));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};
  ShardedCloudServer& server = service.sharded_server_mutable();

  // Tombstones on the shard being split are collected by the split rebuild.
  const std::vector<VectorId> on_zero = IdsOnShard(server, 0);
  ASSERT_GE(on_zero.size(), 10u);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.Delete(on_zero[3 * i]).ok());
  }

  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 137);
  const SearchSettings settings{.k_prime = 4 * k};
  std::vector<std::vector<VectorId>> before;
  for (const QueryToken& token : tokens) {
    auto r = service.Search(token, k, settings);
    ASSERT_TRUE(r.ok());
    before.push_back(r->ids);
  }

  ASSERT_TRUE(server.SplitShard(0).ok());
  ASSERT_EQ(server.num_shards(), 3u);
  EXPECT_EQ(server.state_version(), 1u);
  EXPECT_DOUBLE_EQ(server.tombstone_ratio(0), 0.0);
  EXPECT_DOUBLE_EQ(server.tombstone_ratio(2), 0.0);

  // The halves partition shard 0's live rows; global ids did not move.
  const std::size_t live_zero = on_zero.size() - 6;
  EXPECT_EQ(IdsOnShard(server, 0).size(), (live_zero + 1) / 2);
  EXPECT_EQ(IdsOnShard(server, 2).size(), live_zero / 2);
  EXPECT_EQ(service.size(), n - 6);
  for (std::size_t qi = 0; qi < tokens.size(); ++qi) {
    auto r = service.Search(tokens[qi], k, settings);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->ids, before[qi]) << "query " << qi;
  }

  // Inserts route against the post-split topology (a fresh split half is
  // now among the lightest shards).
  auto id = service.Insert(owner.EncryptOne(ds.queries.row(0)));
  ASSERT_TRUE(id.ok());
  const ShardRef& ref = server.manifest().at(*id);
  EXPECT_TRUE(ref.shard == 0 || ref.shard == 2) << "routed to " << ref.shard;

  // A shard with fewer than two live vectors cannot split.
  DataOwner tiny_owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 139));
  const Dataset tiny = MakeData(3, 0, /*seed=*/139);
  PpannsService tiny_service{
      ShardedCloudServer(tiny_owner.EncryptAndIndexSharded(tiny.base))};
  EXPECT_EQ(
      tiny_service.sharded_server_mutable().SplitShard(1).code(),
      Status::Code::kFailedPrecondition);
}

TEST(MaintenanceDynamicsTest, MaybeCompactHonorsThresholdAndSkew) {
  const std::size_t n = 240;  // 60 per shard
  const Dataset ds = MakeData(n, 4, /*seed=*/149);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 149));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};
  ShardedCloudServer& server = service.sharded_server_mutable();

  // Tombstone exactly one shard past the threshold: 20/60 = 33%.
  const std::vector<VectorId> on_zero = IdsOnShard(server, 0);
  ASSERT_EQ(on_zero.size(), 60u);
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(service.Delete(on_zero[i]).ok());
  }

  ShardedCloudServer::MaintenanceOptions options;
  options.compact_threshold = 0.3;
  EXPECT_EQ(server.MaybeCompact(options).value(), 1u);  // only shard 0 crossed it
  EXPECT_EQ(server.last_compaction_epoch(0), 1u);
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_EQ(server.last_compaction_epoch(s), 0u) << "shard " << s;
  }
  EXPECT_EQ(server.MaybeCompact(options).value(), 0u);  // nothing left to do

  // Skew-triggered split: shard 0 now holds 40 live vs 60 on the others
  // (mean 55). A 1.05 skew bound flags the heaviest shard; a compact
  // threshold above 1 disables compaction so the split is the only op.
  options.compact_threshold = 2.0;
  options.split_skew = 1.05;
  options.min_split_size = 10;
  EXPECT_EQ(server.MaybeCompact(options).value(), 1u);
  EXPECT_EQ(server.num_shards(), 5u);

  // min_split_size gates the same trigger.
  options.min_split_size = 1000;
  EXPECT_EQ(server.MaybeCompact(options).value(), 0u);
  EXPECT_EQ(server.num_shards(), 5u);
}

TEST(MaintenanceDynamicsTest, DeadRefsRejectDeletesAndV3EnvelopeRoundTrips) {
  const std::size_t n = 200, nq = 8, k = 10;
  const Dataset ds = MakeData(n, nq, /*seed=*/151);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 151));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};
  ShardedCloudServer& server = service.sharded_server_mutable();

  const std::size_t shard_of_17 = server.manifest().at(17).shard;
  ASSERT_TRUE(service.Delete(17).ok());
  ASSERT_TRUE(server.CompactShard(shard_of_17).ok());

  // The tombstoned slot is physically gone: its manifest entry is a dead
  // ref, and deleting it again is NotFound — same answer as before the
  // compaction, so callers cannot tell when the slot was reclaimed.
  EXPECT_TRUE(IsDeadRef(server.manifest().at(17)));
  EXPECT_EQ(service.Delete(17).code(), Status::Code::kNotFound);
  EXPECT_EQ(service.Delete(9999).code(), Status::Code::kInvalidArgument);

  // Compacted state round-trips through the checksummed v3 envelope with
  // its maintenance history, results and dead refs intact.
  BinaryWriter w;
  service.SerializeDatabase(&w);
  BinaryReader r(w.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state_version, 1u);
  PpannsService reloaded{ShardedCloudServer(std::move(*loaded))};
  const ShardedCloudServer& reloaded_server = reloaded.sharded_server();
  EXPECT_EQ(reloaded_server.state_version(), 1u);
  EXPECT_EQ(reloaded_server.last_compaction_epoch(shard_of_17), 1u);
  EXPECT_TRUE(IsDeadRef(reloaded_server.manifest().at(17)));
  EXPECT_EQ(reloaded.Delete(17).code(), Status::Code::kNotFound);

  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 157);
  for (const QueryToken& token : tokens) {
    auto a = service.Search(token, k, SearchSettings{.k_prime = 40});
    auto b = reloaded.Search(token, k, SearchSettings{.k_prime = 40});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->ids, b->ids);
  }

  // The v3 envelope is byte-stable across a load/save cycle.
  BinaryWriter w2;
  reloaded.SerializeDatabase(&w2);
  EXPECT_EQ(w2.buffer(), w.buffer());

  // A torn v3 envelope (any truncation past the header) is rejected whole,
  // never half-loaded.
  std::vector<std::uint8_t> torn(w.buffer().begin(), w.buffer().end() - 5);
  BinaryReader tr(torn);
  EXPECT_FALSE(ShardedEncryptedDatabase::Deserialize(&tr).ok());
}

TEST(MaintenanceDynamicsTest, BackgroundWorkerKeepsTombstonesBounded) {
  const std::size_t n = 400;
  const Dataset ds = MakeData(n, 4, /*seed=*/163);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 163));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};
  ShardedCloudServer& server = service.sharded_server_mutable();

  ShardedCloudServer::MaintenanceOptions options;
  options.compact_threshold = 0.05;
  // The background worker: a thread this test owns, sweeping every 1 ms.
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(server.MaybeCompact(options).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Deletes trickle in while the worker sweeps; the mutation lock
  // serializes them against any in-flight compaction automatically.
  Rng rng(167);
  std::set<VectorId> deleted;
  while (deleted.size() < 160) {
    const auto id = static_cast<VectorId>(rng.UniformInt(0, n - 1));
    if (deleted.insert(id).second) {
      ASSERT_TRUE(service.Delete(id).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  // The worker must eventually sweep every shard back under the threshold.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool bounded = false;
  while (!bounded && std::chrono::steady_clock::now() < deadline) {
    bounded = true;
    for (std::size_t s = 0; s < server.num_shards(); ++s) {
      if (server.tombstone_ratio(s) > options.compact_threshold) {
        bounded = false;
      }
    }
    if (!bounded) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  EXPECT_TRUE(bounded) << "worker never brought tombstone ratios down";
  EXPECT_GT(server.state_version(), 0u);
  EXPECT_EQ(service.size(), n - deleted.size());

  // Deleted ids never resurface after however many background sweeps ran.
  QueryClient client(owner.ShareKeys(), 173);
  auto r = service.Search(client.EncryptQuery(ds.queries.row(0)),
                          20, SearchSettings{.k_prime = 80});
  ASSERT_TRUE(r.ok());
  for (VectorId id : r->ids) EXPECT_EQ(deleted.count(id), 0u);
}

}  // namespace
}  // namespace ppanns
