// The sharded engine: scatter-gather equivalence against the unsharded
// server at equal total candidate budget, parallel-build determinism,
// manifest-routed maintenance, envelope round-trips (including after
// mutations and with empty shards), and rejection of inconsistent manifests.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/sharded_cloud_server.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"

namespace ppanns {
namespace {

constexpr std::size_t kDim = 16;

PpannsParams BaseParams(IndexKind kind, std::uint32_t num_shards,
                        std::uint64_t seed) {
  PpannsParams params;
  params.dcpe_beta = 1.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = kind;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = seed};
  params.ivf = IvfParams{.num_lists = 8, .train_iters = 5, .seed = seed};
  params.num_shards = num_shards;
  params.seed = seed;
  return params;
}

DataOwner MakeOwner(const PpannsParams& params) {
  auto owner = DataOwner::Create(kDim, params);
  PPANNS_CHECK(owner.ok());
  return std::move(*owner);
}

Dataset MakeData(std::size_t n, std::size_t nq, std::uint64_t seed,
                 std::size_t gt_k = 0) {
  return MakeDataset(SyntheticKind::kGloveLike, n, nq, gt_k, seed, kDim);
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

class ShardedEquivalenceTest : public ::testing::TestWithParam<std::uint32_t> {};

// The acceptance bar: with the exact (brute-force) filter backend, the
// scatter-gather server returns the *identical* result ids as the unsharded
// server for every query at the same total candidate budget — so recall@k is
// equal by construction, for any shard count. The flat baseline is built
// with EncryptAndIndexParallel, whose SAP stream the sharded build matches
// row for row (EncryptAndIndex interleaves rng draws differently, which
// would make the comparison merely statistical).
TEST_P(ShardedEquivalenceTest, BruteShardingMatchesUnshardedExactly) {
  const std::uint32_t num_shards = GetParam();
  const std::size_t n = 600, nq = 24, k = 10;
  const Dataset ds = MakeData(n, nq, /*seed=*/11, /*gt_k=*/k);

  DataOwner flat_owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 1, 11));
  DataOwner shard_owner =
      MakeOwner(BaseParams(IndexKind::kBruteForce, num_shards, 11));
  PpannsService flat{CloudServer(flat_owner.EncryptAndIndexParallel(ds.base))};
  PpannsService sharded{
      ShardedCloudServer(shard_owner.EncryptAndIndexSharded(ds.base))};

  ASSERT_EQ(sharded.num_shards(), num_shards);
  ASSERT_EQ(sharded.size(), n);
  ASSERT_EQ(sharded.dim(), kDim);
  ASSERT_EQ(sharded.index_kind(), IndexKind::kBruteForce);

  // The construction guarantee the exact-id equivalence rests on: both
  // builds produced bit-identical SAP ciphertexts for every row.
  const FloatMatrix& flat_sap = flat.sharded_server().shard(0).index().data();
  for (VectorId g = 0; g < n; ++g) {
    const ShardRef& ref = sharded.sharded_server().manifest().at(g);
    const FloatMatrix& shard_sap =
        sharded.sharded_server().shard(ref.shard).index().data();
    for (std::size_t j = 0; j < kDim; ++j) {
      ASSERT_EQ(shard_sap.at(ref.local, j), flat_sap.at(g, j))
          << "SAP diverged at row " << g << " coord " << j;
    }
  }

  const std::vector<QueryToken> tokens = MakeTokens(flat_owner, ds, 29);
  const SearchSettings settings{.k_prime = 4 * k};

  std::vector<std::vector<VectorId>> flat_ids, sharded_ids;
  for (const QueryToken& token : tokens) {
    auto f = flat.Search(token, k, settings);
    auto s = sharded.Search(token, k, settings);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_EQ(s->ids, f->ids);
    // Equal total candidate budget: the merged list feeding the DCE refine
    // has the same length as the unsharded filter output.
    EXPECT_EQ(s->counters.filter_candidates, f->counters.filter_candidates);
    flat_ids.push_back(f->ids);
    sharded_ids.push_back(s->ids);
  }
  EXPECT_DOUBLE_EQ(MeanRecallAtK(sharded_ids, ds.ground_truth, k),
                   MeanRecallAtK(flat_ids, ds.ground_truth, k));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedEquivalenceTest,
                         ::testing::Values(2u, 4u, 8u));

// Approximate backends build different per-shard graphs, so ids may differ,
// but scatter-gather must not cost accuracy: each shard answers the full
// k'-ANNS, so the merged candidates are at least as good as one graph's.
TEST(ShardedSearchTest, HnswShardingHoldsRecall) {
  const std::size_t n = 800, nq = 32, k = 10;
  const Dataset ds = MakeData(n, nq, /*seed=*/13, /*gt_k=*/k);

  DataOwner flat_owner = MakeOwner(BaseParams(IndexKind::kHnsw, 1, 13));
  DataOwner shard_owner = MakeOwner(BaseParams(IndexKind::kHnsw, 4, 13));
  PpannsService flat{CloudServer(flat_owner.EncryptAndIndexParallel(ds.base))};
  PpannsService sharded{
      ShardedCloudServer(shard_owner.EncryptAndIndexSharded(ds.base))};

  const std::vector<QueryToken> tokens = MakeTokens(flat_owner, ds, 31);
  const SearchSettings settings{.k_prime = 4 * k, .ef_search = 80};

  std::vector<std::vector<VectorId>> flat_ids, sharded_ids;
  for (const QueryToken& token : tokens) {
    auto f = flat.Search(token, k, settings);
    auto s = sharded.Search(token, k, settings);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(s.ok());
    flat_ids.push_back(f->ids);
    sharded_ids.push_back(s->ids);
  }
  const double flat_recall = MeanRecallAtK(flat_ids, ds.ground_truth, k);
  const double sharded_recall = MeanRecallAtK(sharded_ids, ds.ground_truth, k);
  EXPECT_GE(sharded_recall, flat_recall - 0.02)
      << "flat=" << flat_recall << " sharded=" << sharded_recall;
}

// SearchBatch over the sharded topology must equal a sequential Search loop
// (the nested fan-out runs the per-query scatter inline).
TEST(ShardedSearchTest, BatchMatchesSequentialSearch) {
  const std::size_t n = 500, nq = 40, k = 8;
  const Dataset ds = MakeData(n, nq, /*seed=*/17);

  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 3, 17));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};
  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 37);
  const SearchSettings settings{.k_prime = 32};

  std::vector<SearchResult> sequential;
  for (const QueryToken& token : tokens) {
    auto r = service.Search(token, k, settings);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    sequential.push_back(std::move(*r));
  }
  auto batch = service.SearchBatch(tokens, k, settings);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), nq);
  std::size_t want_comparisons = 0;
  for (std::size_t i = 0; i < nq; ++i) {
    EXPECT_EQ(batch->results[i].ids, sequential[i].ids) << "query " << i;
    want_comparisons += sequential[i].counters.dce_comparisons;
  }
  EXPECT_EQ(batch->counters.num_queries, nq);
  EXPECT_EQ(batch->counters.total.dce_comparisons, want_comparisons);
}

// The parallel per-shard build must be deterministic: same seed, data and
// shard count => byte-identical package, regardless of thread scheduling.
TEST(ShardedBuildTest, ParallelBuildIsDeterministic) {
  const Dataset ds = MakeData(300, 0, /*seed=*/19);
  DataOwner owner_a = MakeOwner(BaseParams(IndexKind::kHnsw, 4, 19));
  DataOwner owner_b = MakeOwner(BaseParams(IndexKind::kHnsw, 4, 19));

  BinaryWriter wa, wb;
  owner_a.EncryptAndIndexSharded(ds.base).Serialize(&wa);
  owner_b.EncryptAndIndexSharded(ds.base).Serialize(&wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(ShardedMaintenanceTest, InsertRoutesToLeastLoadedShard) {
  const std::size_t n = 90;  // 30 per shard
  const Dataset ds = MakeData(n, 8, /*seed=*/23);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 3, 23));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};

  // Unbalance shard 0 by deleting from it: global ids 0, 3, 6 live on shard
  // 0 under round-robin.
  ASSERT_TRUE(service.Delete(0).ok());
  ASSERT_TRUE(service.Delete(3).ok());

  // The next inserts must fill the lightest shard first.
  for (std::size_t i = 0; i < 2; ++i) {
    auto id = service.Insert(owner.EncryptOne(ds.queries.row(i)));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, n + i);  // global ids stay dense across shards
    EXPECT_EQ(service.sharded_server().manifest().at(*id).shard, 0u);
  }
  // Now balanced again: 30/30/30.
  const ShardedCloudServer& server = service.sharded_server();
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    EXPECT_EQ(server.shard(s).size(), 30u);
  }

  // An inserted vector is findable through scatter-gather; its own query is
  // its nearest neighbor under exact refinement.
  QueryClient client(owner.ShareKeys(), 41);
  auto r = service.Search(client.EncryptQuery(ds.queries.row(0)), 1,
                          SearchSettings{.k_prime = 30});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->ids.size(), 1u);
  EXPECT_EQ(r->ids[0], n + 0);
}

TEST(ShardedMaintenanceTest, DeleteResolvesThroughManifest) {
  const Dataset ds = MakeData(60, 4, /*seed=*/29);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 29));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};

  ASSERT_TRUE(service.Delete(17).ok());
  EXPECT_EQ(service.Delete(17).code(), Status::Code::kNotFound);  // tombstoned
  EXPECT_EQ(service.Delete(1000).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(service.size(), 59u);

  // A deleted global id never resurfaces, even with an exhaustive budget.
  QueryClient client(owner.ShareKeys(), 43);
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    auto r = service.Search(client.EncryptQuery(ds.queries.row(i)), 59,
                            SearchSettings{.k_prime = 100});
    ASSERT_TRUE(r.ok());
    for (VectorId id : r->ids) EXPECT_NE(id, 17u);
  }
}

TEST(ShardedSerializationTest, RoundTripAfterMutationsPreservesResults) {
  const std::size_t n = 200, nq = 10, k = 5;
  const Dataset ds = MakeData(n, nq, /*seed=*/31);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 3, 31));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};

  // Mutate: deletes across shards, then inserts (which route by load).
  for (VectorId id : {5u, 6u, 7u, 100u}) ASSERT_TRUE(service.Delete(id).ok());
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Insert(owner.EncryptOne(ds.queries.row(i))).ok());
  }

  BinaryWriter w;
  service.SerializeDatabase(&w);
  BinaryReader r(w.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PpannsService reloaded{ShardedCloudServer(std::move(*loaded))};

  EXPECT_EQ(reloaded.size(), service.size());
  EXPECT_EQ(reloaded.num_shards(), service.num_shards());

  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 47);
  const SearchSettings settings{.k_prime = 25};
  for (const QueryToken& token : tokens) {
    auto before = service.Search(token, k, settings);
    auto after = reloaded.Search(token, k, settings);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->ids, before->ids);
  }

  // The reloaded snapshot reserializes to the identical bytes.
  BinaryWriter w2;
  reloaded.SerializeDatabase(&w2);
  EXPECT_EQ(w2.buffer(), w.buffer());
}

TEST(ShardedSerializationTest, EmptyShardsRoundTripAndServe) {
  // 3 vectors over 8 shards: five shards stay empty at build time.
  const Dataset ds = MakeData(3, 2, /*seed=*/37);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 8, 37));
  ShardedEncryptedDatabase db = owner.EncryptAndIndexSharded(ds.base);
  ASSERT_EQ(db.num_shards(), 8u);
  ASSERT_EQ(db.manifest.size(), 3u);

  BinaryWriter w;
  db.Serialize(&w);
  BinaryReader r(w.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  PpannsService service{ShardedCloudServer(std::move(*loaded))};
  EXPECT_EQ(service.size(), 3u);
  QueryClient client(owner.ShareKeys(), 53);
  auto result = service.Search(client.EncryptQuery(ds.queries.row(0)), 3,
                               SearchSettings{.k_prime = 8});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ids.size(), 3u);

  // Inserts land on the empty shards first.
  auto id = service.Insert(owner.EncryptOne(ds.queries.row(1)));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(service.sharded_server().manifest().at(*id).shard, 3u);
}

class ManifestRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset ds = MakeData(40, 0, /*seed=*/41);
    DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 41));
    db_ = owner.EncryptAndIndexSharded(ds.base);
  }

  Status DeserializeStatus() {
    BinaryWriter w;
    db_.Serialize(&w);
    BinaryReader r(w.buffer());
    auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
    return loaded.status();
  }

  ShardedEncryptedDatabase db_;
};

TEST_F(ManifestRejectionTest, ValidManifestLoads) {
  EXPECT_TRUE(DeserializeStatus().ok()) << DeserializeStatus().ToString();
}

TEST_F(ManifestRejectionTest, RejectsOverlappingEntries) {
  // Two global ids claiming one (shard, local) slot.
  db_.manifest.entries[1] = db_.manifest.entries[0];
  EXPECT_EQ(DeserializeStatus().code(), Status::Code::kIOError);
}

TEST_F(ManifestRejectionTest, RejectsShardBeyondEnvelope) {
  db_.manifest.entries[2].shard = 4;  // envelope has shards 0..3
  EXPECT_EQ(DeserializeStatus().code(), Status::Code::kIOError);
}

TEST_F(ManifestRejectionTest, RejectsLocalIdBeyondShardCapacity) {
  db_.manifest.entries[3].local = 10;  // each shard holds 10 (locals 0..9)
  EXPECT_EQ(DeserializeStatus().code(), Status::Code::kIOError);
}

TEST_F(ManifestRejectionTest, RejectsCoverageMismatch) {
  db_.manifest.entries.pop_back();  // 39 entries cannot cover 40 vectors
  EXPECT_EQ(DeserializeStatus().code(), Status::Code::kIOError);
}

TEST_F(ManifestRejectionTest, RejectsTruncatedEnvelope) {
  BinaryWriter w;
  db_.Serialize(&w);
  std::vector<std::uint8_t> bytes = w.TakeBuffer();
  bytes.resize(bytes.size() / 2);
  BinaryReader r(bytes);
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  EXPECT_FALSE(loaded.ok());
}

TEST(ShardedParamsTest, ZeroShardsIsRejected) {
  PpannsParams params = BaseParams(IndexKind::kHnsw, 0, 43);
  auto owner = DataOwner::Create(kDim, params);
  EXPECT_EQ(owner.status().code(), Status::Code::kInvalidArgument);
}

TEST(ShardedParamsTest, FromKeysValidatesDimension) {
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 2, 47));
  auto bad = DataOwner::FromKeys(owner.ShareKeys(), kDim + 2,
                                 BaseParams(IndexKind::kHnsw, 2, 47));
  EXPECT_EQ(bad.status().code(), Status::Code::kInvalidArgument);

  auto good = DataOwner::FromKeys(owner.ShareKeys(), kDim,
                                  BaseParams(IndexKind::kHnsw, 2, 47));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  // A FromKeys owner encrypts under the shared bundle: a vector it encrypts
  // is accepted by a database built by the original owner.
  const Dataset ds = MakeData(30, 1, /*seed=*/47);
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};
  EXPECT_TRUE(service.Insert(good->EncryptOne(ds.queries.row(0))).ok());
}

}  // namespace
}  // namespace ppanns
