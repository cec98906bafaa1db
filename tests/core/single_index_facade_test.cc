// The single-index topology behind the facade: a single-index ("PPDB")
// package is served as a 1x1 ShardedCloudServer with global id = local id.
// The paper-faithful CloudServer is the reference: for every backend, with
// the int8 filter tier on and off, every facade search path must return
// CloudServer::Search's ids, before and after an insert/delete churn applied
// to both. A PPDB-loaded service also checkpoints to the sharded envelope
// and recovers from checkpoint + WAL with identical ids.

#include <cstring>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"

namespace ppanns {
namespace {

constexpr std::size_t kDim = 16;
constexpr std::size_t kN = 300;

PpannsParams Params(IndexKind kind, bool sq8, std::uint64_t seed) {
  PpannsParams params;
  params.dcpe_beta = 1.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = kind;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = seed};
  params.ivf = IvfParams{.num_lists = 8, .train_iters = 5, .seed = seed};
  // Train the quantizer well inside the corpus so the int8 scan serves.
  params.sq = SqParams{.enabled = sq8, .train_min = 64};
  params.seed = seed;
  return params;
}

DataOwner MakeOwner(const PpannsParams& params) {
  auto owner = DataOwner::Create(kDim, params);
  PPANNS_CHECK(owner.ok());
  return std::move(*owner);
}

/// What the facade and the reference are built from: one owner, its
/// serialized single-index package, a query stream and churn payloads.
struct Fixture {
  explicit Fixture(const PpannsParams& params)
      : ds(MakeDataset(SyntheticKind::kGloveLike, kN, 12, 0, params.seed,
                       kDim)),
        owner(MakeOwner(params)) {
    BinaryWriter w;
    owner.EncryptAndIndex(ds.base).Serialize(&w);
    ppdb = w.TakeBuffer();
    QueryClient client(owner.ShareKeys(), params.seed + 1);
    for (std::size_t i = 0; i < ds.queries.size(); ++i) {
      tokens.push_back(client.EncryptQuery(ds.queries.row(i)));
    }
  }

  CloudServer Reference() const {
    BinaryReader r(ppdb);
    auto db = EncryptedDatabase::Deserialize(&r);
    PPANNS_CHECK(db.ok());
    return CloudServer(std::move(*db));
  }

  Dataset ds;
  DataOwner owner;
  std::vector<std::uint8_t> ppdb;
  std::vector<QueryToken> tokens;
};

PpannsService LoadService(const std::vector<std::uint8_t>& bytes) {
  BinaryReader r(bytes);
  auto db = ShardedEncryptedDatabase::Deserialize(&r);
  PPANNS_CHECK(db.ok());
  return PpannsService{ShardedCloudServer(std::move(*db))};
}

/// Every facade search path against CloudServer::Search, refine on and off.
void ExpectMatchesReference(const PpannsService& service,
                            const CloudServer& reference,
                            const std::vector<QueryToken>& tokens,
                            const char* phase) {
  const std::size_t k = 10;
  const AsyncOptions hedged{.hedge_ms = 5.0};
  for (const bool refine : {true, false}) {
    const SearchSettings settings{.refine = refine};
    auto plain = service.SearchBatch(tokens, k, settings);
    auto hedged_batch = service.SearchBatch(tokens, k, settings, hedged);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(hedged_batch.ok()) << hedged_batch.status().ToString();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << phase << ", refine " << refine
                                        << ", query " << i);
      const std::vector<VectorId> want =
          reference.Search(tokens[i], k, settings).ids;
      auto sync = service.Search(tokens[i], k, settings);
      ASSERT_TRUE(sync.ok()) << sync.status().ToString();
      EXPECT_EQ(sync->ids, want) << "Search";
      EXPECT_FALSE(sync->partial);
      auto async = service.SearchAsync(tokens[i], k, settings, hedged);
      ASSERT_TRUE(async.ok()) << async.status().ToString();
      EXPECT_EQ(async->ids, want) << "SearchAsync";
      EXPECT_EQ(plain->results[i].ids, want) << "SearchBatch";
      EXPECT_EQ(hedged_batch->results[i].ids, want) << "hedged SearchBatch";
    }
  }
}

class SingleIndexFacadeTest
    : public ::testing::TestWithParam<std::tuple<IndexKind, bool>> {};

TEST_P(SingleIndexFacadeTest, EveryPathMatchesCloudServerAcrossChurn) {
  const auto [kind, sq8] = GetParam();
  Fixture fx(Params(kind, sq8, /*seed=*/61));
  CloudServer reference = fx.Reference();
  // Both wrap points: the CloudServer conversion and the PPDB load.
  PpannsService converted{fx.Reference()};
  PpannsService loaded = LoadService(fx.ppdb);
  ASSERT_EQ(loaded.num_shards(), 1u);
  ASSERT_EQ(loaded.num_replicas(), 1u);
  ASSERT_EQ(loaded.size(), kN);
  ASSERT_EQ(loaded.index_kind(), kind);
  // The identity manifest is the only storage the 1x1 server adds.
  EXPECT_EQ(loaded.StorageBytes(),
            reference.StorageBytes() + kN * sizeof(ShardRef));

  ExpectMatchesReference(converted, reference, fx.tokens, "before churn");
  ExpectMatchesReference(loaded, reference, fx.tokens, "before churn");

  // Churn: the same deletes and inserts on all three. Ids and status codes
  // must agree, including a double delete and a never-assigned id.
  for (VectorId id : {3u, 17u, 42u, 99u, 150u, 151u, 299u}) {
    const Status want = reference.Delete(id);
    ASSERT_TRUE(want.ok()) << want.ToString();
    EXPECT_TRUE(converted.Delete(id).ok());
    EXPECT_TRUE(loaded.Delete(id).ok());
  }
  for (VectorId id : {17u, static_cast<VectorId>(10 * kN)}) {
    const Status::Code want = reference.Delete(id).code();
    EXPECT_EQ(converted.Delete(id).code(), want) << "id " << id;
    EXPECT_EQ(loaded.Delete(id).code(), want) << "id " << id;
  }
  for (std::size_t i = 0; i < 40; ++i) {
    const EncryptedVector ev =
        fx.owner.EncryptOne(fx.ds.queries.row(i % fx.ds.queries.size()));
    const VectorId want = reference.Insert(ev);
    auto a = converted.Insert(ev);
    auto b = loaded.Insert(ev);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, want);
    EXPECT_EQ(*b, want);
  }
  ASSERT_EQ(loaded.size(), reference.size());

  ExpectMatchesReference(converted, reference, fx.tokens, "after churn");
  ExpectMatchesReference(loaded, reference, fx.tokens, "after churn");
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<IndexKind, bool>>& info) {
  return std::string(IndexKindName(std::get<0>(info.param))) +
         (std::get<1>(info.param) ? "_sq8" : "_float");
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SingleIndexFacadeTest,
    ::testing::Combine(::testing::Values(IndexKind::kBruteForce,
                                         IndexKind::kHnsw, IndexKind::kIvf,
                                         IndexKind::kLsh),
                       ::testing::Bool()),
    ParamName);

// A PPDB-loaded service checkpoints as the 1x1 sharded envelope; the
// checkpoint reloads through ShardedEncryptedDatabase::Deserialize, replays
// the log written after it, and serves the crashed process's ids.
TEST(SingleIndexDurabilityTest, CheckpointReloadAndReplayServeIdenticalIds) {
  Fixture fx(Params(IndexKind::kHnsw, /*sq8=*/false, /*seed=*/67));
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "ppanns_single_index_ckpt";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string wal_dir = (root / "wal").string();
  const std::string snapshot = (root / "db.ppanns").string();

  PpannsService origin = LoadService(fx.ppdb);
  ASSERT_TRUE(origin.AttachWal(wal_dir).ok());
  ASSERT_TRUE(origin.Delete(5).ok());
  ASSERT_TRUE(origin.Insert(fx.owner.EncryptOne(fx.ds.queries.row(0))).ok());
  ASSERT_TRUE(origin.Checkpoint(snapshot).ok());
  // Logged after the checkpoint: only the WAL carries these.
  ASSERT_TRUE(origin.Delete(8).ok());
  ASSERT_EQ(origin.Delete(5).code(), Status::Code::kNotFound);
  for (std::size_t i = 1; i < 6; ++i) {
    ASSERT_TRUE(origin.Insert(fx.owner.EncryptOne(fx.ds.queries.row(i))).ok());
  }

  auto bytes = ReadFile(snapshot);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::uint32_t magic = 0, version = 0;
  std::memcpy(&magic, bytes->data(), sizeof(magic));
  std::memcpy(&version, bytes->data() + sizeof(magic), sizeof(version));
  EXPECT_EQ(magic, 0x50505348u);  // "PPSH"
  EXPECT_EQ(version, 1u);

  PpannsService revived = LoadService(*bytes);
  auto applied = revived.ReplayWal(wal_dir);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 7u);
  ASSERT_EQ(revived.size(), origin.size());
  for (const QueryToken& token : fx.tokens) {
    auto a = origin.Search(token, 10);
    auto b = revived.Search(token, 10);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(b->ids, a->ids);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace ppanns
