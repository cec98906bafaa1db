// Edge-case and failure-injection tests across the core scheme: degenerate
// databases, boundary parameters, corrupted packages, and churn extremes.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/cloud_server.h"
#include "core/data_owner.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"

namespace ppanns {
namespace {

PpannsParams SmallParams(std::uint64_t seed) {
  PpannsParams params;
  params.dcpe_beta = 0.5;
  params.dce_scale_hint = 2.0;
  params.hnsw = HnswParams{.m = 6, .ef_construction = 40, .seed = seed};
  params.seed = seed;
  return params;
}

TEST(EdgeCaseTest, EmptyDatabase) {
  auto owner = DataOwner::Create(8, SmallParams(1));
  ASSERT_TRUE(owner.ok());
  FloatMatrix empty(0, 8);
  CloudServer server(owner->EncryptAndIndex(empty));
  QueryClient client(owner->ShareKeys(), 2);

  const float q[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  QueryToken token = client.EncryptQuery(q);
  SearchResult r = server.Search(token, 10);
  EXPECT_TRUE(r.ids.empty());
  EXPECT_EQ(server.size(), 0u);
}

TEST(EdgeCaseTest, SingleVectorDatabase) {
  auto owner = DataOwner::Create(4, SmallParams(3));
  ASSERT_TRUE(owner.ok());
  FloatMatrix db(1, 4);
  db.at(0, 0) = 1.0f;
  CloudServer server(owner->EncryptAndIndex(db));
  QueryClient client(owner->ShareKeys(), 4);

  const float q[4] = {0, 0, 0, 0};
  QueryToken token = client.EncryptQuery(q);
  SearchResult r = server.Search(token, 5);
  ASSERT_EQ(r.ids.size(), 1u);
  EXPECT_EQ(r.ids[0], 0u);
}

TEST(EdgeCaseTest, OneDimensionalVectors) {
  auto owner = DataOwner::Create(1, SmallParams(5));
  ASSERT_TRUE(owner.ok());
  FloatMatrix db(20, 1);
  for (std::size_t i = 0; i < 20; ++i) {
    db.at(i, 0) = static_cast<float>(i);
  }
  CloudServer server(owner->EncryptAndIndex(db));
  QueryClient client(owner->ShareKeys(), 6);

  const float q[1] = {7.3f};
  QueryToken token = client.EncryptQuery(q);
  SearchResult r = server.Search(
      token, 3, SearchSettings{.k_prime = 20, .ef_search = 20});
  ASSERT_EQ(r.ids.size(), 3u);
  EXPECT_EQ(r.ids[0], 7u);  // 7.0 closest to 7.3, then 8, then 6
  EXPECT_EQ(r.ids[1], 8u);
  EXPECT_EQ(r.ids[2], 6u);
}

TEST(EdgeCaseTest, DuplicateVectorsRefinedConsistently) {
  // Many identical vectors: ties everywhere in the refine; result must
  // still be k distinct ids, all of zero distance.
  auto owner = DataOwner::Create(4, SmallParams(7));
  ASSERT_TRUE(owner.ok());
  FloatMatrix db(30, 4);
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = 0; j < 4; ++j) db.at(i, j) = 1.0f;
  }
  CloudServer server(owner->EncryptAndIndex(db));
  QueryClient client(owner->ShareKeys(), 8);
  const float q[4] = {1, 1, 1, 1};
  QueryToken token = client.EncryptQuery(q);
  SearchResult r = server.Search(
      token, 10, SearchSettings{.k_prime = 30, .ef_search = 40});
  ASSERT_EQ(r.ids.size(), 10u);
  std::sort(r.ids.begin(), r.ids.end());
  EXPECT_EQ(std::unique(r.ids.begin(), r.ids.end()), r.ids.end());
}

TEST(EdgeCaseTest, KPrimeSmallerThanKClamped) {
  auto owner = DataOwner::Create(6, SmallParams(9));
  ASSERT_TRUE(owner.ok());
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, 100, 1, 0, 10, 6);
  CloudServer server(owner->EncryptAndIndex(ds.base));
  QueryClient client(owner->ShareKeys(), 11);
  QueryToken token = client.EncryptQuery(ds.queries.row(0));
  // k'=1 < k=10: must clamp to k'=k and return k results.
  SearchResult r =
      server.Search(token, 10, SearchSettings{.k_prime = 1, .ef_search = 50});
  EXPECT_EQ(r.ids.size(), 10u);
}

TEST(EdgeCaseTest, DeleteEverythingThenSearchAndReinsert) {
  auto owner = DataOwner::Create(4, SmallParams(12));
  ASSERT_TRUE(owner.ok());
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, 12, 1, 0, 13, 4);
  CloudServer server(owner->EncryptAndIndex(ds.base));
  QueryClient client(owner->ShareKeys(), 14);

  for (VectorId id = 0; id < 12; ++id) {
    ASSERT_TRUE(server.Delete(id).ok()) << "id " << id;
  }
  EXPECT_EQ(server.size(), 0u);
  QueryToken token = client.EncryptQuery(ds.queries.row(0));
  EXPECT_TRUE(server.Search(token, 5).ids.empty());

  // The index must accept new vectors after total erasure.
  EncryptedVector ev = owner->EncryptOne(ds.queries.row(0));
  const VectorId id = server.Insert(ev);
  QueryToken token2 = client.EncryptQuery(ds.queries.row(0));
  SearchResult r = server.Search(token2, 1);
  ASSERT_EQ(r.ids.size(), 1u);
  EXPECT_EQ(r.ids[0], id);
}

TEST(EdgeCaseTest, DoubleDeleteRejected) {
  auto owner = DataOwner::Create(4, SmallParams(15));
  ASSERT_TRUE(owner.ok());
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, 10, 1, 0, 16, 4);
  CloudServer server(owner->EncryptAndIndex(ds.base));
  ASSERT_TRUE(server.Delete(3).ok());
  EXPECT_EQ(server.Delete(3).code(), Status::Code::kNotFound);
  EXPECT_EQ(server.Delete(99).code(), Status::Code::kInvalidArgument);
}

TEST(EdgeCaseTest, CorruptedPackageFuzz) {
  // Deserialize must fail cleanly (no crash, no OOM) on corrupted bytes.
  auto owner = DataOwner::Create(6, SmallParams(17));
  ASSERT_TRUE(owner.ok());
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, 40, 1, 0, 18, 6);
  EncryptedDatabase db = owner->EncryptAndIndex(ds.base);
  BinaryWriter w;
  db.Serialize(&w);
  const auto& buf = w.buffer();

  // Truncations.
  for (std::size_t frac = 1; frac < 10; ++frac) {
    BinaryReader r(buf.data(), buf.size() * frac / 10);
    auto out = EncryptedDatabase::Deserialize(&r);
    EXPECT_FALSE(out.ok()) << "truncation at " << frac << "/10";
  }
  // Byte flips in the header region.
  for (std::size_t pos : {0u, 4u, 9u, 16u, 33u}) {
    std::vector<std::uint8_t> bad = buf;
    bad[pos] ^= 0xA5;
    BinaryReader r(bad);
    auto out = EncryptedDatabase::Deserialize(&r);  // must not crash
    (void)out;
  }
  SUCCEED();
}

TEST(EdgeCaseTest, HostileCiphertextCountIsIOError) {
  // The ciphertext count follows the index in the package. Patched to 2^40
  // it must fail the load with a Status before it sizes any allocation.
  PpannsParams params = SmallParams(23);
  params.index_kind = IndexKind::kBruteForce;
  auto owner = DataOwner::Create(6, params);
  ASSERT_TRUE(owner.ok());
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, 20, 1, 0, 24, 6);
  EncryptedDatabase db = owner->EncryptAndIndex(ds.base);
  BinaryWriter w;
  db.Serialize(&w);
  BinaryWriter index_bytes;
  db.index->Serialize(&index_bytes);
  const std::size_t count_at =
      2 * sizeof(std::uint32_t) + index_bytes.buffer().size();

  std::vector<std::uint8_t> bad = w.buffer();
  std::uint64_t count = 0;
  std::memcpy(&count, bad.data() + count_at, sizeof(count));
  ASSERT_EQ(count, 20u);
  count = std::uint64_t{1} << 40;
  std::memcpy(bad.data() + count_at, &count, sizeof(count));
  BinaryReader r(bad);
  auto out = EncryptedDatabase::Deserialize(&r);
  EXPECT_EQ(out.status().code(), Status::Code::kIOError)
      << out.status().ToString();
}

TEST(EdgeCaseTest, MismatchedDimensionsCaught) {
  EXPECT_FALSE(DataOwner::Create(0, SmallParams(19)).ok());
  PpannsParams bad = SmallParams(20);
  bad.dcpe_s = -1.0;
  EXPECT_FALSE(DataOwner::Create(8, bad).ok());
}

TEST(EdgeCaseTest, HugeKRelativeToDatabase) {
  auto owner = DataOwner::Create(4, SmallParams(21));
  ASSERT_TRUE(owner.ok());
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, 15, 1, 0, 22, 4);
  CloudServer server(owner->EncryptAndIndex(ds.base));
  QueryClient client(owner->ShareKeys(), 23);
  QueryToken token = client.EncryptQuery(ds.queries.row(0));
  SearchResult r = server.Search(
      token, 100, SearchSettings{.k_prime = 100, .ef_search = 100});
  EXPECT_EQ(r.ids.size(), 15u);  // everything, exactly once
  std::sort(r.ids.begin(), r.ids.end());
  EXPECT_EQ(std::unique(r.ids.begin(), r.ids.end()), r.ids.end());
}

TEST(EdgeCaseTest, ExtremeCoordinatesSurviveEncryption) {
  // Large-magnitude coordinates: sign decisions must stay exact.
  auto params = SmallParams(24);
  params.dce_scale_hint = 1e4;
  auto owner = DataOwner::Create(4, params);
  ASSERT_TRUE(owner.ok());
  FloatMatrix db(8, 4);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      db.at(i, j) = (i % 2 == 0 ? 1.0f : -1.0f) * 1e4f + i * 10.0f + j;
    }
  }
  CloudServer server(owner->EncryptAndIndex(db));
  QueryClient client(owner->ShareKeys(), 25);
  QueryToken token = client.EncryptQuery(db.row(5));
  SearchResult r = server.Search(
      token, 1, SearchSettings{.k_prime = 8, .ef_search = 16});
  ASSERT_EQ(r.ids.size(), 1u);
  EXPECT_EQ(r.ids[0], 5u);
}

}  // namespace
}  // namespace ppanns
