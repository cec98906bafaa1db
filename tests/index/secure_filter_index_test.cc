// Contract tests for the SecureFilterIndex abstraction: every backend obeys
// dense stable ids, tombstone removal, deterministic serialization round
// trips, and the factory/envelope dispatch.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/secure_filter_index.h"

namespace ppanns {
namespace {

constexpr IndexKind kAllKinds[] = {IndexKind::kHnsw, IndexKind::kIvf,
                                   IndexKind::kLsh, IndexKind::kBruteForce};

FloatMatrix RandomData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  FloatMatrix m(n, d);
  for (auto& v : m.data()) v = static_cast<float>(rng.Uniform(-1, 1));
  return m;
}

// The single-index delete: plan the removal, then apply the edit.
Status PlanAndApply(SecureFilterIndex& index, VectorId id) {
  Result<RemoveEdit> edit = index.PlanRemove(id);
  if (!edit.ok()) return edit.status();
  index.ApplyRemove(*edit);
  return Status::OK();
}

SecureFilterIndexOptions SmallOptions() {
  SecureFilterIndexOptions options;
  options.hnsw = HnswParams{.m = 8, .ef_construction = 60, .seed = 7};
  options.ivf = IvfParams{.num_lists = 4, .train_iters = 5, .seed = 7,
                          .auto_train_min = 32};
  options.lsh = LshParams{.num_tables = 8, .num_hashes = 4,
                          .bucket_width = 4.0, .seed = 7};
  return options;
}

class FilterIndexContractTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(FilterIndexContractTest, DenseIdsAndBasicAccounting) {
  auto index = MakeSecureFilterIndex(GetParam(), 8, SmallOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->kind(), GetParam());
  EXPECT_EQ((*index)->dim(), 8u);
  EXPECT_EQ((*index)->size(), 0u);

  FloatMatrix data = RandomData(100, 8, 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ((*index)->Add(data.row(i)), static_cast<VectorId>(i));
  }
  EXPECT_EQ((*index)->size(), 100u);
  EXPECT_EQ((*index)->capacity(), 100u);
  EXPECT_GT((*index)->StorageBytes(), 100u * 8 * sizeof(float) - 1);

  // Removal keeps the slot: size drops, capacity and later ids do not shift.
  ASSERT_TRUE(PlanAndApply(**index, 10).ok());
  EXPECT_TRUE((*index)->IsDeleted(10));
  EXPECT_EQ((*index)->size(), 99u);
  EXPECT_EQ((*index)->capacity(), 100u);
  EXPECT_EQ((*index)->Add(data.row(0)), 100u);
}

TEST_P(FilterIndexContractTest, SearchReturnsSortedLiveIds) {
  auto index = MakeSecureFilterIndex(GetParam(), 8, SmallOptions());
  ASSERT_TRUE(index.ok());
  FloatMatrix data = RandomData(200, 8, 2);
  (*index)->AddBatch(data);
  for (VectorId id = 0; id < 50; ++id) {
    ASSERT_TRUE(PlanAndApply(**index, id).ok());
  }

  for (std::size_t qi = 0; qi < 10; ++qi) {
    const auto results = (*index)->Search(data.row(100 + qi), 10, 0);
    ASSERT_FALSE(results.empty()) << IndexKindName(GetParam());
    std::set<VectorId> seen;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_LT(results[i].id, 200u);
      EXPECT_GE(results[i].id, 50u) << "removed id returned";
      EXPECT_TRUE(seen.insert(results[i].id).second) << "duplicate id";
      if (i > 0) EXPECT_LE(results[i - 1].distance, results[i].distance);
    }
  }
}

TEST_P(FilterIndexContractTest, SerializationRoundTripsExactly) {
  auto index = MakeSecureFilterIndex(GetParam(), 8, SmallOptions());
  ASSERT_TRUE(index.ok());
  FloatMatrix data = RandomData(150, 8, 3);
  (*index)->AddBatch(data);
  ASSERT_TRUE(PlanAndApply(**index, 3).ok());
  ASSERT_TRUE(PlanAndApply(**index, 77).ok());

  BinaryWriter w;
  (*index)->Serialize(&w);
  BinaryReader r(w.buffer());
  auto loaded = DeserializeSecureFilterIndex(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ((*loaded)->kind(), GetParam());
  EXPECT_EQ((*loaded)->dim(), 8u);
  EXPECT_EQ((*loaded)->size(), 148u);
  EXPECT_EQ((*loaded)->capacity(), 150u);
  EXPECT_TRUE((*loaded)->IsDeleted(3));
  EXPECT_TRUE((*loaded)->IsDeleted(77));

  // Identical structure => identical results, id for id.
  for (std::size_t qi = 0; qi < 20; ++qi) {
    const auto want = (*index)->Search(data.row(qi), 10, 0);
    const auto got = (*loaded)->Search(data.row(qi), 10, 0);
    ASSERT_EQ(got.size(), want.size()) << IndexKindName(GetParam());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "query " << qi;
    }
  }

  // Both copies accept further mutations identically.
  EXPECT_EQ((*loaded)->Add(data.row(0)), (*index)->Add(data.row(0)));
}

TEST_P(FilterIndexContractTest, TruncatedEnvelopeFailsCleanly) {
  auto index = MakeSecureFilterIndex(GetParam(), 8, SmallOptions());
  ASSERT_TRUE(index.ok());
  FloatMatrix data = RandomData(40, 8, 4);
  (*index)->AddBatch(data);

  BinaryWriter w;
  (*index)->Serialize(&w);
  const auto& buf = w.buffer();
  for (std::size_t frac = 1; frac < 10; ++frac) {
    BinaryReader r(buf.data(), buf.size() * frac / 10);
    auto out = DeserializeSecureFilterIndex(&r);
    EXPECT_FALSE(out.ok()) << "truncation at " << frac << "/10 on "
                           << IndexKindName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FilterIndexContractTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<IndexKind>& info) {
                           return IndexKindName(info.param);
                         });

TEST(FilterIndexFactoryTest, KindNamesRoundTrip) {
  for (IndexKind kind : kAllKinds) {
    auto parsed = ParseIndexKind(IndexKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(ParseIndexKind("flann").status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(ParseIndexKind("").status().code(),
            Status::Code::kInvalidArgument);
}

TEST(FilterIndexFactoryTest, RejectsZeroDimension) {
  EXPECT_FALSE(MakeSecureFilterIndex(IndexKind::kHnsw, 0).ok());
}

TEST(FilterIndexFactoryTest, RejectsUnknownEnvelopeKind) {
  BinaryWriter w;
  w.Put<std::uint32_t>(0x53464958);  // envelope magic
  w.Put<std::uint32_t>(1);
  w.Put<std::uint8_t>(42);  // no such backend
  BinaryReader r(w.buffer());
  EXPECT_EQ(DeserializeSecureFilterIndex(&r).status().code(),
            Status::Code::kIOError);
}

// The IVF auto-training path: an untrained index answers exactly via the
// linear-scan fallback, then trains itself once enough vectors arrive and
// keeps answering consistently.
TEST(FilterIndexFactoryTest, IvfAutoTrainsAtThreshold) {
  SecureFilterIndexOptions options = SmallOptions();
  auto index = MakeSecureFilterIndex(IndexKind::kIvf, 8, options);
  ASSERT_TRUE(index.ok());

  FloatMatrix data = RandomData(64, 8, 5);
  for (std::size_t i = 0; i < 16; ++i) (*index)->Add(data.row(i));
  // Below auto_train_min = 32: the exact fallback must find the true NN.
  auto before = (*index)->Search(data.row(5), 1, 0);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].id, 5u);

  for (std::size_t i = 16; i < 64; ++i) (*index)->Add(data.row(i));
  // Past the threshold: still finds exact duplicates as their own NN.
  auto after = (*index)->Search(data.row(40), 1, 0);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].id, 40u);
}

}  // namespace
}  // namespace ppanns
