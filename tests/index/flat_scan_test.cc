// Pins what the flat backends (brute force, IVF, LSH) observably do: for
// every tier (float, and SQ8 where the backend has one), on fresh and
// 10%-tombstoned indexes, and with a null context, a stats-only context and
// a node budget of n/3, the returned ids, the distance bits, nodes_visited
// and distance_computations; and the SHA-256 of every serialized payload
// (PBFI v1/v2, PIVF v1/v2, PLSH v1). The constants were recorded before the
// backends moved onto one shared row store and one blocked scan, so they
// pin that the move changed no answer, no work count and no byte. The
// distance kernels are bit-exact across ISAs, so the constants hold under
// every dispatch path (CI runs this suite under PPANNS_KERNEL=scalar too).

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/search_context.h"
#include "common/serialize.h"
#include "index/brute_force.h"
#include "index/ivf.h"
#include "index/lsh.h"
#include "net/auth.h"

namespace ppanns {
namespace {

constexpr std::size_t kN = 600;
constexpr std::size_t kDim = 20;
constexpr std::size_t kK = 10;
constexpr std::size_t kQueries = 6;

const SqParams kSq{.enabled = true, .refine_factor = 4, .train_min = 64};
const IvfParams kIvf{.num_lists = 8, .train_iters = 5, .seed = 0x1f};
const LshParams kLsh{.num_tables = 4, .num_hashes = 2, .bucket_width = 12.0,
                     .seed = 0x15b};

FloatMatrix GaussianData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  FloatMatrix m(n, kDim);
  for (float& x : m.data()) x = static_cast<float>(rng.Gaussian(0.0, 2.0));
  return m;
}

const FloatMatrix& Data() {
  static const FloatMatrix data = GaussianData(kN, 0xF1A7);
  return data;
}

const FloatMatrix& Queries() {
  static const FloatMatrix queries = GaussianData(kQueries, 0xF1A8);
  return queries;
}

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  const auto digest = Sha256(bytes.data(), bytes.size());
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : digest) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// Tombstones every tenth row (ids 3, 13, 23, ...).
template <typename Index>
void Tombstone(Index* index) {
  for (VectorId id = 3; id < kN; id += 10) {
    ASSERT_TRUE(index->Remove(id).ok());
  }
}

/// SHA-256 over every query's answer under the three context modes: ids,
/// distance bits, and (for the two live contexts) nodes_visited and
/// distance_computations.
template <typename SearchFn>
std::string AnswerDigest(SearchFn search) {
  BinaryWriter w;
  for (int mode = 0; mode < 3; ++mode) {
    for (std::size_t q = 0; q < kQueries; ++q) {
      SearchContext ctx;
      if (mode == 2) ctx.set_node_budget(kN / 3);
      const std::vector<Neighbor> out =
          search(Queries().row(q), mode == 0 ? nullptr : &ctx);
      w.Put<std::uint64_t>(out.size());
      for (const Neighbor& nb : out) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &nb.distance, sizeof(bits));
        w.Put<std::uint32_t>(nb.id);
        w.Put<std::uint32_t>(bits);
      }
      w.Put<std::uint64_t>(ctx.stats.nodes_visited);
      w.Put<std::uint64_t>(ctx.stats.distance_computations);
    }
  }
  return Hex(w.buffer());
}

template <typename Index>
std::string PayloadDigest(const Index& index) {
  BinaryWriter w;
  index.Serialize(&w);
  return Hex(w.buffer());
}

BruteForceIndex Brute(SqParams sq) {
  BruteForceIndex index(kDim, sq);
  index.AddBatch(Data());
  return index;
}

IvfIndex Ivf(SqParams sq, std::size_t n = kN) {
  IvfIndex index(kDim, kIvf, sq);
  for (std::size_t i = 0; i < n; ++i) index.Add(Data().row(i));
  return index;
}

LshIndex Lsh() {
  LshIndex index(kDim, kLsh);
  index.AddBatch(Data());
  return index;
}

std::string BruteDigest(const BruteForceIndex& index) {
  return AnswerDigest([&](const float* q, SearchContext* ctx) {
    return index.Search(q, kK, ctx);
  });
}

std::string IvfDigest(const IvfIndex& index) {
  return AnswerDigest([&](const float* q, SearchContext* ctx) {
    return index.Search(q, kK, /*nprobe=*/3, ctx);
  });
}

std::string LshDigest(const LshIndex& index) {
  return AnswerDigest([&](const float* q, SearchContext* ctx) {
    return index.Search(q, kK, /*probes_per_table=*/2, ctx);
  });
}

TEST(FlatScanTest, BruteFloatAnswersPinned) {
  BruteForceIndex index = Brute(SqParams{});
  EXPECT_EQ(BruteDigest(index),
            "8349c661e48cf4fab30363627ef7c529b9a58211150677326473330868e43e9b");
  Tombstone(&index);
  EXPECT_EQ(BruteDigest(index),
            "ad29d9c3c767175b8f3d53a170b371c6852213f0bfbdb7cda6f549c4376919fa");
}

TEST(FlatScanTest, BruteSq8AnswersPinned) {
  BruteForceIndex index = Brute(kSq);
  ASSERT_TRUE(index.sq_active());
  EXPECT_EQ(BruteDigest(index),
            "b2d74adffc4a2bd4e5b965a575e4cb6f8e263b8be21615150a5ed48d5e895a4d");
  Tombstone(&index);
  EXPECT_EQ(BruteDigest(index),
            "cc555a721c3c1e703837939ff2755a76ad4512478ef7b927dc3d8fba0165faea");
}

TEST(FlatScanTest, IvfFloatAnswersPinned) {
  IvfIndex index = Ivf(SqParams{});
  ASSERT_TRUE(index.trained());
  EXPECT_EQ(IvfDigest(index),
            "7927902ee371162477334745a2527cee08a751c4eca700b7a4260a2b5150c6cc");
  Tombstone(&index);
  EXPECT_EQ(IvfDigest(index),
            "9bc7e50090bbe58876898a7b731f9c10da8b1a2f2fe4aaa7f922afac89b9f1a9");
}

TEST(FlatScanTest, IvfSq8AnswersPinned) {
  IvfIndex index = Ivf(kSq);
  ASSERT_TRUE(index.sq_active());
  EXPECT_EQ(IvfDigest(index),
            "df67c15b80766c587294c8834eb3382310b9d8ba7814a21d6c478a7a279e2734");
  Tombstone(&index);
  EXPECT_EQ(IvfDigest(index),
            "27a95b88092147fc6715d7fd29e2734c4c6a4f8805c2c793f5bd333033cfa4ed");
}

// Below the auto-train threshold (4 x num_lists rows) IVF scans every live
// row exactly.
TEST(FlatScanTest, IvfUntrainedAnswersPinned) {
  IvfIndex index = Ivf(kSq, /*n=*/4 * kIvf.num_lists - 1);
  ASSERT_FALSE(index.trained());
  EXPECT_EQ(IvfDigest(index),
            "b1880f0a199e152a4b9bfbdb7f152223b874b08fffe8c6c9e74de771ee993f34");
  ASSERT_TRUE(index.Remove(5).ok());
  ASSERT_TRUE(index.Remove(17).ok());
  EXPECT_EQ(IvfDigest(index),
            "6b2b3febaf98278c718fdcab1c99d2e432ad09e1d85f8600ffbc78b1ac410ec3");
}

TEST(FlatScanTest, LshAnswersPinned) {
  LshIndex index = Lsh();
  EXPECT_EQ(LshDigest(index),
            "aa954a2a51e4beb5205f82df8de8c7e28acf160b588bccc69436030a326924ec");
  Tombstone(&index);
  EXPECT_EQ(LshDigest(index),
            "332e933889d44550924167f64418758099c68cd37ea975bc005e3ee7a21a8850");
}

TEST(FlatScanTest, PayloadBytesPinned) {
  BruteForceIndex brute = Brute(SqParams{});
  BruteForceIndex brute_sq = Brute(kSq);
  BruteForceIndex brute_sq_untrained =
      Brute(SqParams{.enabled = true, .refine_factor = 4, .train_min = 2 * kN});
  IvfIndex ivf = Ivf(SqParams{});
  IvfIndex ivf_sq = Ivf(kSq);
  LshIndex lsh = Lsh();
  Tombstone(&brute);
  Tombstone(&brute_sq);
  Tombstone(&ivf);
  Tombstone(&ivf_sq);
  Tombstone(&lsh);
  ASSERT_FALSE(brute_sq_untrained.sq_active());
  EXPECT_EQ(PayloadDigest(brute),  // PBFI v1
            "a1d6f9bdcdb6a03d2ac5667a63b8e46c4671afa3e3436d9b3bdbea0f673e1e8c");
  EXPECT_EQ(PayloadDigest(brute_sq),  // PBFI v2
            "f33c02184236fb08a05beb4e7f988bc03c31b7b98756d68c29114237a9f7cc0f");
  EXPECT_EQ(PayloadDigest(brute_sq_untrained),  // PBFI v2, untrained
            "e1e4fba31fe542c12f1a57f3f720692d973467ebb3e4596e991ec42fb75bd8fb");
  EXPECT_EQ(PayloadDigest(ivf),  // PIVF v1
            "e3af2f5dfddcaa0243e07bcfb834c7bb7cd4c26e76776ffb12597bce732d30a2");
  EXPECT_EQ(PayloadDigest(ivf_sq),  // PIVF v2
            "e1c322b320955b32edce925bbbdeff9a517ce271f98eb439c33e0f3b38ceb5d2");
  EXPECT_EQ(PayloadDigest(lsh),  // PLSH v1
            "c665e9842dfda2f4bb403721cf8e9f7851919e45ed963146a478ecc23355fc92");
}

}  // namespace
}  // namespace ppanns
