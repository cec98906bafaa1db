// Tests for the refine phase's selection structure (SortedKBuffer) and its
// ordering rule (CanonicalCloser).

#include "core/sorted_k_buffer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/dce.h"

namespace ppanns {
namespace {

// Oracle comparator over a plain score array: a closer than b <=>
// score[a] < score[b].
struct Oracle {
  std::vector<double> scores;
  std::size_t calls = 0;
  auto Closer() {
    return [this](VectorId a, VectorId b) {
      ++calls;
      return scores[a] < scores[b];
    };
  }
};

// The reference selection: insert each position 0..n-1 after every kept
// element it is not closer than, then keep the first k.
template <typename Closer>
std::vector<VectorId> InsertionSortTopK(std::size_t n, std::size_t k,
                                        const Closer& closer) {
  std::vector<VectorId> sorted;
  for (VectorId pos = 0; pos < n; ++pos) {
    auto it = sorted.end();
    while (it != sorted.begin() && closer(pos, *(it - 1))) --it;
    sorted.insert(it, pos);
  }
  sorted.erase(sorted.begin() + std::min(k, n), sorted.end());
  return sorted;
}

TEST(SortedKBufferTest, KeepsKClosest) {
  Oracle oracle;
  Rng rng(1);
  const std::size_t n = 200, k = 10;
  for (std::size_t i = 0; i < n; ++i) oracle.scores.push_back(rng.Uniform(0, 1));

  SortedKBuffer buffer(k, oracle.Closer());
  for (VectorId id = 0; id < n; ++id) buffer.Offer(id);
  ASSERT_EQ(buffer.size(), k);

  // Oracle's true top-k.
  std::vector<VectorId> want(n);
  std::iota(want.begin(), want.end(), VectorId{0});
  std::sort(want.begin(), want.end(), [&](VectorId a, VectorId b) {
    return oracle.scores[a] < oracle.scores[b];
  });
  want.resize(k);
  EXPECT_EQ(buffer.sorted(), want);
}

TEST(SortedKBufferTest, SortedAscending) {
  Oracle oracle;
  oracle.scores = {5, 1, 4, 2, 3};
  SortedKBuffer buffer(5, oracle.Closer());
  for (VectorId id = 0; id < 5; ++id) buffer.Offer(id);
  EXPECT_EQ(buffer.sorted(), (std::vector<VectorId>{1, 3, 4, 2, 0}));
}

TEST(SortedKBufferTest, UnderfilledBuffer) {
  Oracle oracle;
  oracle.scores = {3, 1, 2};
  SortedKBuffer buffer(10, oracle.Closer());
  buffer.Offer(0);
  buffer.Offer(1);
  buffer.Offer(2);
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_FALSE(buffer.full());
  EXPECT_EQ(buffer.sorted(), (std::vector<VectorId>{1, 2, 0}));
}

TEST(SortedKBufferTest, RejectsFartherWhenFull) {
  Oracle oracle;
  oracle.scores = {1, 2, 3, 100};
  SortedKBuffer buffer(3, oracle.Closer());
  for (VectorId id = 0; id < 3; ++id) buffer.Offer(id);
  const std::size_t calls = oracle.calls;
  EXPECT_FALSE(buffer.Offer(3));  // 100 is farther than the worst kept (3)
  EXPECT_EQ(oracle.calls, calls + 1) << "one comparison with the k-th";
  EXPECT_EQ(buffer.sorted(), (std::vector<VectorId>{0, 1, 2}));
}

TEST(SortedKBufferTest, LogarithmicComparisonCount) {
  // Algorithm 2 cost claim: each insertion costs O(log k) comparisons. For
  // n offers into a k-buffer, total comparisons should be well below n*k.
  Oracle oracle;
  Rng rng(2);
  const std::size_t n = 4096, k = 64;
  for (std::size_t i = 0; i < n; ++i) oracle.scores.push_back(rng.Uniform(0, 1));

  SortedKBuffer buffer(k, oracle.Closer());
  for (VectorId id = 0; id < n; ++id) buffer.Offer(id);
  // log2(64) = 6; allow generous constants: 4 * 6 * n.
  EXPECT_LT(oracle.calls, 4 * 6 * n);
}

TEST(SortedKBufferTest, DuplicateScoresHandled) {
  Oracle oracle;
  oracle.scores = {1, 1, 1, 1, 1, 1};
  SortedKBuffer buffer(3, oracle.Closer());
  for (VectorId id = 0; id < 6; ++id) buffer.Offer(id);
  EXPECT_EQ(buffer.size(), 3u);
  // A tie lands after its equal and never displaces the k-th.
  EXPECT_EQ(buffer.sorted(), (std::vector<VectorId>{0, 1, 2}));
}

// Integer-valued plaintexts (SIFT-like) make exact ties exact.
std::vector<double> RandomIntVector(std::size_t d, Rng& rng) {
  std::vector<double> v(d);
  for (double& x : v) x = static_cast<double>(rng.UniformInt(0, 255));
  return v;
}

double SiftScale(std::size_t d) {
  return 255.0 * std::sqrt(static_cast<double>(d) / 3.0);
}

// One plaintext encrypted twice is an exact tie: the raw sign of Z is
// rounding noise there, so Closer(A, B) and Closer(B, A) can agree. The
// canonical comparator must answer one way for every trapdoor.
TEST(CanonicalCloserTest, ExactTieRanksOneWayUnderEveryTrapdoor) {
  const std::size_t d = 128;
  Rng rng(27);
  auto scheme = DceScheme::KeyGen(d, rng, SiftScale(d));
  ASSERT_TRUE(scheme.ok());
  const std::vector<double> plain = RandomIntVector(d, rng);
  const DceCiphertext cts[2] = {scheme->Encrypt(plain.data(), rng),
                                scheme->Encrypt(plain.data(), rng)};

  std::size_t raw_same_sign = 0;
  for (int t = 0; t < 200; ++t) {
    const std::vector<double> q = RandomIntVector(d, rng);
    const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);
    const CanonicalCloser closer([&](VectorId o, VectorId p) {
      return DceScheme::DistanceComp(cts[o], cts[p], tq);
    });
    EXPECT_NE(closer(0, 1), closer(1, 0)) << "trapdoor " << t;
    raw_same_sign += DceScheme::Closer(cts[0], cts[1], tq) ==
                     DceScheme::Closer(cts[1], cts[0], tq);

    // k = 1 over [A, B]: the buffer's answer is the insertion sort's.
    SortedKBuffer buffer(1, closer);
    buffer.Offer(0);
    buffer.Offer(1);
    EXPECT_EQ(buffer.sorted(), InsertionSortTopK(2, 1, closer))
        << "trapdoor " << t;
  }
  EXPECT_GT(raw_same_sign, 0u)
      << "the raw sign should fail antisymmetry at this tie for some trapdoor";
}

// Comparisons the refine's previous selection (a bounded max-heap plus a
// sorting extract, driven by the raw DceScheme::Closer over the same
// positions) spent on each list below, recorded on that implementation.
constexpr std::size_t kHeapComparisons[] = {
    39, 82, 181, 212, 39, 77, 115, 207,  //
    39, 53, 171, 215, 39, 76, 179, 221,  //
    39, 73, 161, 209, 39, 76, 149, 241,  //
    39, 73, 156, 247, 39, 76, 169, 215,
};

// On random candidate lists with injected exact ties, the buffer returns the
// insertion sort's ids under the canonical comparator, and spends no more
// comparisons than the heap it replaced. The ties are pairs: the canonical
// order is then total. Three or more equal plaintexts can make it cyclic,
// and two selection algorithms may then rank the tied group differently.
TEST(SortedKBufferTest, MatchesInsertionSortOnExactTies) {
  const std::size_t d = 32, n = 40;
  const std::size_t ks[] = {1, 4, 10, 16};
  Rng rng(28);
  auto scheme = DceScheme::KeyGen(d, rng, SiftScale(d));
  ASSERT_TRUE(scheme.ok());

  for (std::size_t list = 0; list < std::size(kHeapComparisons); ++list) {
    // Every fourth candidate re-encrypts one of the three before it; then
    // the list is shuffled.
    std::vector<std::vector<double>> plain;
    for (std::size_t i = 0; i < n; ++i) {
      plain.push_back(i % 4 == 3 ? plain[i - 1 - rng.UniformInt(0, 2)]
                                 : RandomIntVector(d, rng));
    }
    std::vector<DceCiphertext> cts;
    for (std::uint32_t i : rng.Permutation(n)) {
      cts.push_back(scheme->Encrypt(plain[i].data(), rng));
    }
    const std::vector<double> q = RandomIntVector(d, rng);
    const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);

    std::size_t count = 0;
    const CanonicalCloser closer([&](VectorId o, VectorId p) {
      ++count;
      return DceScheme::DistanceComp(cts[o], cts[p], tq);
    });
    const std::size_t k = ks[list % std::size(ks)];
    SortedKBuffer buffer(k, closer);
    for (VectorId pos = 0; pos < n; ++pos) buffer.Offer(pos);
    const std::size_t buffer_count = count;

    EXPECT_EQ(buffer.sorted(), InsertionSortTopK(n, k, closer))
        << "list " << list << ", k " << k;
    EXPECT_LE(buffer_count, kHeapComparisons[list])
        << "list " << list << ", k " << k;
  }
}

}  // namespace
}  // namespace ppanns
