// The cancellable query-execution pipeline at the index layer: every
// SecureFilterIndex backend (hnsw / ivf / lsh / brute), on the float and the
// SQ8 tier (ivf, brute) and on fresh and tombstoned indexes, must
//  * return bit-for-bit identical results with and without a SearchContext
//    that never trips (the context only observes),
//  * report its work (nodes_visited / distance_computations) into the
//    context's SearchStats,
//  * stop mid-scan on a raised cancellation flag, an expired deadline, or an
//    exhausted node budget — visiting strictly fewer nodes than a full scan
//    and reporting the early-exit reason.

#include <atomic>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/search_context.h"
#include "datagen/synthetic.h"
#include "index/secure_filter_index.h"

namespace ppanns {
namespace {

constexpr std::size_t kDim = 16;
constexpr std::size_t kN = 2000;
constexpr std::size_t kK = 10;

// One scan configuration packed into a byte: the IndexKind in the low
// nibble, the SQ8 tier and the tombstones as flag bits above it. gtest lists
// a parameterized test with its parameter's bytes ("# GetParam() = 1-byte
// object <03>"), and a fresh float case is the bare IndexKind byte, so it
// keeps the listed name it had when the parameter was the kind alone.
enum class ScanCase : std::uint8_t {};
constexpr std::uint8_t kSq8 = 0x10;
constexpr std::uint8_t kTombstoned = 0x20;

constexpr ScanCase Case(IndexKind kind, std::uint8_t flags = 0) {
  return static_cast<ScanCase>(static_cast<std::uint8_t>(kind) | flags);
}
IndexKind KindOf(ScanCase c) {
  return static_cast<IndexKind>(static_cast<std::uint8_t>(c) & 0x0f);
}
bool Has(ScanCase c, std::uint8_t bit) {
  return (static_cast<std::uint8_t>(c) & bit) != 0;
}

class CancellationTest : public ::testing::TestWithParam<ScanCase> {
 protected:
  void SetUp() override {
    data_ = MakeDataset(SyntheticKind::kGloveLike, kN, 1, 0, /*seed=*/77, kDim)
                .base;
    SecureFilterIndexOptions options;
    options.hnsw = HnswParams{.m = 8, .ef_construction = 60, .seed = 77};
    // Coarse buckets so the LSH candidate set is a sizeable fraction of the
    // dataset — the point here is hot-loop cancellation, not selectivity.
    options.lsh = LshParams{.num_tables = 4, .num_hashes = 2,
                            .bucket_width = 16.0, .seed = 77};
    options.sq.enabled = Has(GetParam(), kSq8);
    auto index = MakeSecureFilterIndex(KindOf(GetParam()), kDim, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
    index_->AddBatch(data_);
    if (Has(GetParam(), kTombstoned)) {
      // Every tenth row, the query row among them.
      for (VectorId id = 0; id < kN; id += 10) {
        auto edit = index_->PlanRemove(id);
        ASSERT_TRUE(edit.ok()) << edit.status().ToString();
        index_->ApplyRemove(*edit);
      }
    }
    query_ = data_.row(kN / 2);
  }

  FloatMatrix data_;
  std::unique_ptr<SecureFilterIndex> index_;
  const float* query_ = nullptr;
};

TEST_P(CancellationTest, UntrippedContextIsPureObservation) {
  const auto plain = index_->Search(query_, kK, 0);
  SearchContext ctx;
  const auto observed = index_->Search(query_, kK, 0, &ctx);
  EXPECT_EQ(observed, plain) << "a context that never trips must not change "
                                "a single result";
  EXPECT_EQ(ctx.early_exit(), EarlyExit::kNone);
  EXPECT_GT(ctx.stats.nodes_visited, 0u);
  EXPECT_GE(ctx.stats.distance_computations, ctx.stats.nodes_visited);
}

TEST_P(CancellationTest, RaisedFlagAbortsMidScan) {
  SearchContext full_ctx;
  index_->Search(query_, kK, 0, &full_ctx);
  const std::size_t full_nodes = full_ctx.stats.nodes_visited;
  ASSERT_GT(full_nodes, 2 * kCancelCheckStride)
      << "dataset too small to observe a mid-scan abort";

  std::atomic<bool> cancel{true};
  SearchContext ctx;
  ctx.AddCancelFlag(&cancel);
  index_->Search(query_, kK, 0, &ctx);
  EXPECT_EQ(ctx.early_exit(), EarlyExit::kCancelled);
  EXPECT_LT(ctx.stats.nodes_visited, full_nodes)
      << "a cancelled scan must visit strictly fewer nodes";
  // The probe fires at least every kCancelCheckStride steps, so an
  // already-raised flag stops the scan almost immediately.
  EXPECT_LE(ctx.stats.nodes_visited, 2 * kCancelCheckStride);
}

TEST_P(CancellationTest, ExpiredDeadlineAbortsMidScan) {
  SearchContext full_ctx;
  index_->Search(query_, kK, 0, &full_ctx);
  const std::size_t full_nodes = full_ctx.stats.nodes_visited;

  SearchContext ctx;
  ctx.set_deadline(SearchContext::Clock::now() -
                   std::chrono::milliseconds(1));  // already expired
  index_->Search(query_, kK, 0, &ctx);
  EXPECT_EQ(ctx.early_exit(), EarlyExit::kDeadlineExpired);
  EXPECT_LT(ctx.stats.nodes_visited, full_nodes);
}

TEST_P(CancellationTest, NodeBudgetIsExact) {
  SearchContext full_ctx;
  index_->Search(query_, kK, 0, &full_ctx);
  const std::size_t full_nodes = full_ctx.stats.nodes_visited;
  const std::size_t budget = full_nodes / 2;
  ASSERT_GT(budget, 0u);

  SearchContext ctx;
  ctx.set_node_budget(budget);
  index_->Search(query_, kK, 0, &ctx);
  EXPECT_EQ(ctx.early_exit(), EarlyExit::kBudgetExhausted);
  // The budget is probed every step, not strided, so it is never overshot.
  EXPECT_LE(ctx.stats.nodes_visited, budget);
  EXPECT_LT(ctx.stats.nodes_visited, full_nodes);
}

TEST_P(CancellationTest, TruncatedScanStillReturnsBestPrefix) {
  // A budget-bound scan returns the best of what it saw — usable partial
  // results, not an empty set. (The brute backend scans ids in order, so
  // budget/2 >= k guarantees k results; approximate backends may return
  // fewer but never none from a non-trivial prefix.)
  SearchContext ctx;
  ctx.set_node_budget(kN / 2);
  const auto results = index_->Search(query_, kK, 0, &ctx);
  EXPECT_FALSE(results.empty());
  for (const Neighbor& nb : results) {
    EXPECT_LT(nb.id, kN);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CancellationTest,
    ::testing::Values(
        Case(IndexKind::kHnsw), Case(IndexKind::kIvf), Case(IndexKind::kLsh),
        Case(IndexKind::kBruteForce), Case(IndexKind::kIvf, kSq8),
        Case(IndexKind::kBruteForce, kSq8), Case(IndexKind::kHnsw, kTombstoned),
        Case(IndexKind::kIvf, kTombstoned), Case(IndexKind::kLsh, kTombstoned),
        Case(IndexKind::kBruteForce, kTombstoned),
        Case(IndexKind::kIvf, kSq8 | kTombstoned),
        Case(IndexKind::kBruteForce, kSq8 | kTombstoned)),
    [](const ::testing::TestParamInfo<ScanCase>& info) {
      std::string name = IndexKindName(KindOf(info.param));
      if (Has(info.param, kSq8)) name += "_sq8";
      if (Has(info.param, kTombstoned)) name += "_tombstoned";
      return name;
    });

}  // namespace
}  // namespace ppanns
