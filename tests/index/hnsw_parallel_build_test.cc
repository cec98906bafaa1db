// Parallel intra-shard HNSW build: equivalence with the sequential builder,
// reproducibility at a fixed thread count, graph invariants under concurrent
// insertion, and the BuildParallel plumbing through the backend API and the
// DataOwner sharded build. The suite names match the CI TSan job's
// ParallelBuild filter, so every test here also runs race-checked.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "index/brute_force.h"
#include "index/hnsw.h"
#include "index/secure_filter_index.h"
#include "net/auth.h"

namespace ppanns {
namespace {

FloatMatrix RandomData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  FloatMatrix m(n, d);
  for (auto& v : m.data()) v = static_cast<float>(rng.Uniform(-1, 1));
  return m;
}

// The single-index delete: plan the removal, then apply the edit.
Status PlanAndApply(HnswIndex& index, VectorId id) {
  Result<RemoveEdit> edit = index.PlanRemove(id);
  if (!edit.ok()) return edit.status();
  index.ApplyRemove(*edit);
  return Status::OK();
}

double RecallAt10(const HnswIndex& index, const FloatMatrix& queries,
                  const std::vector<std::vector<Neighbor>>& gt,
                  std::size_t ef) {
  std::vector<std::vector<VectorId>> results;
  results.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<VectorId> ids;
    for (const Neighbor& r : index.Search(queries.row(i), 10, ef)) {
      ids.push_back(r.id);
    }
    results.push_back(std::move(ids));
  }
  return MeanRecallAtK(results, gt, 10);
}

void ExpectSameGraph(const HnswIndex& a, const HnswIndex& b) {
  ASSERT_EQ(a.capacity(), b.capacity());
  for (VectorId id = 0; id < a.capacity(); ++id) {
    ASSERT_EQ(a.LevelOf(id), b.LevelOf(id)) << "node " << id;
    for (int l = 0; l <= a.LevelOf(id); ++l) {
      EXPECT_EQ(a.NeighborsAt(id, l), b.NeighborsAt(id, l))
          << "node " << id << " level " << l;
    }
  }
}

void ExpectGraphInvariants(const HnswIndex& index, const HnswParams& params) {
  const std::size_t n = index.capacity();
  for (VectorId id = 0; id < n; ++id) {
    const int level = index.LevelOf(id);
    for (int l = 0; l <= level; ++l) {
      const auto& adj = index.NeighborsAt(id, l);
      const std::size_t bound = (l == 0) ? params.max_m0() : params.m;
      EXPECT_LE(adj.size(), bound) << "node " << id << " level " << l;
      std::set<VectorId> uniq(adj.begin(), adj.end());
      EXPECT_EQ(uniq.size(), adj.size()) << "duplicate edge at node " << id;
      EXPECT_EQ(uniq.count(id), 0u) << "self loop at node " << id;
      for (VectorId nb : adj) {
        ASSERT_LT(nb, n);
        EXPECT_GE(index.LevelOf(nb), l) << "edge to below-level node";
      }
    }
  }
}

// Integer coordinates keep every squared distance exact, so the graph built
// from them does not depend on the distance kernel (AVX2, NEON or scalar) or
// its summation order.
FloatMatrix IntegerData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  FloatMatrix m(n, d);
  for (auto& v : m.data()) {
    v = static_cast<float>(static_cast<int>(rng.NextUint64() % 17) - 8);
  }
  return m;
}

std::string Sha256Hex(const HnswIndex& index) {
  BinaryWriter w;
  index.Serialize(&w);
  const std::vector<std::uint8_t> bytes = w.TakeBuffer();
  std::string hex;
  for (std::uint8_t b : Sha256(bytes.data(), bytes.size())) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

// The one-at-a-time build (AddBatch, and AddBatchParallel at one thread) is
// pinned to the bytes of the original sequential insertion loop: the digest
// was recorded from that builder, before Add and AddBatch came to share one
// code path. The wave build at four threads is pinned the same way. A change
// to the level draws or to how a node is linked changes the bytes and fails
// here.
TEST(HnswParallelBuildTest, SingleStripeMatchesSequentialBitForBit) {
  const std::size_t n = 1200, d = 12;
  FloatMatrix data = IntegerData(n, d, 31);
  const HnswParams params{.m = 8, .ef_construction = 80, .seed = 77};
  constexpr char kSequentialSha256[] =
      "797e8779cf48166612e7ba07946303e36dbbfbf3aa334a77232968af2b68d94b";
  constexpr char kWaveT4Sha256[] =
      "cc992c9fad8c7b0f57442e5ea769c964a2ed3aa8a89acc058c0a883dc625bc99";

  HnswIndex seq(d, params);
  seq.AddBatch(data);
  EXPECT_EQ(Sha256Hex(seq), kSequentialSha256);
  HnswIndex one(d, params);
  one.AddBatchParallel(data, /*pool=*/nullptr, /*num_threads=*/1);
  EXPECT_EQ(Sha256Hex(one), kSequentialSha256);
  HnswIndex wave(d, params);
  wave.AddBatchParallel(data, &ThreadPool::Global(), /*num_threads=*/4);
  EXPECT_EQ(Sha256Hex(wave), kWaveT4Sha256);
}

TEST(HnswParallelBuildTest, RecallMatchesSequentialBuild) {
  const std::size_t n = 4000, d = 16;
  FloatMatrix data = RandomData(n, d, 33);
  FloatMatrix queries = RandomData(40, d, 34);
  const auto gt = BruteForceKnnBatch(data, queries, 10);
  const HnswParams params{.m = 12, .ef_construction = 150, .seed = 5};

  HnswIndex seq(d, params);
  seq.AddBatch(data);
  const double recall_seq = RecallAt10(seq, queries, gt, 150);
  EXPECT_GT(recall_seq, 0.9);

  for (std::size_t threads : {2, 4}) {
    HnswIndex par(d, params);
    par.AddBatchParallel(data, &ThreadPool::Global(), threads);
    ExpectGraphInvariants(par, params);
    const double recall_par = RecallAt10(par, queries, gt, 150);
    // The acceptance bar is "within 1%" on the 50k bench corpus; the small
    // unit-test corpus gets a slightly wider band against flakes.
    EXPECT_NEAR(recall_par, recall_seq, 0.03) << threads << " threads";
  }
}

// The wave builder draws every node level from one unified stream and
// commits each wave in ascending id order, so two runs at the same thread
// count produce the *entire graph* — levels and edge sets — identically, not
// just the level skeleton.
TEST(HnswParallelBuildTest, LevelsReproducibleAtFixedThreadCount) {
  const std::size_t n = 3000, d = 8;
  FloatMatrix data = RandomData(n, d, 35);
  const HnswParams params{.m = 8, .ef_construction = 60, .seed = 1234};

  HnswIndex a(d, params);
  a.AddBatchParallel(data, &ThreadPool::Global(), 4);
  HnswIndex b(d, params);
  b.AddBatchParallel(data, &ThreadPool::Global(), 4);

  ExpectSameGraph(a, b);
  EXPECT_EQ(a.ComputeStats().max_level, b.ComputeStats().max_level);
}

// The stronger contract the compaction rebuild path relies on: the finished
// graph is independent of the thread count and of how the waves were
// dispatched (shared pool or dedicated threads). Any num_threads >= 2
// serializes to the same bytes, so a maintenance rebuild is byte-reproducible
// no matter what hardware it lands on.
TEST(HnswParallelBuildTest, GraphBytesIndependentOfThreadCount) {
  const std::size_t n = 2000, d = 10;
  FloatMatrix data = RandomData(n, d, 51);
  const HnswParams params{.m = 8, .ef_construction = 80, .seed = 21};

  auto build_bytes = [&](std::size_t threads, ThreadPool* pool) {
    HnswIndex index(d, params);
    index.AddBatchParallel(data, pool, threads);
    BinaryWriter w;
    index.Serialize(&w);
    return w.TakeBuffer();
  };

  const std::vector<std::uint8_t> t4 = build_bytes(4, &ThreadPool::Global());
  EXPECT_EQ(build_bytes(4, &ThreadPool::Global()), t4);  // same-run-twice pin
  EXPECT_EQ(build_bytes(2, &ThreadPool::Global()), t4);  // thread-count free
  EXPECT_EQ(build_bytes(8, &ThreadPool::Global()), t4);
  EXPECT_EQ(build_bytes(4, /*pool=*/nullptr), t4);  // dedicated-thread path
}

TEST(HnswParallelBuildTest, InvariantsHoldAtHighThreadCount) {
  const std::size_t n = 2500, d = 8;
  FloatMatrix data = RandomData(n, d, 36);
  const HnswParams params{.m = 6, .ef_construction = 60, .seed = 9};
  HnswIndex index(d, params);
  index.AddBatchParallel(data, /*pool=*/nullptr, /*num_threads=*/8);
  EXPECT_EQ(index.size(), n);
  ExpectGraphInvariants(index, params);
  // Connectivity: nearly every sampled stored vector finds itself (exact
  // self-retrieval is not guaranteed by an approximate graph, so allow the
  // odd weakly-linked node without letting real fragmentation pass).
  std::size_t sampled = 0, found = 0;
  for (VectorId id = 0; id < n; id += 97) {
    ++sampled;
    for (const Neighbor& r : index.Search(data.row(id), 10, 120)) {
      if (r.id == id) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(found, sampled - sampled / 20) << found << "/" << sampled;
}

// Incremental maintenance and persistence must keep working on a graph that
// was built concurrently.
TEST(HnswParallelBuildTest, MaintenanceAndSerializationAfterParallelBuild) {
  const std::size_t n = 1500, d = 10;
  FloatMatrix data = RandomData(n, d, 37);
  const HnswParams params{.m = 10, .ef_construction = 100, .seed = 11};
  HnswIndex index(d, params);
  index.AddBatchParallel(data, &ThreadPool::Global(), 4);

  for (VectorId id = 0; id < 60; ++id) ASSERT_TRUE(PlanAndApply(index, id).ok());
  FloatMatrix extra = RandomData(40, d, 38);
  for (std::size_t i = 0; i < extra.size(); ++i) index.Add(extra.row(i));
  EXPECT_EQ(index.size(), n - 60 + 40);

  FloatMatrix queries = RandomData(15, d, 39);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (const Neighbor& r : index.Search(queries.row(i), 10, 120)) {
      EXPECT_FALSE(index.IsDeleted(r.id));
    }
  }

  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.buffer());
  auto loaded = HnswIndex::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto a = index.Search(queries.row(i), 10, 120);
    const auto b = loaded->Search(queries.row(i), 10, 120);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j].id, b[j].id);
  }
}

// Dispatch both ways: stripes on the caller's pool from the outside, and on
// dedicated threads when invoked from inside one of the pool's workers (the
// sharded build path) — the latter must not deadlock even on a 1-wide pool.
TEST(HnswParallelBuildTest, BuildsOnPoolAndInsideWorker) {
  const std::size_t n = 1000, d = 8;
  FloatMatrix data = RandomData(n, d, 40);
  const HnswParams params{.m = 8, .ef_construction = 60, .seed = 2};

  ThreadPool pool(2);
  HnswIndex outside(d, params);
  outside.AddBatchParallel(data, &pool, 0);  // 0 = the pool's width
  EXPECT_EQ(outside.size(), n);
  ExpectGraphInvariants(outside, params);

  ThreadPool narrow(1);
  HnswIndex inside(d, params);
  narrow.Async([&] { inside.AddBatchParallel(data, &narrow, 3); }).get();
  EXPECT_EQ(inside.size(), n);
  ExpectGraphInvariants(inside, params);
}

TEST(HnswParallelBuildTest, EmptyBatchAndIncrementalBase) {
  const std::size_t d = 8;
  const HnswParams params{.m = 8, .ef_construction = 60, .seed = 3};
  HnswIndex index(d, params);
  index.AddBatchParallel(FloatMatrix(0, d), &ThreadPool::Global(), 4);
  EXPECT_EQ(index.size(), 0u);

  // A parallel batch appended onto an existing graph keeps dense ids.
  FloatMatrix first = RandomData(200, d, 41);
  index.AddBatch(first);
  FloatMatrix second = RandomData(300, d, 42);
  index.AddBatchParallel(second, &ThreadPool::Global(), 4);
  EXPECT_EQ(index.capacity(), 500u);
  const auto res = index.Search(second.row(7), 1, 100);
  ASSERT_FALSE(res.empty());
  EXPECT_EQ(res[0].id, 207u);
}

// The backend API: HNSW fans out, every other backend's BuildParallel is the
// sequential AddBatch fallback and must return identical ids.
TEST(FilterBackendParallelBuildTest, FallbacksMatchAddBatchExactly) {
  const std::size_t n = 600, d = 8;
  FloatMatrix data = RandomData(n, d, 43);
  FloatMatrix queries = RandomData(10, d, 44);

  for (IndexKind kind :
       {IndexKind::kIvf, IndexKind::kLsh, IndexKind::kBruteForce}) {
    auto seq = MakeSecureFilterIndex(kind, d);
    auto par = MakeSecureFilterIndex(kind, d);
    ASSERT_TRUE(seq.ok() && par.ok());
    (*seq)->AddBatch(data);
    (*par)->BuildParallel(data, &ThreadPool::Global(), 4);
    ASSERT_EQ((*par)->capacity(), n);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto a = (*seq)->Search(queries.row(i), 10, 0);
      const auto b = (*par)->Search(queries.row(i), 10, 0);
      ASSERT_EQ(a.size(), b.size()) << IndexKindName(kind);
      for (std::size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].id, b[j].id) << IndexKindName(kind);
      }
    }
  }

  auto hnsw = MakeSecureFilterIndex(IndexKind::kHnsw, d);
  ASSERT_TRUE(hnsw.ok());
  (*hnsw)->BuildParallel(data, &ThreadPool::Global(), 4);
  EXPECT_EQ((*hnsw)->capacity(), n);
  EXPECT_FALSE((*hnsw)->Search(queries.row(0), 5, 64).empty());
}

// Owner-level plumbing: a sharded package built with build_threads > 1 (so
// shard builds nest BuildParallel inside ParallelFor workers) serves with
// recall equivalent to the sequential-build package.
TEST(DataOwnerParallelBuildTest, ShardedBuildThreadsServeEquivalently) {
  Dataset ds = MakeDataset(SyntheticKind::kSiftLike, 1500, 20, 10, 45);

  auto recall_with = [&](std::uint32_t build_threads) {
    PpannsParams params;
    params.num_shards = 2;
    params.build_threads = build_threads;
    params.seed = 46;
    auto owner = DataOwner::Create(ds.base.dim(), params);
    EXPECT_TRUE(owner.ok());
    PpannsService service{
        ShardedCloudServer(owner->EncryptAndIndexSharded(ds.base))};
    QueryClient client(owner->ShareKeys(), 47);
    const std::vector<QueryToken> tokens = EncryptQueries(client, ds.queries);
    const SearchSettings settings{.k_prime = 40, .ef_search = 150};
    std::vector<std::vector<VectorId>> ids;
    for (const QueryToken& token : tokens) {
      auto result = service.Search(token, 10, settings);
      EXPECT_TRUE(result.ok());
      ids.push_back(result->ids);
    }
    return MeanRecallAtK(ids, ds.ground_truth, 10);
  };

  const double sequential = recall_with(1);
  const double parallel = recall_with(3);
  EXPECT_GT(sequential, 0.85);
  EXPECT_NEAR(parallel, sequential, 0.05);
}

}  // namespace
}  // namespace ppanns
