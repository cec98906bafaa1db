// HNSW tests: recall against brute force, graph structure invariants,
// incremental insertion, deletion with repair (Section V-D), serialization.

#include "index/hnsw.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "datagen/synthetic.h"
#include "index/brute_force.h"
#include "eval/metrics.h"

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

std::vector<std::uint8_t> Bytes(const HnswIndex& index) {
  BinaryWriter w;
  index.Serialize(&w);
  return w.TakeBuffer();
}

bool Contains(const std::vector<VectorId>& list, VectorId id) {
  return std::find(list.begin(), list.end(), id) != list.end();
}

// A live id drawn from `rng`.
VectorId RandomLive(const HnswIndex& index, Rng& rng) {
  VectorId id;
  do {
    id = static_cast<VectorId>(rng.UniformInt(0, index.capacity() - 1));
  } while (index.IsDeleted(id));
  return id;
}

TEST(HnswTest, EmptyIndexReturnsNothing) {
  HnswIndex index(8, HnswParams{});
  const float q[8] = {0};
  EXPECT_TRUE(index.Search(q, 5, 50).empty());
  EXPECT_EQ(index.size(), 0u);
}

TEST(HnswTest, SingleElement) {
  HnswIndex index(4, HnswParams{});
  const float v[] = {1, 2, 3, 4};
  const VectorId id = index.Add(v);
  EXPECT_EQ(id, 0u);
  const float q[] = {1, 2, 3, 5};
  auto res = index.Search(q, 3, 10);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 0u);
  EXPECT_FLOAT_EQ(res[0].distance, 1.0f);
}

TEST(HnswTest, ExactOnTinyData) {
  // With ef >= n the search must be exact.
  const std::size_t n = 200, d = 8, k = 10;
  FloatMatrix data = RandomData(n, d, 1);
  HnswIndex index(d, HnswParams{.m = 8, .ef_construction = 100});
  index.AddBatch(data);

  FloatMatrix queries = RandomData(20, d, 2);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto got = index.Search(queries.row(i), k, n);
    auto want = BruteForceKnn(data, queries.row(i), k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].id, want[j].id) << "query " << i << " rank " << j;
    }
  }
}

TEST(HnswTest, HighRecallOnClusteredData) {
  const std::size_t n = 4000, d = 16, k = 10;
  Rng rng(3);
  FloatMatrix data = GenerateSynthetic(SyntheticKind::kGloveLike, n, d, rng, 32);
  HnswIndex index(d, HnswParams{.m = 16, .ef_construction = 200});
  index.AddBatch(data);

  FloatMatrix queries = GenerateSynthetic(SyntheticKind::kGloveLike, 50, d, rng, 32);
  auto gt = BruteForceKnnBatch(data, queries, k);

  std::vector<std::vector<VectorId>> results;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto res = index.Search(queries.row(i), k, 128);
    std::vector<VectorId> ids;
    for (const auto& r : res) ids.push_back(r.id);
    results.push_back(std::move(ids));
  }
  EXPECT_GT(MeanRecallAtK(results, gt, k), 0.9);
}

TEST(HnswTest, RecallImprovesWithEf) {
  const std::size_t n = 3000, d = 24, k = 10;
  FloatMatrix data = RandomData(n, d, 4);
  HnswIndex index(d, HnswParams{.m = 12, .ef_construction = 120});
  index.AddBatch(data);

  FloatMatrix queries = RandomData(30, d, 5);
  auto gt = BruteForceKnnBatch(data, queries, k);

  auto recall_at_ef = [&](std::size_t ef) {
    std::vector<std::vector<VectorId>> results;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      auto res = index.Search(queries.row(i), k, ef);
      std::vector<VectorId> ids;
      for (const auto& r : res) ids.push_back(r.id);
      results.push_back(std::move(ids));
    }
    return MeanRecallAtK(results, gt, k);
  };

  const double lo = recall_at_ef(10);
  const double hi = recall_at_ef(400);
  EXPECT_GE(hi, lo);
  EXPECT_GT(hi, 0.95);
}

TEST(HnswTest, DegreeBoundsRespected) {
  const std::size_t n = 1500, d = 8;
  FloatMatrix data = RandomData(n, d, 6);
  HnswParams params{.m = 6, .ef_construction = 60};
  HnswIndex index(d, params);
  index.AddBatch(data);

  for (VectorId id = 0; id < n; ++id) {
    const int level = index.LevelOf(id);
    for (int l = 0; l <= level; ++l) {
      const auto& adj = index.NeighborsAt(id, l);
      const std::size_t bound = (l == 0) ? params.max_m0() : params.m;
      EXPECT_LE(adj.size(), bound) << "node " << id << " level " << l;
      // No self-loops or duplicate edges.
      std::set<VectorId> uniq(adj.begin(), adj.end());
      EXPECT_EQ(uniq.size(), adj.size());
      EXPECT_EQ(uniq.count(id), 0u);
    }
  }
}

TEST(HnswTest, LevelDistributionGeometric) {
  const std::size_t n = 5000, d = 4;
  FloatMatrix data = RandomData(n, d, 7);
  HnswIndex index(d, HnswParams{.m = 16, .ef_construction = 40});
  index.AddBatch(data);

  std::size_t level0_only = 0;
  for (VectorId id = 0; id < n; ++id) {
    if (index.LevelOf(id) == 0) ++level0_only;
  }
  // With mult = 1/ln(16), P(level=0) = 1 - 1/16 ~ 0.9375.
  EXPECT_GT(level0_only, n * 0.90);
  EXPECT_LT(level0_only, n * 0.97);
  EXPECT_GE(index.ComputeStats().max_level, 1);
}

TEST(HnswTest, StatsAreConsistent) {
  const std::size_t n = 500, d = 8;
  FloatMatrix data = RandomData(n, d, 8);
  HnswIndex index(d, HnswParams{.m = 8, .ef_construction = 80});
  index.AddBatch(data);
  const HnswStats stats = index.ComputeStats();
  EXPECT_EQ(stats.num_nodes, n);
  EXPECT_EQ(stats.num_deleted, 0u);
  EXPECT_GT(stats.avg_out_degree_level0, 1.0);
  EXPECT_LE(stats.avg_out_degree_level0, 16.0);
}

TEST(HnswTest, VisitedCounterPopulated) {
  const std::size_t n = 1000, d = 8;
  FloatMatrix data = RandomData(n, d, 9);
  HnswIndex index(d, HnswParams{.m = 8, .ef_construction = 80});
  index.AddBatch(data);
  std::size_t visited = 0;
  index.Search(data.row(0), 5, 50, &visited);
  EXPECT_GT(visited, 5u);
  EXPECT_LT(visited, n);
}

TEST(HnswTest, RemoveExcludesFromResults) {
  const std::size_t n = 800, d = 8, k = 5;
  FloatMatrix data = RandomData(n, d, 10);
  HnswIndex index(d, HnswParams{.m = 8, .ef_construction = 80});
  index.AddBatch(data);

  // Query at an existing point: it must be its own nearest neighbor...
  auto before = index.Search(data.row(17), k, 100);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before[0].id, 17u);

  // ...until it is deleted.
  ASSERT_TRUE(PlanAndApply(index, 17).ok());
  EXPECT_TRUE(index.IsDeleted(17));
  EXPECT_EQ(index.size(), n - 1);
  auto after = index.Search(data.row(17), k, 100);
  for (const auto& r : after) EXPECT_NE(r.id, 17u);
}

TEST(HnswTest, RemoveErrorsAreClean) {
  HnswIndex index(4, HnswParams{});
  const float v[] = {0, 0, 0, 0};
  index.Add(v);
  EXPECT_EQ(PlanAndApply(index, 5).code(), Status::Code::kInvalidArgument);
  ASSERT_TRUE(PlanAndApply(index, 0).ok());
  EXPECT_EQ(PlanAndApply(index, 0).code(), Status::Code::kNotFound);
}

TEST(HnswTest, RecallSurvivesManyDeletions) {
  const std::size_t n = 2000, d = 12, k = 10;
  FloatMatrix data = RandomData(n, d, 11);
  HnswIndex index(d, HnswParams{.m = 12, .ef_construction = 120});
  index.AddBatch(data);

  // Delete 25% of the points (every 4th), then verify recall against
  // brute force over the survivors.
  Rng rng(12);
  std::set<VectorId> deleted;
  for (VectorId id = 0; id < n; id += 4) {
    ASSERT_TRUE(PlanAndApply(index, id).ok());
    deleted.insert(id);
  }

  FloatMatrix survivors(0, d);
  std::vector<VectorId> survivor_ids;
  for (VectorId id = 0; id < n; ++id) {
    if (deleted.count(id) == 0) {
      survivors.Append(data.row(id));
      survivor_ids.push_back(id);
    }
  }

  FloatMatrix queries = RandomData(25, d, 13);
  double recall_sum = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto got = index.Search(queries.row(i), k, 200);
    auto want = BruteForceKnn(survivors, queries.row(i), k);
    std::set<VectorId> want_ids;
    for (const auto& w : want) want_ids.insert(survivor_ids[w.id]);
    std::size_t hits = 0;
    for (const auto& g : got) {
      EXPECT_EQ(deleted.count(g.id), 0u) << "deleted id returned";
      if (want_ids.count(g.id) > 0) ++hits;
    }
    recall_sum += static_cast<double>(hits) / k;
  }
  EXPECT_GT(recall_sum / queries.size(), 0.85);
}

TEST(HnswTest, EntryPointSurvivesDeletion) {
  const std::size_t n = 300, d = 6;
  FloatMatrix data = RandomData(n, d, 14);
  HnswIndex index(d, HnswParams{.m = 8, .ef_construction = 60});
  index.AddBatch(data);
  // Delete many nodes including (statistically) high-level ones; the index
  // must remain searchable throughout.
  for (VectorId id = 0; id < 150; ++id) {
    ASSERT_TRUE(PlanAndApply(index, id).ok());
    auto res = index.Search(data.row(200), 3, 30);
    EXPECT_FALSE(res.empty()) << "after deleting " << id;
  }
}

TEST(HnswTest, IncrementalInsertMatchesBatchRecall) {
  const std::size_t n = 1500, d = 10, k = 10;
  FloatMatrix data = RandomData(n, d, 15);

  HnswIndex index(d, HnswParams{.m = 10, .ef_construction = 100});
  // Insert half, search, insert rest, verify the new points are findable.
  for (std::size_t i = 0; i < n / 2; ++i) index.Add(data.row(i));
  for (std::size_t i = n / 2; i < n; ++i) index.Add(data.row(i));

  FloatMatrix queries = RandomData(20, d, 16);
  auto gt = BruteForceKnnBatch(data, queries, k);
  std::vector<std::vector<VectorId>> results;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto res = index.Search(queries.row(i), k, 150);
    std::vector<VectorId> ids;
    for (const auto& r : res) ids.push_back(r.id);
    results.push_back(std::move(ids));
  }
  EXPECT_GT(MeanRecallAtK(results, gt, k), 0.9);
}

// Regression: the visited-epoch advance (and its wrap reset) must happen
// before a scan tags anything, so a wrapped epoch can never alias marks made
// earlier in the same insert. Two identical indexes — one primed to cross
// the uint32 epoch wrap mid-stream — must stay structurally identical
// through further inserts and return identical search results.
TEST(HnswTest, EpochWrapCannotAliasWithinInsert) {
  const std::size_t n = 1200, d = 8;
  FloatMatrix data = RandomData(n, d, 21);
  const HnswParams params{.m = 8, .ef_construction = 80, .seed = 55};
  HnswIndex control(d, params);
  control.AddBatch(data);
  HnswIndex wrapped(d, params);
  wrapped.AddBatch(data);

  // Stale tags are deliberately kept: under a buggy wrap they would alias a
  // post-wrap epoch and poison the insert beams.
  wrapped.PrimeVisitedEpochForTest(0xFFFFFFF0u);

  FloatMatrix extra = RandomData(80, d, 22);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    control.Add(extra.row(i));
    wrapped.Add(extra.row(i));  // epoch wraps during these inserts
  }
  for (VectorId id = n; id < n + extra.size(); ++id) {
    ASSERT_EQ(control.LevelOf(id), wrapped.LevelOf(id));
    for (int l = 0; l <= control.LevelOf(id); ++l) {
      EXPECT_EQ(control.NeighborsAt(id, l), wrapped.NeighborsAt(id, l))
          << "node " << id << " level " << l;
    }
  }

  wrapped.PrimeVisitedEpochForTest(0xFFFFFFFFu);
  FloatMatrix queries = RandomData(15, d, 23);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto a = control.Search(queries.row(i), 10, 100);
    const auto b = wrapped.Search(queries.row(i), 10, 100);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j].id, b[j].id);
  }
}

// Remove keeps a per-level live-node count, so recomputing the max level
// after deleting the entry point no longer rescans every node. Pin the
// observable contract: the reported max level always equals the true max
// over live nodes, down to the empty index and back up again.
TEST(HnswTest, RemoveMaintainsMaxLevelThroughEntryDeletions) {
  const std::size_t n = 400, d = 6;
  FloatMatrix data = RandomData(n, d, 24);
  HnswIndex index(d, HnswParams{.m = 8, .ef_construction = 60});
  index.AddBatch(data);

  auto true_max_level = [&] {
    int max_level = -1;
    for (VectorId id = 0; id < n; ++id) {
      if (!index.IsDeleted(id)) max_level = std::max(max_level, index.LevelOf(id));
    }
    return max_level;
  };

  // Repeatedly delete a node at the current top level (the entry point's
  // level), forcing the re-seat path every round.
  for (int round = 0; round < 60; ++round) {
    const int top = index.ComputeStats().max_level;
    ASSERT_EQ(top, true_max_level()) << "round " << round;
    VectorId victim = kInvalidVectorId;
    for (VectorId id = 0; id < n; ++id) {
      if (!index.IsDeleted(id) && index.LevelOf(id) == top) {
        victim = id;
        break;
      }
    }
    if (victim == kInvalidVectorId) break;
    ASSERT_TRUE(PlanAndApply(index, victim).ok());
  }
  EXPECT_EQ(index.ComputeStats().max_level, true_max_level());

  // Drain completely: the empty index reports level -1 and serves nothing,
  // and a fresh insert re-seats the entry point.
  for (VectorId id = 0; id < n; ++id) {
    if (!index.IsDeleted(id)) ASSERT_TRUE(PlanAndApply(index, id).ok());
  }
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.ComputeStats().max_level, -1);
  EXPECT_TRUE(index.Search(data.row(0), 5, 50).empty());
  index.Add(data.row(0));
  const auto res = index.Search(data.row(0), 1, 10);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, n);
}

// The entry point is an in-neighbor like any other: when one of its
// neighbors is deleted it is re-linked too (its repair search starts at
// itself), so its level-0 list never thins out.
TEST(HnswTest, EntryPointIsRepairedWhenItsNeighborIsDeleted) {
  const std::size_t n = 600, d = 8;
  FloatMatrix data = RandomData(n, d, 27);
  HnswIndex index(d, HnswParams{.m = 6, .ef_construction = 60});
  index.AddBatch(data);
  const VectorId entry = index.entry_point();
  for (int round = 0; round < 8; ++round) {
    const std::vector<VectorId> before = index.NeighborsAt(entry, 0);
    ASSERT_FALSE(before.empty());
    ASSERT_TRUE(PlanAndApply(index, before.front()).ok());
    ASSERT_EQ(index.entry_point(), entry);
    EXPECT_GE(index.NeighborsAt(entry, 0).size(), before.size())
        << "round " << round;
  }
}

// A delete is planned against the frozen graph and combined in (node, level)
// order, so the resulting graph does not depend on the pool width: removing
// the same ids from the calling thread (the pool fans out) and from inside a
// pool worker (ParallelFor runs inline) leaves identical bytes.
TEST(HnswDeterminismTest, RemoveBytesIndependentOfPoolWidth) {
  const std::size_t n = 2000, d = 12;
  FloatMatrix data = RandomData(n, d, 91);
  const HnswParams params{.m = 8, .ef_construction = 80, .seed = 5};
  std::vector<VectorId> victims;
  Rng rng(17);
  while (victims.size() < 60) {
    const auto id = static_cast<VectorId>(rng.UniformInt(0, n - 1));
    if (std::find(victims.begin(), victims.end(), id) == victims.end()) {
      victims.push_back(id);
    }
  }

  auto remove_all = [&] {
    HnswIndex index(d, params);
    index.AddBatch(data);
    // The entry point goes first, so the re-seat is part of the plan too.
    const VectorId entry = index.entry_point();
    PPANNS_CHECK(PlanAndApply(index, entry).ok());
    for (VectorId id : victims) {
      if (id != entry) PPANNS_CHECK(PlanAndApply(index, id).ok());
    }
    BinaryWriter w;
    index.Serialize(&w);
    return w.TakeBuffer();
  };

  const std::vector<std::uint8_t> wide = remove_all();
  const std::vector<std::uint8_t> narrow =
      ThreadPool::Global().Async(remove_all).get();
  EXPECT_EQ(wide, narrow);
}

// An insert is planned read-only and applied as an edit, so a shard can plan
// on its primary once and apply the same edit to every replica. The plan
// leaves the index's bytes untouched, and applying the edit (with the same
// vector) to the index and to a deserialized copy leaves both byte-identical.
// Deletes are interleaved, the entry point first, so inserts also plan
// against repaired lists and a re-seated entry point.
TEST(HnswDeterminismTest, PlannedInsertAppliesIdenticallyToACopy) {
  const std::size_t n = 500, d = 10;
  const std::size_t num_inserts = 240, num_deletes = 60;
  FloatMatrix data = RandomData(n, d, 61);
  FloatMatrix extra = RandomData(num_inserts, d, 62);
  HnswIndex a(d, HnswParams{.m = 6, .ef_construction = 60, .seed = 9});
  a.AddBatch(data);
  auto bytes = [](const HnswIndex& index) {
    BinaryWriter w;
    index.Serialize(&w);
    return w.TakeBuffer();
  };
  const std::vector<std::uint8_t> snapshot = bytes(a);
  BinaryReader reader(snapshot);
  Result<HnswIndex> copy = HnswIndex::Deserialize(&reader);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  HnswIndex& b = *copy;

  Rng rng(63);
  std::size_t inserts = 0, deletes = 0;
  while (inserts < num_inserts || deletes < num_deletes) {
    const std::vector<std::uint8_t> before = bytes(a);
    const bool remove = inserts == num_inserts ||
                        (deletes < num_deletes && rng.UniformInt(0, 4) == 0);
    if (remove) {
      VectorId id = a.entry_point();
      if (deletes > 0) {
        do {
          id = static_cast<VectorId>(rng.UniformInt(0, a.capacity() - 1));
        } while (a.IsDeleted(id));
      }
      Result<RemoveEdit> edit = a.PlanRemove(id);
      ASSERT_TRUE(edit.ok()) << edit.status().ToString();
      ASSERT_EQ(bytes(a), before) << "PlanRemove changed the index";
      a.ApplyRemove(*edit);
      b.ApplyRemove(*edit);
      ++deletes;
    } else {
      const float* v = extra.row(inserts++);
      const InsertEdit edit = a.PlanInsert(v);
      ASSERT_EQ(bytes(a), before) << "PlanInsert changed the index";
      ASSERT_EQ(edit.id, a.capacity());
      EXPECT_EQ(a.ApplyInsert(edit, v), edit.id);
      EXPECT_EQ(b.ApplyInsert(edit, v), edit.id);
    }
    ASSERT_EQ(bytes(a), bytes(b))
        << "copy diverged after " << inserts << " inserts, " << deletes
        << " deletes";
  }
  EXPECT_EQ(a.size(), n + num_inserts - num_deletes);
}

// A delete repair back-links only the neighbors a repaired node gained. So
// when a write lands on a node that was not repaired, every id it adds is a
// repaired source at that level whose planned list gained the node.
TEST(HnswTest, RepairBackLinksOnlyGainedEdges) {
  const std::size_t n = 800, d = 10;
  FloatMatrix data = RandomData(n, d, 81);
  const HnswParams params{.m = 6, .ef_construction = 60, .seed = 3};
  HnswIndex index(d, params);
  index.AddBatch(data);
  Rng rng(82);
  std::size_t back_links = 0;
  for (int round = 0; round < 80; ++round) {
    const VectorId id = RandomLive(index, rng);
    Result<RemoveEdit> edit = index.PlanRemove(id);
    ASSERT_TRUE(edit.ok()) << edit.status().ToString();
    // A repaired list held `id` and loses it, so it always carries a write.
    std::map<std::pair<VectorId, int>, const std::vector<VectorId>*> repaired;
    for (const RemoveEdit::ListWrite& w : edit->writes) {
      if (Contains(index.NeighborsAt(w.node, w.level), id)) {
        repaired[{w.node, w.level}] = &w.neighbors;
      }
    }
    for (const RemoveEdit::ListWrite& w : edit->writes) {
      if (repaired.count({w.node, w.level}) > 0) continue;
      const std::vector<VectorId> before = index.NeighborsAt(w.node, w.level);
      for (VectorId src : w.neighbors) {
        if (Contains(before, src)) continue;
        ++back_links;
        const auto it = repaired.find({src, w.level});
        ASSERT_NE(it, repaired.end())
            << "node " << w.node << " gained " << src
            << ", which was not repaired";
        // The source's repair gained the node. Back-links to the source
        // itself may fill its list after that, and the re-selection may then
        // drop the node again, so its final list holds the node or is full.
        const std::size_t full = w.level == 0 ? params.max_m0() : params.m;
        EXPECT_TRUE(Contains(*it->second, w.node) ||
                    it->second->size() == full);
        EXPECT_FALSE(Contains(index.NeighborsAt(src, w.level), w.node))
            << "back-link for an edge " << src << " kept";
      }
    }
    index.ApplyRemove(*edit);
  }
  EXPECT_GT(back_links, 0u);
}

// An edit carries only lists that change: no RemoveEdit or InsertEdit write
// equals the list it replaces. Small lists fill up, so many back-links go
// through the re-selection, which may keep a list as it is.
TEST(HnswTest, EditsCarryOnlyChangedLists) {
  const std::size_t n = 400, d = 8;
  FloatMatrix data = RandomData(n, d, 83);
  FloatMatrix extra = RandomData(200, d, 84);
  HnswIndex index(d, HnswParams{.m = 3, .ef_construction = 40, .seed = 4});
  index.AddBatch(data);
  Rng rng(85);
  std::size_t writes = 0;
  for (std::size_t inserted = 0; inserted < extra.size();) {
    std::vector<RemoveEdit::ListWrite> planned;
    if (rng.UniformInt(0, 2) == 0) {
      Result<RemoveEdit> edit = index.PlanRemove(RandomLive(index, rng));
      ASSERT_TRUE(edit.ok()) << edit.status().ToString();
      planned = edit->writes;
      for (const RemoveEdit::ListWrite& w : planned) {
        EXPECT_NE(w.neighbors, index.NeighborsAt(w.node, w.level))
            << "delete of " << edit->id << " rewrites node " << w.node
            << " level " << w.level << " unchanged";
      }
      index.ApplyRemove(*edit);
    } else {
      const float* v = extra.row(inserted++);
      const InsertEdit edit = index.PlanInsert(v);
      planned = edit.writes;
      for (const RemoveEdit::ListWrite& w : planned) {
        EXPECT_NE(w.neighbors, index.NeighborsAt(w.node, w.level))
            << "insert of " << edit.id << " rewrites node " << w.node
            << " level " << w.level << " unchanged";
      }
      index.ApplyInsert(edit, v);
    }
    writes += planned.size();
  }
  EXPECT_GT(writes, 0u);
}

// The level-0 block is an in-memory layout: after churn (the entry point
// deleted too), Serialize -> Deserialize -> Serialize is byte-equal, and the
// copy has the same lists, levels, tombstones and search ids. Both copies
// then take the same insert and stay byte-equal, so the loaded block grows
// like the built one.
TEST(HnswTest, LevelZeroBlockRoundTripsAfterChurn) {
  const std::size_t n = 600, d = 8;
  FloatMatrix data = RandomData(n, d, 86);
  FloatMatrix extra = RandomData(121, d, 87);
  HnswIndex index(d, HnswParams{.m = 5, .ef_construction = 50, .seed = 6});
  index.AddBatch(data);
  ASSERT_TRUE(PlanAndApply(index, index.entry_point()).ok());
  Rng rng(88);
  for (std::size_t i = 0; i + 1 < extra.size(); ++i) {
    index.Add(extra.row(i));
    if (i % 2 == 0) {
      ASSERT_TRUE(PlanAndApply(index, RandomLive(index, rng)).ok());
    }
  }

  const std::vector<std::uint8_t> bytes = Bytes(index);
  BinaryReader reader(bytes);
  Result<HnswIndex> loaded = HnswIndex::Deserialize(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Bytes(*loaded), bytes);
  ASSERT_EQ(loaded->capacity(), index.capacity());
  EXPECT_EQ(loaded->size(), index.size());
  EXPECT_EQ(loaded->entry_point(), index.entry_point());
  for (VectorId id = 0; id < index.capacity(); ++id) {
    ASSERT_EQ(loaded->LevelOf(id), index.LevelOf(id));
    ASSERT_EQ(loaded->IsDeleted(id), index.IsDeleted(id));
    for (int l = 0; l <= index.LevelOf(id); ++l) {
      EXPECT_EQ(loaded->NeighborsAt(id, l), index.NeighborsAt(id, l))
          << "node " << id << " level " << l;
    }
  }
  FloatMatrix queries = RandomData(20, d, 89);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto a = index.Search(queries.row(i), 10, 60);
    const auto b = loaded->Search(queries.row(i), 10, 60);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j].id, b[j].id);
  }

  const float* last = extra.row(extra.size() - 1);
  index.Add(last);
  loaded->Add(last);
  EXPECT_EQ(Bytes(*loaded), Bytes(index));
}

// 64-bit FNV-1a over a serialized index.
std::uint64_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

// Pins the serialized format of delete-free builds: a sequential and a wave
// build, each followed by a few single inserts. The constants were recorded
// with the per-node list layout the level-0 block replaced, so they also pin
// that the block changed the layout only. The distance kernels are
// bit-exact across ISAs, so the constants hold under every dispatch path.
TEST(HnswTest, BuildBytesMatchParentFormat) {
  const std::size_t n = 600, d = 12;
  FloatMatrix data = RandomData(n, d, 71);
  FloatMatrix extra = RandomData(20, d, 72);
  const HnswParams params{.m = 8, .ef_construction = 64, .seed = 13};
  HnswIndex sequential(d, params);
  sequential.AddBatch(data);
  HnswIndex waves(d, params);
  waves.AddBatchParallel(data, /*pool=*/nullptr, /*num_threads=*/3);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    sequential.Add(extra.row(i));
    waves.Add(extra.row(i));
  }
  EXPECT_EQ(Fnv1a(Bytes(sequential)), 0x7b5c4364f621e43dull);
  EXPECT_EQ(Fnv1a(Bytes(waves)), 0xfaf3391a8eb6bb01ull);
}

TEST(HnswTest, SerializeRoundTrip) {
  const std::size_t n = 400, d = 8, k = 5;
  FloatMatrix data = RandomData(n, d, 17);
  HnswIndex index(d, HnswParams{.m = 8, .ef_construction = 60, .seed = 99});
  index.AddBatch(data);
  ASSERT_TRUE(PlanAndApply(index, 3).ok());

  BinaryWriter w;
  index.Serialize(&w);
  BinaryReader r(w.buffer());
  auto loaded = HnswIndex::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->size(), index.size());
  EXPECT_EQ(loaded->dim(), index.dim());
  EXPECT_TRUE(loaded->IsDeleted(3));

  // Same graph -> identical search results.
  FloatMatrix queries = RandomData(10, d, 18);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto a = index.Search(queries.row(i), k, 60);
    auto b = loaded->Search(queries.row(i), k, 60);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j].id, b[j].id);
  }
}

TEST(HnswTest, DeserializeRejectsGarbage) {
  std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5, 6, 7, 8};
  BinaryReader r(garbage);
  EXPECT_FALSE(HnswIndex::Deserialize(&r).ok());
}

// A hand-written HNSW payload in the Serialize layout, two-dimensional rows
// of 0.5: the load checks see exactly the graph a test describes. The
// default is a valid two-node graph.
struct RawGraph {
  std::uint64_t m = 2;
  VectorId entry = 0;
  std::int32_t max_level = 0;
  std::uint64_t num_deleted = 0;
  std::vector<std::int32_t> levels = {0, 0};
  std::vector<std::uint8_t> deleted = {0, 0};
  std::vector<std::vector<std::vector<VectorId>>> lists = {{{1}}, {{0}}};
};

Result<HnswIndex> Load(const RawGraph& g) {
  const std::uint64_t dim = 2;
  BinaryWriter w;
  w.Put<std::uint32_t>(0x484E5357);  // "HNSW"
  w.Put<std::uint32_t>(1);
  w.Put<std::uint64_t>(dim);
  w.Put<std::uint64_t>(g.m);
  w.Put<std::uint64_t>(16);  // ef_construction
  w.Put<std::uint64_t>(1);   // seed
  w.Put<std::uint32_t>(g.entry);
  w.Put<std::int32_t>(g.max_level);
  w.Put<std::uint64_t>(g.num_deleted);
  w.PutVector(std::vector<float>(dim * g.levels.size(), 0.5f));
  w.Put<std::uint64_t>(g.levels.size());
  for (std::size_t v = 0; v < g.levels.size(); ++v) {
    w.Put<std::int32_t>(g.levels[v]);
    w.Put<std::uint8_t>(g.deleted[v]);
    for (const std::vector<VectorId>& list : g.lists[v]) w.PutVector(list);
  }
  BinaryReader r(w.buffer());
  return HnswIndex::Deserialize(&r);
}

void ExpectRejected(const RawGraph& g, const char* what) {
  const Result<HnswIndex> loaded = Load(g);
  EXPECT_EQ(loaded.status().code(), Status::Code::kIOError) << what;
}

TEST(HnswTest, DeserializeAcceptsHandMadeGraph) {
  Result<HnswIndex> loaded = Load(RawGraph{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  const float q[2] = {0.5f, 0.5f};
  EXPECT_EQ(loaded->Search(q, 2, 10).size(), 2u);
}

TEST(HnswTest, DeserializeRejectsNeighborOutOfRange) {
  RawGraph g;
  g.lists[0][0] = {1000000};
  ExpectRejected(g, "neighbor id 1000000 of a two-node graph");
}

TEST(HnswTest, DeserializeRejectsEdgeAboveNeighborLevel) {
  RawGraph g;
  g.levels = {1, 0};
  g.max_level = 1;
  g.lists[0] = {{1}, {1}};  // a level-1 edge to a level-0 node
  ExpectRejected(g, "level-1 edge to a level-0 node");
}

TEST(HnswTest, DeserializeRejectsOverfullList) {
  RawGraph g;  // m = 2: level 0 holds at most 4 ids, level 1 at most 2
  g.lists[0][0] = {1, 1, 1, 1, 1};
  ExpectRejected(g, "five ids at level 0");
  g = RawGraph{};
  g.levels = {1, 1};
  g.max_level = 1;
  g.lists = {{{1}, {1, 1, 1}}, {{0}, {0}}};
  ExpectRejected(g, "three ids at level 1");
}

TEST(HnswTest, DeserializeRejectsBadEntryPoint) {
  RawGraph g;
  g.entry = 2;
  ExpectRejected(g, "entry out of range");
  g = RawGraph{};
  g.max_level = 1;
  ExpectRejected(g, "entry below the recorded max level");
  g = RawGraph{};
  g.levels = {0, 1};
  g.lists[1] = {{0}, {}};
  ExpectRejected(g, "entry below the top live level");
  g = RawGraph{};
  g.deleted = {1, 0};
  g.num_deleted = 1;
  g.lists[0] = {{}};
  ExpectRejected(g, "deleted entry while a live node remains");
  g = RawGraph{};
  g.entry = kInvalidVectorId;
  g.max_level = -1;
  ExpectRejected(g, "no entry while live nodes remain");
  g = RawGraph{};
  g.deleted = {1, 1};
  g.num_deleted = 2;
  g.lists = {{{}}, {{}}};
  ExpectRejected(g, "an entry with no live node");
}

TEST(HnswTest, DeserializeRejectsDeletedCountMismatch) {
  RawGraph g;
  g.num_deleted = 7;
  ExpectRejected(g, "num_deleted 7 with no deleted flag");
  g = RawGraph{};
  g.deleted = {0, 1};
  g.lists[1] = {{}};
  g.lists[0] = {{}};
  ExpectRejected(g, "num_deleted 0 with one deleted flag");
}

// Parameter sweep: recall must stay high across m / efc combinations.
struct HnswSweepParam {
  std::size_t m;
  std::size_t efc;
};

class HnswParamSweep : public ::testing::TestWithParam<HnswSweepParam> {};

TEST_P(HnswParamSweep, ReasonableRecall) {
  const auto [m, efc] = GetParam();
  const std::size_t n = 2000, d = 16, k = 10;
  FloatMatrix data = RandomData(n, d, 19);
  HnswIndex index(d, HnswParams{.m = m, .ef_construction = efc});
  index.AddBatch(data);

  FloatMatrix queries = RandomData(20, d, 20);
  auto gt = BruteForceKnnBatch(data, queries, k);
  std::vector<std::vector<VectorId>> results;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto res = index.Search(queries.row(i), k, 200);
    std::vector<VectorId> ids;
    for (const auto& r : res) ids.push_back(r.id);
    results.push_back(std::move(ids));
  }
  EXPECT_GT(MeanRecallAtK(results, gt, k), 0.8)
      << "m=" << m << " efc=" << efc;
}

INSTANTIATE_TEST_SUITE_P(
    Params, HnswParamSweep,
    ::testing::Values(HnswSweepParam{4, 40}, HnswSweepParam{8, 80},
                      HnswSweepParam{16, 100}, HnswSweepParam{32, 200}),
    [](const ::testing::TestParamInfo<HnswSweepParam>& info) {
      return "m" + std::to_string(info.param.m) + "_efc" +
             std::to_string(info.param.efc);
    });

}  // namespace
}  // namespace ppanns
