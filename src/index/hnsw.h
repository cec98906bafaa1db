// Hierarchical Navigable Small World proximity graph (Malkov & Yashunin,
// TPAMI 2020) — the k-ANNS substrate of the paper's privacy-preserving index
// (Section V-A). Implemented from scratch.
//
// In the PP-ANNS scheme the HNSW graph is built over DCPE/SAP *ciphertexts*
// (never plaintexts), so its edges encode only approximate neighborhoods;
// the index itself is agnostic to what the float vectors are.
//
// Supported operations:
//  * PlanInsert / ApplyInsert — incremental insertion (Algorithm 1 of the
//                     HNSW paper, with the diversifying neighbor-selection
//                     heuristic), split into a read-only deterministic plan
//                     and a cheap apply; Add is the two in a row,
//  * AddBatchParallel — bulk insertion whose neighbor searches fan across
//                     build threads (a deterministic wave schedule); one
//                     graph's construction scales with cores, compounding
//                     with the cross-shard parallelism of the sharded builder,
//  * Search         — ef-bounded best-first search (Algorithms 2 & 5),
//  * PlanRemove / ApplyRemove — deletion with in-neighbor repair, the
//                     maintenance strategy of Section V-D of the PP-ANNS
//                     paper, split into a read-only deterministic plan and a
//                     cheap apply,
//  * Serialize/Deserialize — byte-exact persistence.

#ifndef PPANNS_INDEX_HNSW_H_
#define PPANNS_INDEX_HNSW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/search_context.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"

namespace ppanns {

class ThreadPool;

/// HNSW construction parameters (paper defaults in parentheses follow the
/// evaluation setup of Section VII-A: m=40, ef_construction=600; the library
/// defaults are the common general-purpose values).
struct HnswParams {
  std::size_t m = 16;                ///< max out-degree on levels > 0
  std::size_t ef_construction = 200; ///< beam width during insertion
  std::uint64_t seed = 0x5eed;       ///< level-assignment randomness

  /// Max out-degree at level 0 (2*m per the HNSW paper).
  std::size_t max_m0() const { return 2 * m; }
};

/// Aggregate graph statistics (used by tests and graph analyses).
struct HnswStats {
  std::size_t num_nodes = 0;       ///< live (non-deleted) nodes
  std::size_t num_deleted = 0;
  int max_level = -1;
  std::size_t total_edges_level0 = 0;
  double avg_out_degree_level0 = 0.0;
};

/// The planned effect of one deletion (HnswIndex::PlanRemove): the removed
/// id, every adjacency list the repair changes, sorted by (node, level), and
/// the entry state afterwards. A list the plan leaves as it is carries no
/// write. Applying it does no distance work, and the same edit applied to
/// byte-identical indexes leaves them byte-identical.
/// The flat backends' edit is just the tombstone: only `id` is set.
struct RemoveEdit {
  struct ListWrite {
    VectorId node = kInvalidVectorId;
    int level = 0;
    std::vector<VectorId> neighbors;
  };
  VectorId id = kInvalidVectorId;
  std::vector<ListWrite> writes;
  VectorId entry = kInvalidVectorId;
  int entry_level = -1;
};

/// The planned effect of one insertion (HnswIndex::PlanInsert): the new id
/// and level, the new node's out-list per level (0..level), every existing
/// list its back-links change, sorted by (node, level), and the entry state
/// afterwards. Like RemoveEdit, it carries only lists that change; applying
/// it does no distance work, and the same edit applied to byte-identical
/// indexes (with the same vector) leaves them byte-identical. The flat
/// backends' edit is just the id: `lists` and `writes` stay empty and
/// allocate nothing.
struct InsertEdit {
  VectorId id = kInvalidVectorId;
  int level = -1;
  std::vector<std::vector<VectorId>> lists;
  std::vector<RemoveEdit::ListWrite> writes;
  VectorId entry = kInvalidVectorId;
  int entry_level = -1;
};

/// The HNSW index. Owns a copy of the inserted vectors.
///
/// Thread-safety contract: `Search`, `PlanInsert` and `PlanRemove` are const
/// and safe to call concurrently with each other. Every mutation (Add,
/// ApplyInsert, AddBatchParallel, ApplyRemove) is exclusive against
/// everything else, including a move of the index object; the parallel
/// phases inside AddBatchParallel and PlanRemove only read the graph.
///
/// Every mutation is a pure function of the serialized state and its
/// arguments: a node's level comes from a stream seeded by params.seed and
/// its id, and deletes are planned deterministically. So an index and its
/// Serialize/Deserialize copy stay byte-identical under the same sequence of
/// mutations — what replicas and WAL replay rely on.
class HnswIndex {
 public:
  HnswIndex(std::size_t dim, HnswParams params);

  // The entry state is an atomic member, so the compiler-generated moves are
  // deleted; these move the packed value. Never move mid-build.
  HnswIndex(HnswIndex&& other) noexcept;
  HnswIndex& operator=(HnswIndex&& other) noexcept;
  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  /// Inserts a vector, returning its id (dense, monotonically increasing;
  /// ids of removed vectors are not reused): ApplyInsert(PlanInsert(v), v).
  VectorId Add(const float* v) { return ApplyInsert(PlanInsert(v), v); }

  /// Plans the insertion of `v` without changing the index. The new node's
  /// id is capacity() and its level the first draw of the level stream of a
  /// batch starting at that id (see AddBatchParallel). The plan runs the
  /// greedy descent and, at each level the node occupies, a beam search of
  /// width ef_construction plus the selection heuristic, all against the
  /// current graph; then, for every chosen neighbor, the list it will hold
  /// once the back-link is added (appended if there is room, re-selected by
  /// the heuristic otherwise), and the entry promotion. A pure function of
  /// the graph and `v`, so equal indexes produce equal edits. Const, so it
  /// may overlap Search; it must not overlap a mutation.
  InsertEdit PlanInsert(const float* v) const;

  /// Applies a PlanInsert edit made against this index's current state (or a
  /// byte-identical copy of it) with the same vector `v`: appends the row and
  /// the node, assigns the planned lists and stores the new entry state. No
  /// distance work. Returns the new id. Exclusive against Search and all
  /// other mutation.
  VectorId ApplyInsert(const InsertEdit& edit, const float* v);

  /// Inserts all rows of `data` in order: AddBatchParallel with one thread.
  void AddBatch(const FloatMatrix& data);

  /// Inserts all rows of `data` with the construction fanned across
  /// `num_threads` workers (0 picks the pool's width, or 1 without a pool).
  ///
  /// Determinism contract: the build is byte-reproducible regardless of the
  /// thread count. Every node's level comes from ONE stream seeded
  /// `params.seed` (mixed with the batch's base id so successive batches get
  /// fresh streams), and num_threads >= 2 runs a wave-barrier schedule —
  /// each wave's items search the *frozen* committed graph in parallel
  /// (read-only; their edge selections depend only on that snapshot), then
  /// commit sequentially in ascending id order. Any T >= 2 therefore
  /// produces the identical graph, and a serialized package built with
  /// build_threads=8 equals one built with build_threads=2 bit for bit
  /// (pinned by tests/index/hnsw_parallel_build_test.cc). num_threads == 1
  /// inserts one at a time through the same plan/apply as Add and stays
  /// bit-identical to AddBatch on an empty index; its graph differs from the
  /// wave-built one (each insert sees all previous ones, a wave's items do
  /// not see each other), with recall within noise of sequential. A wave
  /// item's back-links and entry promotion are planned at its commit, by the
  /// same planner as PlanInsert, against the graph as committed so far.
  ///
  /// `pool` runs a wave's searches when calling from outside it; from inside
  /// one of its workers (the per-shard sharded build) or with a
  /// single-worker pool, dedicated threads are spawned instead so
  /// shards x build_threads searches genuinely overlap and queued tasks can
  /// never deadlock behind blocked shard tasks. A null pool always uses
  /// dedicated threads.
  ///
  /// Takes a RowView so strided callers (the round-robin sharded build)
  /// insert straight from the interleaved SAP matrix without materializing a
  /// per-shard copy; a FloatMatrix converts implicitly.
  void AddBatchParallel(RowView data, ThreadPool* pool,
                        std::size_t num_threads = 0);

  /// Returns up to k (id, distance) pairs ascending by squared L2 distance.
  /// `ef_search` is the result-set beam width (clamped to >= k). If
  /// `visited_out` is non-null it receives the number of distance
  /// computations performed (used by interactive-baseline cost models).
  /// `ctx`, when non-null, is probed as the beam expands: the search stops
  /// early on cancellation / deadline / node budget (returning the
  /// best-so-far beam) and its stats accumulate nodes visited and distance
  /// computations. A null context is the zero-overhead legacy path and the
  /// returned ids are bit-for-bit identical either way unless the context
  /// trips.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t ef_search,
                               std::size_t* visited_out = nullptr,
                               SearchContext* ctx = nullptr) const;

  /// Plans the removal of `id` without changing the index: every
  /// in-neighbor of `id` loses its edge and is re-linked by a fresh neighbor
  /// search, per the deletion strategy of Section V-D (server-only, no
  /// data-owner help). A repaired node back-links only the neighbors it
  /// gained; an edge it kept had its back-link offered when the edge was
  /// made. InvalidArgument for an unknown id, NotFound for one already
  /// removed.
  ///
  /// The plan is a pure function of the graph: the in-neighbor scan (the
  /// O(n) part, a sweep over the contiguous level-0 block plus the upper
  /// lists of the few nodes that have them) and the repair searches fan
  /// across the global pool, but each repair searches the *frozen* graph and
  /// the results are combined in (node, level) order, so the edit is the
  /// same at any pool width — from the calling thread or inline inside a
  /// pool worker. The entry point, when it is an in-neighbor, is repaired
  /// too (its search starts at itself). Const, so it may overlap Search; it
  /// must not overlap a mutation.
  Result<RemoveEdit> PlanRemove(VectorId id) const;

  /// Applies a PlanRemove edit made against this index's current state (or a
  /// byte-identical copy of it): sets the tombstone, assigns the planned
  /// lists, clears `id`'s own edges and stores the new entry state. No
  /// distance work. Exclusive against Search and all other mutation.
  void ApplyRemove(const RemoveEdit& edit);

  bool IsDeleted(VectorId id) const;
  std::size_t size() const { return data_.size() - num_deleted_; }
  std::size_t capacity() const { return data_.size(); }
  std::size_t dim() const { return dim_; }
  const HnswParams& params() const { return params_; }
  const FloatMatrix& data() const { return data_; }
  /// The current entry point (kInvalidVectorId when empty).
  VectorId entry_point() const { return LoadEntry().entry; }

  /// A copy of the out-neighbors of `id` at `level` (for tests / graph
  /// analyses; the graph itself reads them in place through List).
  std::vector<VectorId> NeighborsAt(VectorId id, std::size_t level) const;
  int LevelOf(VectorId id) const;

  HnswStats ComputeStats() const;

  void Serialize(BinaryWriter* out) const;
  static Result<HnswIndex> Deserialize(BinaryReader* in);

  /// Test hook: plants `epoch` in a pooled visited list so the next scans
  /// cross the uint32 epoch wrap. Regression surface for the wrap-aliasing
  /// reorder (the wrap-safe advance now happens before a scan tags anything,
  /// never after).
  void PrimeVisitedEpochForTest(std::uint32_t epoch);

 private:
  /// A node's level, tombstone and upper lists. Its level-0 list lives in
  /// the shared block (level0_), which every node has.
  struct Node {
    int level = 0;
    bool deleted = false;
    /// upper[l - 1] = out-neighbors at level l, 1 <= l <= level.
    std::vector<std::vector<VectorId>> upper;
  };

  /// Epoch-tagged visited set; one borrowed per search via a free-list so
  /// concurrent const searches are safe.
  struct VisitedList {
    std::vector<std::uint32_t> tags;
    std::uint32_t epoch = 0;

    /// Advances to a fresh epoch *before* a scan uses it. On wrap the tags
    /// are cleared first, so a recycled tag value can never alias a visited
    /// mark within the scan (or within one multi-level insert).
    std::uint32_t NextEpoch() {
      if (++epoch == 0) {
        std::fill(tags.begin(), tags.end(), 0u);
        epoch = 1;
      }
      return epoch;
    }
  };
  class VisitedPool {
   public:
    std::unique_ptr<VisitedList> Acquire(std::size_t n);
    void Release(std::unique_ptr<VisitedList> vl);

   private:
    std::mutex mu_;
    std::vector<std::unique_ptr<VisitedList>> free_;
  };

  /// (entry point, max level) packed into one word so concurrent readers can
  /// never observe a torn pair (e.g. a promoted level with the old entry,
  /// whose adjacency would be too shallow for the descent).
  struct EntryState {
    VectorId entry = kInvalidVectorId;
    int level = -1;
  };
  static std::uint64_t PackEntry(EntryState s) {
    return (static_cast<std::uint64_t>(s.entry) << 32) |
           static_cast<std::uint32_t>(s.level);
  }
  EntryState LoadEntry() const {
    const std::uint64_t packed = entry_state_.load(std::memory_order_acquire);
    return EntryState{static_cast<VectorId>(packed >> 32),
                      static_cast<std::int32_t>(packed & 0xFFFFFFFFull)};
  }
  void StoreEntry(EntryState s) {
    entry_state_.store(PackEntry(s), std::memory_order_release);
  }

  float Distance(const float* a, VectorId b) const {
    return SquaredL2(a, data_.row(b), dim_);
  }

  /// The level stream of a batch whose first id is `base`: params.seed mixed
  /// with `base`, so levels depend only on persisted state.
  Rng LevelStream(VectorId base) const {
    return Rng(params_.seed ^ (0x9E3779B97F4A7C15ull * base));
  }

  /// Draws the level for a new node: floor(-ln(U) * (1/ln m)).
  int LevelFromRng(Rng& rng) const;

  /// Registers a live node at `level` in the per-level population counts
  /// (what lets PlanRemove recompute the max level in O(levels), not O(n)).
  void CountLevel(int level);

  /// Greedy descent at one level: repeatedly move to the closest neighbor.
  /// `dist_count` accumulates distance computations when non-null.
  VectorId GreedyClosest(const float* query, VectorId start, int level,
                         std::size_t* dist_count = nullptr) const;

  /// Best-first beam search at one level (Algorithm 2). Returns up to `ef`
  /// nearest candidates sorted ascending. Deleted nodes stay traversable but
  /// are not returned. `dist_count` accumulates distance computations;
  /// `ctx` (nullable) makes the expansion loop cancellable. Advances the
  /// visited list to a fresh epoch itself (wrap-safe, before any tagging).
  std::vector<Neighbor> SearchLayer(const float* query, VectorId entry,
                                    std::size_t ef, int level,
                                    VisitedList* visited,
                                    std::size_t* dist_count = nullptr,
                                    SearchContext* ctx = nullptr) const;

  /// The row of `id`; id == capacity() names the vector an insert is being
  /// planned for, which is not stored yet, and returns `pending`.
  const float* RowOf(VectorId id, const float* pending) const {
    return id < data_.size() ? data_.row(id) : pending;
  }

  /// The diversifying heuristic (Algorithm 4): selects up to `m` neighbors
  /// such that each kept candidate is closer to the base vector than to any
  /// already-kept neighbor. `pending` is the row of a candidate that is not
  /// stored yet (see RowOf).
  std::vector<VectorId> SelectNeighbors(const float* base,
                                        std::vector<Neighbor> candidates,
                                        std::size_t m,
                                        const float* pending = nullptr) const;

  std::size_t MaxDegree(int level) const {
    return level == 0 ? params_.max_m0() : params_.m;
  }

  /// Ids per node in the level-0 block: a count, then max_m0() slots.
  std::size_t Stride() const { return params_.max_m0() + 1; }

  /// Out-neighbors of `v` at `level`, read in place: the used prefix of v's
  /// block row at level 0, its upper list above. Valid until the next
  /// mutation.
  std::span<const VectorId> List(VectorId v, int level) const {
    if (level == 0) {
      const VectorId* row = level0_.data() + v * Stride();
      return {row + 1, row[0]};
    }
    return nodes_[v].upper[level - 1];
  }

  /// Replaces v's list at `level` (at most MaxDegree(level) ids).
  void SetList(VectorId v, int level, std::span<const VectorId> list);

  /// Appends an empty level-0 row for the next node.
  void AppendRow();

  /// Adds the back-link `src` to `list`, the out-list of `owner` at `level`:
  /// nothing if present, appended if there is room, otherwise the list is
  /// re-selected with the heuristic over its edges plus `src`. `pending` is
  /// src's row when src is not stored yet (see RowOf).
  void LinkBack(std::vector<VectorId>* list, VectorId owner, int level,
                VectorId src, const float* pending = nullptr) const;

  /// The search half of an insert at `level`: greedy descent from `state`,
  /// then beam search + heuristic at each level the node occupies, against
  /// the current graph. Returns the out-list per level 0..level (empty above
  /// the entry level).
  std::vector<std::vector<VectorId>> ChooseNeighbors(const float* v, int level,
                                                     EntryState state) const;

  /// The rest of an insert plan for node `id` (row `v`, not stored yet) with
  /// out-lists `lists`: each chosen neighbor's list after LinkBack, against
  /// the current graph and sorted by (node, level), and the entry promotion
  /// against `state`.
  InsertEdit FinishInsert(VectorId id, const float* v, int level,
                          std::vector<std::vector<VectorId>> lists,
                          EntryState state) const;

  /// PlanInsert at a given level: what Add and the one-thread batch build
  /// plan with.
  InsertEdit PlanInsertAt(const float* v, int level) const;

  /// The level of `v` as an edit sees it: the node an insert appends (`added`
  /// at `added_level`) counts, and an id the index does not hold is -1.
  int EditLevel(VectorId v, VectorId added, int added_level) const {
    if (v == added) return added_level;
    return v < nodes_.size() ? nodes_[v].level : -1;
  }

  /// Checks an edit's list writes and entry state against this index before
  /// any of it is applied (see EditLevel for `added`): every written node
  /// holds the written level, every list fits MaxDegree, every neighbor
  /// reaches the level, and the entry holds the entry level. Keeps an edit
  /// planned against another index from writing out of bounds or leaving a
  /// descent that cannot be walked.
  void CheckEdit(const std::vector<RemoveEdit::ListWrite>& writes,
                 EntryState entry, VectorId added, int added_level) const;

  /// Assigns every planned list of a checked edit.
  void AssignLists(const std::vector<RemoveEdit::ListWrite>& writes);

  /// PlanRemove's repair of in-neighbor `v` at `level` against the frozen
  /// graph: descent from `state`, a beam search at `level` that may pick
  /// neither `v` nor `removed`, merged with v's surviving edges and
  /// re-selected by the heuristic. Returns v's new out-list.
  std::vector<VectorId> PlanRepair(VectorId v, int level, VectorId removed,
                                   EntryState state,
                                   VisitedList* visited) const;

  std::size_t dim_;
  HnswParams params_;
  double level_mult_;
  FloatMatrix data_;
  std::vector<Node> nodes_;
  /// The level-0 lists, Stride() ids per node in id order (hnswlib's
  /// layout): the count, then the neighbors, then kInvalidVectorId in every
  /// unused slot. The fill lets the in-neighbor sweep compare whole rows
  /// without reading the count; a tombstone's row holds no id.
  std::vector<VectorId> level0_;
  /// Packed EntryState. Single source of truth for (entry point, max level).
  std::atomic<std::uint64_t> entry_state_;
  std::size_t num_deleted_ = 0;
  /// level_counts_[l] = live nodes whose top level is l. Lets PlanRemove find
  /// the new max level without rescanning every node per tombstone.
  std::vector<std::size_t> level_counts_;
  // Behind unique_ptr: the pool's mutex would otherwise make the index
  // non-movable.
  mutable std::unique_ptr<VisitedPool> visited_pool_;
};

}  // namespace ppanns

#endif  // PPANNS_INDEX_HNSW_H_
