#include "index/hnsw.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <mutex>
#include <queue>
#include <span>
#include <thread>
#include <tuple>
#include <utility>

#include "common/thread_pool.h"

namespace ppanns {

namespace {

/// Min-heap comparator on distance (closest on top).
struct FartherFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    return a.distance > b.distance || (a.distance == b.distance && a.id > b.id);
  }
};

/// The largest m Deserialize accepts (a level-0 row is 2m + 1 ids).
constexpr std::uint64_t kMaxLoadM = 512;

}  // namespace

std::unique_ptr<HnswIndex::VisitedList> HnswIndex::VisitedPool::Acquire(
    std::size_t n) {
  std::unique_ptr<VisitedList> vl;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      vl = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (!vl) vl = std::make_unique<VisitedList>();
  if (vl->tags.size() < n) vl->tags.resize(n, 0);
  // The epoch is NOT advanced here: every scan calls VisitedList::NextEpoch
  // at its own start, so the wrap-clearing reset always precedes the first
  // tag write of the epoch that uses it.
  return vl;
}

void HnswIndex::VisitedPool::Release(std::unique_ptr<VisitedList> vl) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(vl));
}

HnswIndex::HnswIndex(std::size_t dim, HnswParams params)
    : dim_(dim),
      params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(std::max<std::size_t>(params.m, 2)))),
      data_(0, dim),
      entry_state_(PackEntry(EntryState{})),
      visited_pool_(std::make_unique<VisitedPool>()) {
  PPANNS_CHECK(dim > 0);
  PPANNS_CHECK(params.m >= 2);
}

HnswIndex::HnswIndex(HnswIndex&& other) noexcept
    : dim_(other.dim_),
      params_(other.params_),
      level_mult_(other.level_mult_),
      data_(std::move(other.data_)),
      nodes_(std::move(other.nodes_)),
      level0_(std::move(other.level0_)),
      entry_state_(other.entry_state_.load(std::memory_order_relaxed)),
      num_deleted_(other.num_deleted_),
      level_counts_(std::move(other.level_counts_)),
      visited_pool_(std::move(other.visited_pool_)) {}

HnswIndex& HnswIndex::operator=(HnswIndex&& other) noexcept {
  if (this == &other) return *this;
  dim_ = other.dim_;
  params_ = other.params_;
  level_mult_ = other.level_mult_;
  data_ = std::move(other.data_);
  nodes_ = std::move(other.nodes_);
  level0_ = std::move(other.level0_);
  entry_state_.store(other.entry_state_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  num_deleted_ = other.num_deleted_;
  level_counts_ = std::move(other.level_counts_);
  visited_pool_ = std::move(other.visited_pool_);
  return *this;
}

int HnswIndex::LevelFromRng(Rng& rng) const {
  const double u = rng.Uniform(0.0, 1.0);
  const double r = -std::log(std::max(u, 1e-300)) * level_mult_;
  return static_cast<int>(r);
}

void HnswIndex::CountLevel(int level) {
  if (static_cast<std::size_t>(level) >= level_counts_.size()) {
    level_counts_.resize(level + 1, 0);
  }
  ++level_counts_[level];
}

VectorId HnswIndex::GreedyClosest(const float* query, VectorId start,
                                  int level, std::size_t* dist_count) const {
  VectorId cur = start;
  float cur_dist = Distance(query, cur);
  if (dist_count != nullptr) ++*dist_count;
  const float* rows[kKernelBlock];
  float dists[kKernelBlock];
  bool improved = true;
  while (improved) {
    improved = false;
    // Score the whole adjacency through the batched kernel, then apply the
    // same sequential improve rule — identical hops, fewer pointer chases.
    const std::span<const VectorId> adj = List(cur, level);
    for (std::size_t i = 0; i < adj.size(); i += kKernelBlock) {
      const std::size_t bn = std::min(kKernelBlock, adj.size() - i);
      for (std::size_t j = 0; j < bn; ++j) rows[j] = data_.row(adj[i + j]);
      L2Batch(query, rows, bn, dim_, dists);
      if (dist_count != nullptr) *dist_count += bn;
      for (std::size_t j = 0; j < bn; ++j) {
        if (dists[j] < cur_dist) {
          cur_dist = dists[j];
          cur = adj[i + j];
          improved = true;
        }
      }
    }
  }
  return cur;
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query, VectorId entry,
                                             std::size_t ef, int level,
                                             VisitedList* visited,
                                             std::size_t* dist_count,
                                             SearchContext* ctx) const {
  // Fresh epoch first, tags second: the wrap reset can therefore never alias
  // a mark made earlier in the same insert or search.
  const std::uint32_t epoch = visited->NextEpoch();
  auto& tags = visited->tags;

  // candidates: min-heap by distance (expansion frontier);
  // results: max-heap of the ef best found so far.
  std::priority_queue<Neighbor, std::vector<Neighbor>, FartherFirst> candidates;
  std::priority_queue<Neighbor> results;

  const float entry_dist = Distance(query, entry);
  if (dist_count != nullptr) ++*dist_count;
  std::size_t scored = 1;  // nodes whose distance this scan computed
  // Nodes scored before this scan started (greedy descent / upper layers)
  // count against the query-wide node budget.
  const std::size_t prior = ctx != nullptr ? ctx->stats.nodes_visited : 0;
  CancelProbe probe(ctx);
  candidates.push(Neighbor{entry, entry_dist});
  tags[entry] = epoch;
  if (!nodes_[entry].deleted) results.push(Neighbor{entry, entry_dist});

  bool stopped = false;
  while (!candidates.empty() && !stopped) {
    const Neighbor cand = candidates.top();
    if (results.size() >= ef && cand.distance > results.top().distance) break;
    candidates.pop();

    // Blocked expansion: collect up to kKernelBlock unvisited neighbors
    // (prefetching their rows), score them in one batched kernel call, then
    // offer them to the heaps in the original adjacency order. The budget
    // probe keeps node granularity — collection slot bn answers exactly the
    // probe the unblocked loop would have asked for that node — so blocked
    // and unblocked scans stop on the same node and return identical ids.
    const std::span<const VectorId> adj = List(cand.id, level);
    VectorId block[kKernelBlock];
    const float* rows[kKernelBlock];
    float dists[kKernelBlock];
    std::size_t ai = 0;
    while (ai < adj.size() && !stopped) {
      std::size_t bn = 0;
      for (; ai < adj.size() && bn < kKernelBlock; ++ai) {
        const VectorId nb = adj[ai];
        if (tags[nb] == epoch) continue;
        // Node granularity, not pop granularity: a pop can score up to 2m
        // neighbors, which would stretch the stride by that factor.
        if (probe.ShouldStop(prior + scored + bn)) {
          stopped = true;
          break;
        }
        tags[nb] = epoch;
        block[bn] = nb;
        rows[bn] = data_.row(nb);
        PrefetchRead(rows[bn]);
        ++bn;
      }
      if (bn == 0) continue;
      L2Batch(query, rows, bn, dim_, dists);
      if (dist_count != nullptr) *dist_count += bn;
      scored += bn;
      for (std::size_t j = 0; j < bn; ++j) {
        const float d = dists[j];
        const VectorId nb = block[j];
        if (results.size() < ef || d < results.top().distance) {
          candidates.push(Neighbor{nb, d});
          // Deleted nodes stay traversable (their edges hold the graph
          // together mid-repair) but are not returned.
          if (!nodes_[nb].deleted) {
            results.push(Neighbor{nb, d});
            if (results.size() > ef) results.pop();
          }
        }
      }
    }
  }

  if (ctx != nullptr) {
    ctx->stats.nodes_visited += scored;
    ctx->stats.distance_computations += scored;
  }
  std::vector<Neighbor> out(results.size());
  for (std::size_t i = results.size(); i > 0; --i) {
    out[i - 1] = results.top();
    results.pop();
  }
  return out;  // ascending by distance
}

std::vector<VectorId> HnswIndex::SelectNeighbors(const float* base,
                                                 std::vector<Neighbor> candidates,
                                                 std::size_t m,
                                                 const float* pending) const {
  std::sort(candidates.begin(), candidates.end());
  std::vector<VectorId> selected;
  selected.reserve(m);
  // Algorithm 4 heuristic: keep c only if it is closer to the base than to
  // every already-selected neighbor; this spreads edges across directions.
  for (const Neighbor& c : candidates) {
    if (selected.size() >= m) break;
    bool diverse = true;
    for (VectorId s : selected) {
      if (SquaredL2(RowOf(c.id, pending), RowOf(s, pending), dim_) <
          c.distance) {
        diverse = false;
        break;
      }
    }
    if (diverse) selected.push_back(c.id);
  }
  // Fill remaining slots with the closest rejected candidates
  // (keepPrunedConnections of the HNSW paper).
  if (selected.size() < m) {
    for (const Neighbor& c : candidates) {
      if (selected.size() >= m) break;
      if (std::find(selected.begin(), selected.end(), c.id) == selected.end()) {
        selected.push_back(c.id);
      }
    }
  }
  return selected;
}

void HnswIndex::LinkBack(std::vector<VectorId>* list, VectorId owner,
                         int level, VectorId src, const float* pending) const {
  if (std::find(list->begin(), list->end(), src) != list->end()) return;
  const std::size_t max_degree = MaxDegree(level);
  if (list->size() < max_degree) {
    list->push_back(src);
    return;
  }
  // Overflow: re-select the owner's adjacency with the heuristic over its
  // existing edges + the new one.
  std::vector<Neighbor> cands;
  cands.reserve(list->size() + 1);
  const float* owner_vec = data_.row(owner);
  for (VectorId existing : *list) {
    cands.push_back(
        Neighbor{existing, SquaredL2(owner_vec, data_.row(existing), dim_)});
  }
  cands.push_back(
      Neighbor{src, SquaredL2(owner_vec, RowOf(src, pending), dim_)});
  *list = SelectNeighbors(owner_vec, std::move(cands), max_degree, pending);
}

InsertEdit HnswIndex::PlanInsert(const float* v) const {
  Rng stream = LevelStream(static_cast<VectorId>(capacity()));
  return PlanInsertAt(v, LevelFromRng(stream));
}

InsertEdit HnswIndex::PlanInsertAt(const float* v, int level) const {
  const EntryState state = LoadEntry();
  return FinishInsert(static_cast<VectorId>(capacity()), v, level,
                      ChooseNeighbors(v, level, state), state);
}

std::vector<std::vector<VectorId>> HnswIndex::ChooseNeighbors(
    const float* v, int level, EntryState state) const {
  std::vector<std::vector<VectorId>> lists(level + 1);
  if (state.entry == kInvalidVectorId) return lists;

  // Greedy descent through layers above the new node's level.
  VectorId cur = state.entry;
  for (int l = state.level; l > level; --l) cur = GreedyClosest(v, cur, l);

  // Beam search + heuristic at each level the node occupies. Each
  // SearchLayer call advances the visited list to its own fresh epoch. A
  // level's lists are only written by the apply, and a level-l write never
  // touches a level-(l-1) list, so planning every level against the graph
  // before the insert gives the lists a level-by-level link would.
  auto visited = visited_pool_->Acquire(nodes_.size());
  for (int l = std::min(level, state.level); l >= 0; --l) {
    std::vector<Neighbor> cands =
        SearchLayer(v, cur, params_.ef_construction, l, visited.get());
    if (cands.empty()) continue;
    cur = cands.front().id;  // closest found feeds the next level down
    lists[l] = SelectNeighbors(v, std::move(cands), params_.m);
  }
  visited_pool_->Release(std::move(visited));
  return lists;
}

InsertEdit HnswIndex::FinishInsert(VectorId id, const float* v, int level,
                                   std::vector<std::vector<VectorId>> lists,
                                   EntryState state) const {
  InsertEdit edit;
  edit.id = id;
  edit.level = level;
  // Each chosen neighbor is back-linked once per insert, so its final list
  // is the LinkBack rule applied to its current one. A full list whose
  // re-selection keeps it as it is carries no write.
  std::size_t links = 0;
  for (const std::vector<VectorId>& list : lists) links += list.size();
  edit.writes.reserve(links);
  for (int l = 0; l <= level; ++l) {
    for (VectorId nb : lists[l]) {
      const std::span<const VectorId> current = List(nb, l);
      RemoveEdit::ListWrite& w = edit.writes.emplace_back();
      w.node = nb;
      w.level = l;
      w.neighbors.reserve(current.size() + 1);  // room for the back-link
      w.neighbors.assign(current.begin(), current.end());
      LinkBack(&w.neighbors, nb, l, id, v);
      if (std::ranges::equal(w.neighbors, current)) edit.writes.pop_back();
    }
  }
  std::sort(edit.writes.begin(), edit.writes.end(),
            [](const RemoveEdit::ListWrite& a, const RemoveEdit::ListWrite& b) {
              return std::pair(a.node, a.level) < std::pair(b.node, b.level);
            });
  edit.lists = std::move(lists);
  const bool promote = state.entry == kInvalidVectorId || level > state.level;
  edit.entry = promote ? id : state.entry;
  edit.entry_level = promote ? level : state.level;
  return edit;
}

VectorId HnswIndex::ApplyInsert(const InsertEdit& edit, const float* v) {
  PPANNS_CHECK(edit.id == nodes_.size() && edit.level >= 0 &&
               edit.lists.size() == static_cast<std::size_t>(edit.level) + 1 &&
               edit.entry_level >= 0);
  for (int l = 0; l <= edit.level; ++l) {
    PPANNS_CHECK(edit.lists[l].size() <= MaxDegree(l));
    for (VectorId nb : edit.lists[l]) {
      PPANNS_CHECK(nb != edit.id && EditLevel(nb, edit.id, edit.level) >= l);
    }
  }
  CheckEdit(edit.writes, EntryState{edit.entry, edit.entry_level}, edit.id,
            edit.level);
  data_.Append(v);
  Node node;
  node.level = edit.level;
  node.upper.assign(edit.lists.begin() + 1, edit.lists.end());
  nodes_.push_back(std::move(node));
  AppendRow();
  SetList(edit.id, 0, edit.lists[0]);
  CountLevel(edit.level);
  AssignLists(edit.writes);
  StoreEntry(EntryState{edit.entry, edit.entry_level});
  return edit.id;
}

void HnswIndex::CheckEdit(const std::vector<RemoveEdit::ListWrite>& writes,
                          EntryState entry, VectorId added,
                          int added_level) const {
  for (const RemoveEdit::ListWrite& w : writes) {
    PPANNS_CHECK(w.level >= 0 &&
                 w.level <= EditLevel(w.node, added, added_level) &&
                 w.neighbors.size() <= MaxDegree(w.level));
    for (VectorId nb : w.neighbors) {
      // Every node holds level 0, so there the id range is the whole check.
      PPANNS_CHECK(w.level == 0
                       ? nb < nodes_.size() || nb == added
                       : EditLevel(nb, added, added_level) >= w.level);
    }
  }
  PPANNS_CHECK(entry.level < 0
                   ? entry.entry == kInvalidVectorId
                   : EditLevel(entry.entry, added, added_level) >= entry.level);
}

void HnswIndex::AssignLists(const std::vector<RemoveEdit::ListWrite>& writes) {
  for (const RemoveEdit::ListWrite& w : writes) {
    SetList(w.node, w.level, w.neighbors);
  }
}

void HnswIndex::SetList(VectorId v, int level, std::span<const VectorId> list) {
  if (level > 0) {
    nodes_[v].upper[level - 1].assign(list.begin(), list.end());
    return;
  }
  VectorId* row = level0_.data() + v * Stride();
  row[0] = static_cast<VectorId>(list.size());
  std::copy(list.begin(), list.end(), row + 1);
  std::fill(row + 1 + list.size(), row + Stride(), kInvalidVectorId);
}

void HnswIndex::AppendRow() {
  // resize grows the block geometrically, so appends stay amortized O(1).
  level0_.resize(level0_.size() + Stride(), kInvalidVectorId);
  level0_[level0_.size() - Stride()] = 0;
}

void HnswIndex::AddBatch(const FloatMatrix& batch) {
  AddBatchParallel(batch, /*pool=*/nullptr, /*num_threads=*/1);
}

void HnswIndex::AddBatchParallel(RowView batch, ThreadPool* pool,
                                 std::size_t num_threads) {
  PPANNS_CHECK(batch.dim() == dim_);
  const std::size_t n = batch.size();
  if (n == 0) return;
  std::size_t threads = num_threads;
  if (threads == 0) {
    threads = pool != nullptr ? std::max<std::size_t>(pool->num_threads(), 1) : 1;
  }
  threads = std::min(threads, n);

  // One level stream, seeded params.seed and mixed with the batch's base id
  // so successive batches draw fresh sequences, assigns every node's level
  // regardless of the thread count — half of the byte-reproducibility
  // contract (the wave schedule below is the other half).
  const VectorId base = static_cast<VectorId>(nodes_.size());
  std::vector<int> levels(n);
  {
    Rng level_stream = LevelStream(base);
    for (std::size_t i = 0; i < n; ++i) levels[i] = LevelFromRng(level_stream);
  }
  nodes_.reserve(nodes_.size() + n);
  level0_.reserve((nodes_.size() + n) * Stride());
  data_.data().reserve((static_cast<std::size_t>(base) + n) * dim_);
  auto insert_one = [&](std::size_t i) {
    ApplyInsert(PlanInsertAt(batch.row(i), levels[i]), batch.row(i));
  };

  if (threads <= 1) {
    // Sequential path: one-at-a-time insertion (each insert sees every
    // previous one), through the same plan/apply as Add.
    for (std::size_t i = 0; i < n; ++i) insert_one(i);
    return;
  }

  // An empty index takes its first element as the seed entry point (there
  // are no peers to link it to yet).
  std::size_t next = 0;
  if (LoadEntry().entry == kInvalidVectorId) insert_one(next++);

  // Wave-barrier schedule, independent of the thread count: each wave's
  // items run a read-only search over the graph as committed at the wave
  // start (same-wave peers are not in it yet), choosing per-level neighbors
  // that depend only on that frozen snapshot; the items then commit
  // sequentially in ascending id order, each planning its back-links
  // against the graph as committed so far. Any T >= 2 therefore produces
  // identical bytes. Waves grow with the committed count (each insert still
  // sees >= 2/3 of the graph a sequential insert would), so recall stays
  // within noise of the sequential build while the search phase — the bulk
  // of construction cost — parallelizes fully.
  while (next < n) {
    const std::size_t wave =
        std::min(n - next, std::max<std::size_t>(1, capacity() / 2));
    const EntryState state = LoadEntry();
    std::vector<std::vector<std::vector<VectorId>>> chosen(wave);
    auto plan_item = [&](std::size_t w) {
      chosen[w] = ChooseNeighbors(batch.row(next + w), levels[next + w], state);
    };

    const std::size_t wave_threads = std::min(threads, wave);
    auto run_span = [&plan_item, wave, wave_threads](std::size_t t) {
      for (std::size_t w = t; w < wave; w += wave_threads) plan_item(w);
    };
    if (wave_threads <= 1) {
      run_span(0);
    } else if (pool != nullptr && !pool->InWorker() && pool->num_threads() > 1) {
      std::vector<std::future<void>> futures;
      futures.reserve(wave_threads);
      for (std::size_t t = 0; t < wave_threads; ++t) {
        futures.push_back(pool->Async([&run_span, t] { run_span(t); }));
      }
      for (auto& f : futures) f.get();
    } else {
      // Inside a pool worker (the sharded build) or without a usable pool:
      // dedicated threads can never deadlock behind blocked shard tasks.
      std::vector<std::thread> workers;
      workers.reserve(wave_threads - 1);
      for (std::size_t t = 1; t < wave_threads; ++t) {
        workers.emplace_back(run_span, t);
      }
      run_span(0);
      for (auto& w : workers) w.join();
    }

    // Commit phase (sequential, ascending id). Back-links only touch
    // frozen-graph nodes, so a same-wave peer's adjacency is never read
    // before its own commit.
    for (std::size_t w = 0; w < wave; ++w) {
      const float* row = batch.row(next + w);
      ApplyInsert(FinishInsert(static_cast<VectorId>(capacity()), row,
                               levels[next + w], std::move(chosen[w]),
                               LoadEntry()),
                  row);
    }
    next += wave;
  }
}

std::vector<Neighbor> HnswIndex::Search(const float* query, std::size_t k,
                                        std::size_t ef_search,
                                        std::size_t* visited_out,
                                        SearchContext* ctx) const {
  if (visited_out != nullptr) *visited_out = 0;
  const EntryState state = LoadEntry();
  if (state.entry == kInvalidVectorId) return {};
  const std::size_t ef = std::max(ef_search, k);

  // Greedy descent through the upper layers. Its hops are few (O(log n)),
  // so the context is only charged for them, not probed.
  std::size_t descent = 0;
  VectorId cur = state.entry;
  for (int l = state.level; l > 0; --l) {
    cur = GreedyClosest(query, cur, l, &descent);
  }
  if (visited_out != nullptr) *visited_out += descent;
  if (ctx != nullptr) {
    ctx->stats.nodes_visited += descent;
    ctx->stats.distance_computations += descent;
  }
  auto visited = visited_pool_->Acquire(nodes_.size());
  std::vector<Neighbor> results =
      SearchLayer(query, cur, ef, 0, visited.get(), visited_out, ctx);
  visited_pool_->Release(std::move(visited));
  if (results.size() > k) results.resize(k);
  return results;
}

Result<RemoveEdit> HnswIndex::PlanRemove(VectorId id) const {
  if (id >= nodes_.size()) return Status::InvalidArgument("HNSW: bad id");
  if (nodes_[id].deleted) return Status::NotFound("HNSW: already deleted");
  const EntryState state = LoadEntry();
  ThreadPool& pool = ThreadPool::Global();

  // 1. In-neighbors of `id`, per level (Section V-D: deletion is repaired
  // server-side by re-linking the affected in-neighbors). The scan is the
  // O(n) part, so it is chunked across the pool; sorting by (node, level)
  // makes the list independent of how the chunks finished.
  using Slot = std::pair<VectorId, int>;  // (node, level)
  std::vector<Slot> repairs;
  std::mutex repairs_mu;
  const std::size_t stride = Stride();
  pool.ParallelFor(nodes_.size(), [&](std::size_t begin, std::size_t end) {
    std::vector<Slot> local;
    // Level 0 compares every slot of each fixed-stride row, without a branch
    // or the count: unused slots hold kInvalidVectorId, which is never `id`.
    // The loop vectorizes; only a hit reads the node.
    const VectorId* row = level0_.data() + begin * stride + 1;
    for (std::size_t v = begin; v < end; ++v, row += stride) {
      unsigned hit = 0;
      for (std::size_t j = 0; j + 1 < stride; ++j) hit |= row[j] == id;
      if (hit != 0 && v != id && !nodes_[v].deleted) {
        local.emplace_back(static_cast<VectorId>(v), 0);
      }
    }
    for (std::size_t v = begin; v < end; ++v) {
      const Node& node = nodes_[v];
      if (v == id || node.deleted) continue;
      for (int l = 1; l <= node.level; ++l) {
        const std::vector<VectorId>& adj = node.upper[l - 1];
        if (std::find(adj.begin(), adj.end(), id) != adj.end()) {
          local.emplace_back(static_cast<VectorId>(v), l);
        }
      }
    }
    if (!local.empty()) {
      std::lock_guard<std::mutex> lock(repairs_mu);
      repairs.insert(repairs.end(), local.begin(), local.end());
    }
  });
  std::sort(repairs.begin(), repairs.end());

  // 2. Every repair searches the frozen graph, so the repairs are
  // independent of each other and of the pool width.
  std::vector<std::vector<VectorId>> planned(repairs.size());
  pool.ParallelFor(repairs.size(), [&](std::size_t begin, std::size_t end) {
    auto visited = visited_pool_->Acquire(nodes_.size());
    for (std::size_t i = begin; i < end; ++i) {
      planned[i] = PlanRepair(repairs[i].first, repairs[i].second, id, state,
                              visited.get());
    }
    visited_pool_->Release(std::move(visited));
  });

  // 3. Back-links from each repaired node to the neighbors it gained,
  // grouped by (target, level). An edge the node kept had its back-link
  // offered when the edge was made, by the insert or repair that made it. A
  // group starts from the target's list — the planned one if the target was
  // itself repaired at that level — and takes its sources in ascending
  // order. Each group owns one list, so the groups run in parallel and stay
  // deterministic.
  std::vector<std::tuple<VectorId, int, VectorId>> links;  // (target, level, src)
  for (std::size_t i = 0; i < repairs.size(); ++i) {
    const auto [src, level] = repairs[i];
    const std::span<const VectorId> kept = List(src, level);
    for (VectorId nb : planned[i]) {
      if (std::find(kept.begin(), kept.end(), nb) == kept.end()) {
        links.emplace_back(nb, level, src);
      }
    }
  }
  std::sort(links.begin(), links.end());
  std::vector<std::size_t> group_begin;
  for (std::size_t j = 0; j < links.size(); ++j) {
    if (j == 0 || std::get<0>(links[j]) != std::get<0>(links[j - 1]) ||
        std::get<1>(links[j]) != std::get<1>(links[j - 1])) {
      group_begin.push_back(j);
    }
  }
  const std::size_t groups = group_begin.size();
  group_begin.push_back(links.size());

  // writes[i] is repair i; writes[repairs.size() + g] is group g's target
  // when that target was not repaired, and stays empty otherwise.
  RemoveEdit edit;
  edit.id = id;
  edit.writes.resize(repairs.size() + groups);
  for (std::size_t i = 0; i < repairs.size(); ++i) {
    edit.writes[i] = RemoveEdit::ListWrite{repairs[i].first, repairs[i].second,
                                           std::move(planned[i])};
  }
  pool.ParallelFor(groups, [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      const Slot target{std::get<0>(links[group_begin[g]]),
                        std::get<1>(links[group_begin[g]])};
      auto it = std::lower_bound(repairs.begin(), repairs.end(), target);
      RemoveEdit::ListWrite* out = &edit.writes[repairs.size() + g];
      if (it != repairs.end() && *it == target) {
        out = &edit.writes[it - repairs.begin()];
      } else {
        const std::span<const VectorId> current =
            List(target.first, target.second);
        *out = RemoveEdit::ListWrite{target.first, target.second,
                                     {current.begin(), current.end()}};
      }
      for (std::size_t j = group_begin[g]; j < group_begin[g + 1]; ++j) {
        LinkBack(&out->neighbors, target.first, target.second,
                 std::get<2>(links[j]));
      }
    }
  });
  // A group whose back-links all left the target's list as it was (present
  // already, or dropped by the re-selection) carries no write.
  std::erase_if(edit.writes, [this](const RemoveEdit::ListWrite& w) {
    return w.node == kInvalidVectorId ||
           std::ranges::equal(w.neighbors, List(w.node, w.level));
  });
  std::sort(edit.writes.begin(), edit.writes.end(),
            [](const RemoveEdit::ListWrite& a, const RemoveEdit::ListWrite& b) {
              return Slot{a.node, a.level} < Slot{b.node, b.level};
            });

  // 4. Re-seat the entry point if it is the one removed: the per-level live
  // counts (less `id`) give the new max level in O(levels), and the scan for
  // a representative stops at the first live node on it.
  edit.entry = state.entry;
  edit.entry_level = state.level;
  if (state.entry == id) {
    edit.entry = kInvalidVectorId;
    edit.entry_level = -1;
    for (int l = static_cast<int>(level_counts_.size()) - 1; l >= 0; --l) {
      if (level_counts_[l] > (l == nodes_[id].level ? 1u : 0u)) {
        edit.entry_level = l;
        break;
      }
    }
    for (std::size_t v = 0; edit.entry_level >= 0 && v < nodes_.size(); ++v) {
      if (v != id && !nodes_[v].deleted && nodes_[v].level == edit.entry_level) {
        edit.entry = static_cast<VectorId>(v);
        break;
      }
    }
    PPANNS_CHECK(edit.entry_level < 0 || edit.entry != kInvalidVectorId);
  }
  return edit;
}

std::vector<VectorId> HnswIndex::PlanRepair(VectorId v, int level,
                                            VectorId removed, EntryState state,
                                            VisitedList* visited) const {
  // The descent starts at the entry point; when v is the entry point it
  // therefore starts (and stays) at v itself.
  const float* vec = data_.row(v);
  VectorId cur = state.entry;
  for (int l = state.level; l > level; --l) cur = GreedyClosest(vec, cur, l);
  std::vector<Neighbor> cands =
      SearchLayer(vec, cur, params_.ef_construction, level, visited);
  // In the frozen graph v and `removed` are still live; neither may be picked.
  cands.erase(std::remove_if(cands.begin(), cands.end(),
                             [v, removed](const Neighbor& c) {
                               return c.id == v || c.id == removed;
                             }),
              cands.end());
  // Merge with the surviving edges so a repair never loses a good one.
  for (VectorId existing : List(v, level)) {
    if (existing == removed ||
        std::any_of(cands.begin(), cands.end(),
                    [existing](const Neighbor& c) { return c.id == existing; })) {
      continue;
    }
    cands.push_back(Neighbor{existing, SquaredL2(vec, data_.row(existing), dim_)});
  }
  return SelectNeighbors(vec, std::move(cands), MaxDegree(level));
}

void HnswIndex::ApplyRemove(const RemoveEdit& edit) {
  PPANNS_CHECK(edit.id < nodes_.size() && !nodes_[edit.id].deleted);
  CheckEdit(edit.writes, EntryState{edit.entry, edit.entry_level},
            kInvalidVectorId, -1);
  Node& gone = nodes_[edit.id];
  gone.deleted = true;
  ++num_deleted_;
  PPANNS_CHECK(static_cast<std::size_t>(gone.level) < level_counts_.size() &&
               level_counts_[gone.level] > 0);
  --level_counts_[gone.level];
  AssignLists(edit.writes);
  SetList(edit.id, 0, {});
  gone.upper.assign(gone.upper.size(), {});
  StoreEntry(EntryState{edit.entry, edit.entry_level});
}

bool HnswIndex::IsDeleted(VectorId id) const {
  PPANNS_CHECK(id < nodes_.size());
  return nodes_[id].deleted;
}

std::vector<VectorId> HnswIndex::NeighborsAt(VectorId id,
                                             std::size_t level) const {
  PPANNS_CHECK(id < nodes_.size());
  PPANNS_CHECK(static_cast<int>(level) <= nodes_[id].level);
  const std::span<const VectorId> list = List(id, static_cast<int>(level));
  return {list.begin(), list.end()};
}

int HnswIndex::LevelOf(VectorId id) const {
  PPANNS_CHECK(id < nodes_.size());
  return nodes_[id].level;
}

HnswStats HnswIndex::ComputeStats() const {
  HnswStats s;
  s.num_deleted = num_deleted_;
  s.max_level = LoadEntry().level;
  for (VectorId v = 0; v < nodes_.size(); ++v) {
    if (nodes_[v].deleted) continue;
    ++s.num_nodes;
    s.total_edges_level0 += List(v, 0).size();
  }
  if (s.num_nodes > 0) {
    s.avg_out_degree_level0 =
        static_cast<double>(s.total_edges_level0) / s.num_nodes;
  }
  return s;
}

void HnswIndex::PrimeVisitedEpochForTest(std::uint32_t epoch) {
  auto vl = visited_pool_->Acquire(nodes_.size());
  vl->epoch = epoch;  // stale tags are left in place on purpose
  visited_pool_->Release(std::move(vl));
}

void HnswIndex::Serialize(BinaryWriter* out) const {
  const EntryState state = LoadEntry();
  out->Put<std::uint32_t>(0x484E5357);  // "HNSW"
  out->Put<std::uint32_t>(1);           // version
  out->Put<std::uint64_t>(dim_);
  out->Put<std::uint64_t>(params_.m);
  out->Put<std::uint64_t>(params_.ef_construction);
  out->Put<std::uint64_t>(params_.seed);
  out->Put<std::uint32_t>(state.entry);
  out->Put<std::int32_t>(state.level);
  out->Put<std::uint64_t>(num_deleted_);
  out->PutVector(data_.data());
  out->Put<std::uint64_t>(nodes_.size());
  for (VectorId v = 0; v < nodes_.size(); ++v) {
    out->Put<std::int32_t>(nodes_[v].level);
    out->Put<std::uint8_t>(nodes_[v].deleted ? 1 : 0);
    for (int l = 0; l <= nodes_[v].level; ++l) {
      // The vector encoding: a u64 count, then the ids.
      const std::span<const VectorId> list = List(v, l);
      out->Put<std::uint64_t>(list.size());
      out->PutBytes(reinterpret_cast<const std::uint8_t*>(list.data()),
                    list.size_bytes());
    }
  }
}

Result<HnswIndex> HnswIndex::Deserialize(BinaryReader* in) {
  std::uint32_t magic = 0, version = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&magic));
  if (magic != 0x484E5357) return Status::IOError("HNSW: bad magic");
  PPANNS_RETURN_IF_ERROR(in->Get(&version));
  if (version != 1) return Status::IOError("HNSW: unsupported version");

  std::uint64_t dim = 0;
  HnswParams params;
  PPANNS_RETURN_IF_ERROR(in->Get(&dim));
  std::uint64_t m = 0, efc = 0, seed = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&m));
  PPANNS_RETURN_IF_ERROR(in->Get(&efc));
  PPANNS_RETURN_IF_ERROR(in->Get(&seed));
  // Every node gets a level-0 row of 2m + 1 ids, so m is capped to keep a
  // crafted header from turning a few bytes per node into a huge block.
  if (dim == 0 || m < 2 || m > kMaxLoadM) {
    return Status::IOError("HNSW: bad dim or m");
  }
  params.m = m;
  params.ef_construction = efc;
  params.seed = seed;

  HnswIndex index(dim, params);
  std::uint32_t entry = kInvalidVectorId;
  PPANNS_RETURN_IF_ERROR(in->Get(&entry));
  std::int32_t max_level = -1;
  PPANNS_RETURN_IF_ERROR(in->Get(&max_level));
  std::uint64_t num_deleted = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&num_deleted));

  std::vector<float> raw;
  PPANNS_RETURN_IF_ERROR(in->GetVector(&raw));
  if (raw.size() % dim != 0) return Status::IOError("HNSW: bad data size");
  const std::size_t n = raw.size() / dim;
  if (n >= kInvalidVectorId) return Status::IOError("HNSW: too many nodes");
  index.data_ = FloatMatrix(n, dim);
  index.data_.data() = std::move(raw);

  std::uint64_t num_nodes = 0;
  PPANNS_RETURN_IF_ERROR(in->Get(&num_nodes));
  if (num_nodes != n) return Status::IOError("HNSW: node/data mismatch");
  index.nodes_.resize(n);
  std::vector<VectorId> list;
  std::size_t deleted = 0;
  for (VectorId v = 0; v < n; ++v) {
    Node& node = index.nodes_[v];
    PPANNS_RETURN_IF_ERROR(in->Get(&node.level));
    std::uint8_t deleted_flag = 0;
    PPANNS_RETURN_IF_ERROR(in->Get(&deleted_flag));
    node.deleted = deleted_flag != 0;
    if (node.level < 0 || node.level > 64) {
      return Status::IOError("HNSW: bad level");
    }
    node.upper.resize(node.level);
    index.AppendRow();
    for (int l = 0; l <= node.level; ++l) {
      PPANNS_RETURN_IF_ERROR(in->GetVector(&list));
      if (list.size() > index.MaxDegree(l)) {
        return Status::IOError("HNSW: list exceeds max degree");
      }
      index.SetList(v, l, list);
    }
    if (node.deleted) {
      ++deleted;
    } else {
      index.CountLevel(node.level);
    }
  }

  // The graph must be walkable: every edge lands on a node that holds its
  // level, and the entry point is live and on the top live level, or
  // invalid when no live node remains.
  for (VectorId v = 0; v < n; ++v) {
    for (int l = 0; l <= index.nodes_[v].level; ++l) {
      for (VectorId nb : index.List(v, l)) {
        if (nb >= n || index.nodes_[nb].level < l) {
          return Status::IOError("HNSW: edge to a missing node or level");
        }
      }
    }
  }
  if (num_deleted != deleted) {
    return Status::IOError("HNSW: deleted count mismatch");
  }
  const int top = static_cast<int>(index.level_counts_.size()) - 1;
  const bool entry_ok =
      deleted == n ? entry == kInvalidVectorId && max_level == -1
                   : entry < n && !index.nodes_[entry].deleted &&
                         index.nodes_[entry].level == max_level &&
                         max_level == top;
  if (!entry_ok) return Status::IOError("HNSW: bad entry point");
  index.num_deleted_ = deleted;
  index.StoreEntry(EntryState{entry, max_level});
  return index;
}

}  // namespace ppanns
