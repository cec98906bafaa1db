// SearchContext — the per-query execution context threaded from the serving
// facade (PpannsService) down to every index hot loop.
//
// It bundles the three things a query-execution pipeline needs to be a
// first-class citizen of a loaded serving tier:
//  * cooperative cancellation — up to two external atomic flags (e.g. the
//    hedge claim flag of the shard slot plus a caller-owned kill switch);
//    a scan that observes a raised flag abandons mid-loop instead of
//    burning pool capacity on an answer nobody will read;
//  * an absolute deadline and a filter-phase node budget — the explicit
//    per-query work bound the ROADMAP calls for (Riazi-style bounded server
//    work): hot loops stop when either trips;
//  * SearchStats — the query's work record (rows scored, distance
//    computations, DCE comparisons, candidates, hedges, phase times) — so
//    every SearchResult can report what the query actually cost, not just
//    how long it took.
//
// Threading model: a SearchContext is written by exactly one scanning
// thread. Cross-thread signalling happens only through the registered
// std::atomic<bool> flags (set by the canceller, read here). Fan-out paths
// (one query scattered over S shards) give every shard a Child() context and
// MergeChild() the stats back — contexts are never shared between scanning
// threads.
//
// Cost model: a null context is free (backends take SearchContext* defaulted
// to nullptr and CancelProbe short-circuits on it); a live context costs one
// predictable branch per loop step plus one atomic-load/clock-read per
// kCancelCheckStride steps, which is not measurable against a distance
// computation. The context never alters traversal order, so result ids are
// bit-for-bit identical with and without one — unless it trips.

#ifndef PPANNS_COMMON_SEARCH_CONTEXT_H_
#define PPANNS_COMMON_SEARCH_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace ppanns {

/// The per-query work record: every layer a query crosses adds its own
/// counts here, fan-outs sum their branches with Merge, and a SearchResult's
/// counters are one copy of it. Each field has one meaning on every path.
struct SearchStats {
  /// Database rows scored against the query (the filter-phase unit of work;
  /// the node-budget bound applies to this counter).
  std::size_t nodes_visited = 0;
  /// All vector-distance evaluations, including IVF centroid ranking — a
  /// superset of nodes_visited. LSH hash projections are not counted.
  std::size_t distance_computations = 0;
  /// Trapdoor comparisons spent in the DCE refine phase.
  std::size_t dce_comparisons = 0;
  /// Candidates the filter phase handed to the refine phase (after the
  /// gather's cut to k').
  std::size_t filter_candidates = 0;
  /// Hedge dispatches issued for the query's work items (a replica missed
  /// the hedging deadline and the next one was tried); 0 with hedging off.
  std::size_t hedged_requests = 0;
  /// Down replicas passed over ahead of the first live one when the query's
  /// work items picked their replicas, summed across shards.
  std::size_t replicas_skipped = 0;
  /// Filter-phase time: the index search, or on a sharded server the sum of
  /// the query's winning dispatch times (not the scatter's wall time).
  double filter_seconds = 0.0;
  /// Time of the DCE refine phase.
  double refine_seconds = 0.0;
  /// Wall time the flat backends (brute force, IVF, LSH) spent in their
  /// scan: the float or int8 code scan plus selection, and IVF's centroid
  /// ranking / LSH's bucket lookup. HNSW leaves it 0. Local profiling only —
  /// it does not travel over the shard RPC wire.
  double scan_seconds = 0.0;
  /// Wall time a flat backend spent re-ranking the SQ shortlist with exact
  /// distances; 0 on the float tier and for HNSW.
  double sq_rerank_seconds = 0.0;

  void Merge(const SearchStats& other) {
    nodes_visited += other.nodes_visited;
    distance_computations += other.distance_computations;
    dce_comparisons += other.dce_comparisons;
    filter_candidates += other.filter_candidates;
    hedged_requests += other.hedged_requests;
    replicas_skipped += other.replicas_skipped;
    filter_seconds += other.filter_seconds;
    refine_seconds += other.refine_seconds;
    scan_seconds += other.scan_seconds;
    sq_rerank_seconds += other.sq_rerank_seconds;
  }
};

/// Why a search stopped before exhausting its normal traversal.
enum class EarlyExit : std::uint8_t {
  kNone = 0,             ///< ran to completion
  kCancelled = 1,        ///< a cancellation flag was raised (e.g. lost hedge)
  kDeadlineExpired = 2,  ///< the absolute deadline passed mid-scan
  kBudgetExhausted = 3,  ///< the node budget was spent
};

/// "none" | "cancelled" | "deadline" | "budget".
const char* EarlyExitName(EarlyExit reason);

/// How many loop steps a hot loop may take between full cancellation/deadline
/// probes. The node budget is checked exactly (every step); only the atomic
/// flag loads and the clock read are amortized.
inline constexpr std::uint32_t kCancelCheckStride = 64;

class SearchContext {
 public:
  using Clock = std::chrono::steady_clock;

  SearchContext() = default;

  /// Context whose deadline is `ms` milliseconds from now; ms <= 0 yields an
  /// unbounded context.
  static SearchContext WithDeadlineMs(double ms);

  /// Registers an external cancellation flag; the scan stops once any
  /// registered flag reads true. The flag must outlive every scan using
  /// this context. Callers may register at most two — the remaining slots
  /// are reserved for flags the serving tier adds on derived (Child)
  /// contexts, e.g. the hedge claim flag.
  void AddCancelFlag(const std::atomic<bool>* flag);

  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// Filter-phase node budget (rows scored per query); 0 = unlimited.
  void set_node_budget(std::size_t budget) { node_budget_ = budget; }
  std::size_t node_budget() const { return node_budget_; }

  /// Full probe: cancellation flags, deadline, and the node budget against
  /// `nodes_so_far`. Sticky — once it returns true it keeps returning true
  /// and early_exit() names the first reason. Called by hot loops through
  /// CancelProbe, which amortizes the expensive parts.
  bool ShouldStop(std::size_t nodes_so_far = 0) {
    if (early_exit_ != EarlyExit::kNone) return true;
    for (const std::atomic<bool>* flag : flags_) {
      if (flag != nullptr && flag->load(std::memory_order_acquire)) {
        early_exit_ = EarlyExit::kCancelled;
        return true;
      }
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      early_exit_ = EarlyExit::kDeadlineExpired;
      return true;
    }
    if (node_budget_ > 0 && nodes_so_far >= node_budget_) {
      early_exit_ = EarlyExit::kBudgetExhausted;
      return true;
    }
    return false;
  }

  bool stopped() const { return early_exit_ != EarlyExit::kNone; }
  EarlyExit early_exit() const { return early_exit_; }

  /// Like ShouldStop but without the node budget: the refine phase still
  /// runs over the (possibly truncated) candidate set when the filter
  /// budget was spent — a budget-bound query returns its best prefix, not
  /// nothing. Only cancellation and the deadline abandon refinement; either
  /// overrides a budget early-exit as the reported reason (the Status
  /// contract keys off the deadline).
  bool ShouldAbandon() {
    if (early_exit_ == EarlyExit::kCancelled ||
        early_exit_ == EarlyExit::kDeadlineExpired) {
      return true;
    }
    for (const std::atomic<bool>* flag : flags_) {
      if (flag != nullptr && flag->load(std::memory_order_acquire)) {
        early_exit_ = EarlyExit::kCancelled;
        return true;
      }
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      early_exit_ = EarlyExit::kDeadlineExpired;
      return true;
    }
    return false;
  }

  /// Marks the budget as spent without a probe (exact budget enforcement in
  /// CancelProbe).
  void TripBudget() {
    if (early_exit_ == EarlyExit::kNone) {
      early_exit_ = EarlyExit::kBudgetExhausted;
    }
  }

  /// A context for one branch of a fan-out: same flags, deadline, and
  /// budget, fresh stats and early-exit state. Each scanning thread gets its
  /// own child; the parent merges them back with MergeChild.
  SearchContext Child() const {
    SearchContext child;
    for (const std::atomic<bool>* flag : flags_) {
      if (flag != nullptr) child.AddCancelFlag(flag);
    }
    child.has_deadline_ = has_deadline_;
    child.deadline_ = deadline_;
    child.node_budget_ = node_budget_;
    return child;
  }

  /// Folds a finished child's stats (and its early-exit reason, if this
  /// context has none yet) back into the parent.
  void MergeChild(const SearchContext& child) {
    stats.Merge(child.stats);
    AdoptEarlyExit(child.early_exit_);
  }

  /// Folds another scan's early-exit reason in (first reason wins) — for
  /// fan-outs whose results travel as data instead of Child contexts.
  void AdoptEarlyExit(EarlyExit reason) {
    if (early_exit_ == EarlyExit::kNone) early_exit_ = reason;
  }

  SearchStats stats;

 private:
  /// Two caller slots plus headroom for serving-tier flags added on Child
  /// contexts (the hedge claim flag); null entries cost one predictable
  /// branch per strided probe.
  const std::atomic<bool>* flags_[4] = {nullptr, nullptr, nullptr, nullptr};
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::size_t node_budget_ = 0;
  EarlyExit early_exit_ = EarlyExit::kNone;
};

/// The hot-loop companion: one CancelProbe per scan, one ShouldStop call per
/// loop step. Free when the context is null; otherwise the budget is checked
/// exactly and the flags/deadline every kCancelCheckStride steps.
class CancelProbe {
 public:
  explicit CancelProbe(SearchContext* ctx,
                       std::uint32_t stride = kCancelCheckStride)
      : ctx_(ctx), stride_(stride) {}

  /// True when the enclosing scan must stop now.
  bool ShouldStop(std::size_t nodes_so_far) {
    if (ctx_ == nullptr) return false;
    if (ctx_->stopped()) return true;
    if (ctx_->node_budget() > 0 && nodes_so_far >= ctx_->node_budget()) {
      ctx_->TripBudget();
      return true;
    }
    if (++tick_ < stride_) return false;
    tick_ = 0;
    return ctx_->ShouldStop(nodes_so_far);
  }

 private:
  SearchContext* ctx_;
  const std::uint32_t stride_;
  std::uint32_t tick_ = 0;
};

}  // namespace ppanns

#endif  // PPANNS_COMMON_SEARCH_CONTEXT_H_
