// The cloud server role (Fig. 1 / Fig. 3): holds only ciphertexts and the
// privacy-preserving index, and answers encrypted queries with the
// filter-and-refine search of Algorithm 2. It never sees plaintext vectors,
// plaintext distances, or keys — its entire observable input is
// (EncryptedDatabase, QueryToken, k).

#ifndef PPANNS_CORE_CLOUD_SERVER_H_
#define PPANNS_CORE_CLOUD_SERVER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/search_context.h"
#include "common/status.h"
#include "common/types.h"
#include "core/encrypted_database.h"
#include "core/query_client.h"

namespace ppanns {

/// Per-query search knobs (Section V-B).
struct SearchSettings {
  std::size_t k_prime = 0;    ///< filter-phase candidate count; 0 => 4*k
  /// Filter-phase search breadth: HNSW ef_search, IVF nprobe, LSH probes per
  /// table (the exact backend ignores it). 0 => backend default.
  std::size_t ef_search = 0;
  bool refine = true;         ///< false = filter-only (the Fig. 4/6 baseline)
  /// Per-query wall-clock deadline in milliseconds; <= 0 disables. The
  /// server resolves it into the query's SearchContext at entry, every hot
  /// loop it crosses stops cooperatively when it expires, and PpannsService
  /// turns the expiry into a DeadlineExceeded Status.
  double deadline_ms = 0.0;
  /// Per-query filter-phase node budget (rows scored per index scan;
  /// 0 = unlimited). An exhausted budget truncates the scan — the Riazi-style
  /// explicit bound on per-query server work — and is reported via
  /// SearchCounters::early_exit, not an error.
  std::size_t node_budget = 0;
  /// Admission floor in milliseconds; <= 0 disables (default). When set and
  /// the query carries a deadline, a query whose remaining budget is already
  /// below the floor is shed with kResourceExhausted *before* dispatch —
  /// load shedding at the gather node — and a remote shard server applies
  /// the same floor to the budget that survived the wire.
  double admission_ms = 0.0;
};

/// The filter-phase candidate budget rule (Section V-B): an explicit k' is
/// clamped to at least k; unset defaults to 4k. Shared by CloudServer and
/// ShardedCloudServer so both topologies spend the identical budget.
inline std::size_t ResolveKPrime(const SearchSettings& settings, std::size_t k) {
  return settings.k_prime > 0 ? std::max(settings.k_prime, k) : 4 * k;
}

/// Resolves the settings' deadline/budget knobs into the query's context at
/// server entry. Knobs the caller already set on the context win, so a
/// facade-created deadline is never overwritten. Shared by CloudServer and
/// ShardedCloudServer so every serving path bounds work identically.
inline void ApplyContextSettings(SearchContext* ctx,
                                 const SearchSettings& settings) {
  if (settings.deadline_ms > 0.0 && !ctx->has_deadline()) {
    ctx->set_deadline(SearchContext::Clock::now() +
                      std::chrono::duration_cast<SearchContext::Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              settings.deadline_ms)));
  }
  if (settings.node_budget > 0 && ctx->node_budget() == 0) {
    ctx->set_node_budget(settings.node_budget);
  }
}

/// Instrumentation for the cost analyses (Fig. 6 / Fig. 9) and the async
/// serving path (Fig. 11): a copy of the query context's SearchStats — in a
/// batch, that query's own work items — plus how the answer was produced.
struct SearchCounters : SearchStats {
  /// Why the query stopped early, if it did (cancellation, deadline, node
  /// budget); kNone for a query that ran to completion.
  EarlyExit early_exit = EarlyExit::kNone;
  /// True when the result was served from PpannsService's trapdoor-keyed
  /// result cache: the ids are a verbatim replay of an earlier identical
  /// query against the same database epoch, and every work counter is zero
  /// because no filter/refine work ran.
  bool cache_hit = false;
};

/// Result returned to the user: ids only (4k bytes — the server cannot rank
/// by true distance values, and the user needs no more).
struct SearchResult {
  std::vector<VectorId> ids;
  /// True when at least one shard did not answer: it had no live replica,
  /// its dispatch failed, or the gather abandoned it at the deadline. The ids
  /// cover only the shards that answered. Never set by a healthy cluster or
  /// a single-index server.
  bool partial = false;
  SearchCounters counters;
};

/// The refine phase of Algorithm 2 (lines 2-9), shared by every server
/// topology. `candidates` is the SAP-ranked filter output (already cut to
/// k') in (SAP distance, global id) order, which every topology reproduces;
/// `dce[i]` is candidate i's DCE ciphertext, resolved by the caller (unused
/// when settings.refine is off). Streams the candidates through one
/// SortedKBuffer over candidate positions, probing `ctx` between offers,
/// records filter_candidates, dce_comparisons and refine_seconds in
/// ctx->stats, fills result->ids, and ends every serving path by copying the
/// context's stats and early-exit reason into result->counters. With
/// refinement off the first k candidates are the answer.
///
/// Contract: the answer is the first k candidates in the order of
/// CanonicalCloser over these positions — Z(o, p) evaluated with the earlier
/// position as `o` — whatever selection algorithm computes it. An exact
/// plaintext tie between two candidates therefore resolves from the
/// candidate list alone, never from the sequence of comparisons. (Three or
/// more equal plaintexts can make the order cyclic; the answer is then the
/// SortedKBuffer's.)
void RefineCandidates(std::span<const Neighbor> candidates,
                      std::span<const DceCiphertext* const> dce,
                      const QueryToken& token, std::size_t k,
                      const SearchSettings& settings, SearchContext* ctx,
                      SearchResult* result);

/// The paper-faithful cloud-server core: one encrypted database, one query
/// at a time, trusting its inputs (PpannsService adds validation and
/// batching; ShardedCloudServer scales it out). Holds only ciphertexts and
/// the filter index — its entire observable input is
/// (EncryptedDatabase, QueryToken, k).
class CloudServer {
 public:
  explicit CloudServer(EncryptedDatabase db) : db_(std::move(db)) {
    PPANNS_CHECK(db_.index != nullptr);
  }

  /// Algorithm 2: filter (k'-ANNS over SAP ciphertexts on the configured
  /// SecureFilterIndex backend) + refine (exact DCE comparisons through a
  /// comparison-only sorted k-buffer, RefineCandidates). Thread-safe:
  /// concurrent const searches are allowed (PpannsService::SearchBatch
  /// relies on this).
  ///
  /// The `ctx` overload is the cancellable execution path: the context
  /// (caller-owned, e.g. created by PpannsService) is threaded into the
  /// filter hot loop and probed between refine comparisons, the settings'
  /// deadline_ms / node_budget are resolved into it at entry, and the
  /// result's counters report its SearchStats and early-exit reason. A null
  /// context runs with a local one, so counters are always filled; ids are
  /// identical either way unless the context trips.
  SearchResult Search(const QueryToken& token, std::size_t k,
                      const SearchSettings& settings = {}) const {
    return Search(token, k, settings, nullptr);
  }
  SearchResult Search(const QueryToken& token, std::size_t k,
                      const SearchSettings& settings, SearchContext* ctx) const;

  /// Maintenance (Section V-D): link a freshly encrypted vector into the
  /// index / remove one and repair the affected structure.
  VectorId Insert(const EncryptedVector& v) {
    return ApplyInsert(PlanInsert(v), v);
  }
  Status Delete(VectorId id);

  std::size_t size() const { return db_.index->size(); }
  const SecureFilterIndex& index() const { return *db_.index; }
  const std::vector<DceCiphertext>& dce_ciphertexts() const { return db_.dce; }

  /// Total resident bytes of the outsourced package (space accounting).
  std::size_t StorageBytes() const;

  /// Snapshots the current package (including maintenance mutations) in the
  /// same format EncryptedDatabase::Serialize writes.
  void SerializeDatabase(BinaryWriter* out) const { db_.Serialize(out); }

 private:
  /// Insert split in two (SecureFilterIndex::PlanInsert/ApplyInsert): the
  /// read-only, deterministic plan does all of the linking work, and the
  /// apply stores the SAP row with the planned lists and appends the DCE
  /// ciphertext. Insert(v) is ApplyInsert(PlanInsert(v), v). Returns the
  /// new local id.
  InsertEdit PlanInsert(const EncryptedVector& v) const {
    PPANNS_CHECK(v.sap.size() == db_.index->dim());
    return db_.index->PlanInsert(v.sap.data());
  }
  VectorId ApplyInsert(const InsertEdit& edit, const EncryptedVector& v);

  /// Delete split in two (SecureFilterIndex::PlanRemove/ApplyRemove): the
  /// read-only, deterministic plan does all of the repair work, and the
  /// apply assigns its result and blanks the DCE ciphertext.
  /// Delete(id) is ApplyDelete(PlanDelete(id)).
  Result<RemoveEdit> PlanDelete(VectorId id) const {
    return db_.index->PlanRemove(id);
  }
  void ApplyDelete(const RemoveEdit& edit);

  EncryptedDatabase db_;
};

}  // namespace ppanns

#endif  // PPANNS_CORE_CLOUD_SERVER_H_
