// PpannsService — the serving facade over a ShardedCloudServer.
//
// The server cores are paper-faithful: they trust their inputs (malformed
// tokens are programmer errors) and answer one query at a time. The service
// wraps them behind one validated API:
//  * input validation — dimension mismatches, k = 0, an empty database, a
//    malformed trapdoor, or a mis-shaped insert come back as Status instead
//    of undefined behavior;
//  * batched execution — SearchBatch fans a token batch across the global
//    ThreadPool and sums the per-query counters into BatchCounters::total,
//    returning results bitwise identical to a sequential loop;
//  * one serving path — a single-index package is served as one shard of
//    one replica with global id = local id, so Search/SearchBatch/Insert/
//    Delete run the same scatter engine for every topology and scaling out
//    is a deployment decision, not an API change;
//  * durability — with a WAL attached (AttachWal), every accepted mutation
//    is logged before it is applied, Checkpoint snapshots atomically and
//    truncates the log, and ReplayWal reconstructs a crashed process's
//    state from its last checkpoint plus the surviving log.

#ifndef PPANNS_CORE_PPANNS_SERVICE_H_
#define PPANNS_CORE_PPANNS_SERVICE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/search_context.h"
#include "common/status.h"
#include "common/wal.h"
#include "core/cloud_server.h"
#include "core/result_cache.h"
#include "core/sharded_cloud_server.h"

namespace ppanns {

/// Aggregated instrumentation for one SearchBatch call.
struct BatchCounters {
  std::size_t num_queries = 0;
  /// End-to-end wall seconds of the batch, including fan-out overhead.
  double wall_seconds = 0.0;
  /// Queries answered from the result cache (0 with the cache disabled).
  /// They add nothing to `total` — no filter/refine ran for them.
  std::size_t cache_hits = 0;
  /// The sum of every result's counters (its seconds are a CPU view and
  /// exceed wall_seconds under parallel execution).
  SearchStats total;
};

/// Results for one token batch, aligned with the input order.
struct BatchSearchResult {
  std::vector<SearchResult> results;
  BatchCounters counters;
};

/// The validated, batched serving facade over one ShardedCloudServer — S
/// shards of R replicas, or the 1x1 single-index topology. Turns malformed
/// input into Status instead of undefined behavior, fans batches across the
/// global ThreadPool, exposes the async hedged path, and adds the result
/// cache and the write-ahead log.
class PpannsService {
 public:
  /// Serves a single-index package as a 1x1 ShardedCloudServer.
  explicit PpannsService(CloudServer server)
      : server_(ShardedCloudServer(std::move(server))) {}
  explicit PpannsService(ShardedCloudServer server)
      : server_(std::move(server)) {}

  /// Validated single-query search (Algorithm 2 through the server core).
  ///   InvalidArgument  — k = 0, SAP/trapdoor dimension mismatch
  ///   FailedPrecondition — empty database
  ///   DeadlineExceeded — settings.deadline_ms (or a caller-context
  ///       deadline) expired before the query finished; every layer stopped
  ///       cooperatively mid-scan
  /// Every result's counters carry the query's SearchStats (nodes visited,
  /// distance computations, DCE comparisons, early-exit reason). The `ctx`
  /// overload lets the caller own the context — register a cancellation
  /// flag, set a deadline or node budget up front, read the stats back; a
  /// caller-cancelled query returns its partial result with
  /// counters.early_exit == kCancelled rather than a Status.
  Result<SearchResult> Search(const QueryToken& token, std::size_t k,
                              const SearchSettings& settings = {}) const {
    return Search(token, k, settings, nullptr);
  }
  Result<SearchResult> Search(const QueryToken& token, std::size_t k,
                              const SearchSettings& settings,
                              SearchContext* ctx) const;

  /// Validated asynchronous search, the latency-hiding path: (query,
  /// shard-replica) work items fan across the ThreadPool, shards that miss
  /// `async.hedge_ms` are hedged onto their next live replica (first answer
  /// wins), and a shard with no live replica degrades per AsyncOptions
  /// (partial flag or Status). Result ids are identical to Search on a
  /// healthy cluster.
  Result<SearchResult> SearchAsync(const QueryToken& token, std::size_t k,
                                   const SearchSettings& settings = {},
                                   const AsyncOptions& async = {}) const {
    return SearchAsync(token, k, settings, async, nullptr);
  }
  Result<SearchResult> SearchAsync(const QueryToken& token, std::size_t k,
                                   const SearchSettings& settings,
                                   const AsyncOptions& async,
                                   SearchContext* ctx) const;

  /// Runs every token through Search semantics, fanned across the global
  /// ThreadPool. All tokens are validated before any work starts; the result
  /// vector is aligned with `tokens` and bitwise identical to a sequential
  /// Search loop (each query is independent and deterministic).
  ///
  /// The fan-out is batch-level: all Q*S (query, shard) filter work items
  /// spread across the pool as one flat list, so a batch smaller than the
  /// core count still fills the machine and one slow shard only stalls its
  /// own work items, not a whole worker's query queue.
  Result<BatchSearchResult> SearchBatch(std::span<const QueryToken> tokens,
                                        std::size_t k,
                                        const SearchSettings& settings = {}) const;

  /// SearchBatch with hedging: the Q*S (query, shard) work items run through
  /// the same hedged claim-flag scatter SearchAsync uses — items missing
  /// `async.hedge_ms` re-dispatch to the shard's next-best live replica,
  /// first answer wins, losers abort mid-scan. Ids are identical to the
  /// unhedged SearchBatch.
  Result<BatchSearchResult> SearchBatch(std::span<const QueryToken> tokens,
                                        std::size_t k,
                                        const SearchSettings& settings,
                                        const AsyncOptions& async) const;

  /// Validated maintenance (Section V-D). Insert rejects an EncryptedVector
  /// whose SAP length differs from dim() or whose DCE payload is not the
  /// four blocks of 2*d_pad+16 doubles the dimension dictates; the accepted
  /// vector routes to the least-loaded shard and the returned id is global.
  /// On a gather node over remote shards the mutation broadcasts through the
  /// cluster's MutationTransports (ConnectCluster attaches them) — identical
  /// semantics over the wire, or NotSupported when the connection predates
  /// the mutation protocol.
  Result<VectorId> Insert(const EncryptedVector& v);
  Status Delete(VectorId id);

  /// Attaches a write-ahead log under `dir`: from here on, every accepted
  /// Insert/Delete appends a checksummed record *before* mutating in-memory
  /// state, so durable state is always "last checkpoint + current log". The
  /// directory is created if needed; existing segments are never appended to
  /// (a fresh segment opens at the recovered lsn), so attaching to a
  /// directory that still holds records is safe — but replay them FIRST
  /// (ReplayWal), or the recovered mutations are lost from this process's
  /// view. NotSupported on a remote gather node (mutations live on the shard
  /// servers).
  Status AttachWal(const std::string& dir, WalOptions options = {});

  /// Crash recovery: re-applies every intact record in `dir` against the
  /// currently loaded package, in lsn order, stopping cleanly at the first
  /// torn record. Apply bypasses the attached WAL (no re-logging). A Delete
  /// that fails with NotFound/InvalidArgument is skipped — append-before-
  /// apply means a logged op may have failed identically in the original
  /// run. Returns the number of records applied. Call before AttachWal when
  /// reopening the same directory.
  Result<std::size_t> ReplayWal(const std::string& dir);

  /// Durably snapshots the package to `path` (write-temp-then-rename, so a
  /// crash mid-checkpoint leaves the old file intact) and truncates the
  /// attached WAL — the log only needs to reconstruct mutations after the
  /// last checkpoint. Works without a WAL attached (plain atomic snapshot).
  Status Checkpoint(const std::string& path);

  bool wal_attached() const { return wal_.has_value(); }
  /// Segment/byte/lsn stats of the attached WAL (PPANNS_CHECK if none).
  WalStats wal_stats() const;

  /// Enables the trapdoor-keyed hot-query result cache. From here on, a
  /// Search/SearchAsync/SearchBatch query whose token bytes and id-shaping
  /// settings (k, k_prime, ef_search, refine, node_budget) match an earlier
  /// query against the same database epoch is answered from the cache —
  /// counters.cache_hit is set and no filter/refine work runs. Only
  /// completed, non-partial results are cached (an early-exited or degraded
  /// answer is never replayed), and ANY mutation — Insert, Delete, WAL
  /// replay, or a compaction/split/rebalance bumping the sharded
  /// state_version — invalidates the whole cache, so a cached answer is
  /// always id-identical to a fresh search. Calling again replaces the
  /// cache (fresh entries, fresh counters).
  void EnableResultCache(const ResultCacheOptions& options = {});
  void DisableResultCache() { cache_.reset(); }
  bool result_cache_enabled() const { return cache_ != nullptr; }
  /// Lifetime counters of the enabled cache (PPANNS_CHECK if disabled).
  ResultCacheStats result_cache_stats() const;

  std::size_t size() const { return server_.size(); }
  std::size_t dim() const { return server_.dim(); }
  IndexKind index_kind() const { return server_.index_kind(); }
  std::size_t StorageBytes() const { return server_.StorageBytes(); }

  /// Number of shards behind the facade (1 for the single-index topology).
  std::size_t num_shards() const { return server_.num_shards(); }
  /// Replicas per shard (1 for the single-index topology).
  std::size_t num_replicas() const { return server_.replication_factor(); }

  /// The server behind the facade.
  const ShardedCloudServer& sharded_server() const { return server_; }
  /// Mutable accessor for the replica health and maintenance surface
  /// (SetReplicaDown, CompactShard, MaybeCompact).
  ShardedCloudServer& sharded_server_mutable() { return server_; }

  /// Snapshots the current package (including maintenance mutations) in the
  /// sharded envelope format — also for a package loaded from the
  /// single-index format, which writes back as the 1x1 v1 envelope.
  void SerializeDatabase(BinaryWriter* out) const {
    server_.SerializeDatabase(out);
  }

 private:
  /// The body of Search (`async` null) and SearchAsync: validate, admit,
  /// answer from the cache or serve, then cache a complete answer.
  Result<SearchResult> SearchOne(const QueryToken& token, std::size_t k,
                                 const SearchSettings& settings,
                                 const AsyncOptions* async,
                                 SearchContext* ctx) const;

  /// Shared validation for Search/SearchBatch.
  Status ValidateQuery(const QueryToken& token, std::size_t k,
                       const SearchSettings& settings) const;

  /// Shared validation for Insert and WAL replay: SAP dimension and DCE
  /// shape against the loaded package.
  Status ValidateInsert(const EncryptedVector& v) const;

  /// NotSupported when this facade fronts remote shards (mutations and WAL
  /// state live on the shard servers).
  Status CheckMutable(const char* op) const;

  /// The DCE block length dim() dictates: 2 * (dim rounded up to even) + 16.
  std::size_t ExpectedDceBlock() const;

  /// The database epoch cache entries are stamped with: the facade's
  /// mutation counter plus the server's state_version, so both
  /// facade mutations and background compaction/split invalidate. On a
  /// remote gather state_version() is the cluster epoch fence — advanced by
  /// every mutation response and health ping — so remote mutations (even
  /// ones applied directly on a shard server) invalidate too.
  std::uint64_t CacheEpoch() const;

  /// Only a completed, non-degraded answer may be replayed later: an early
  /// exit (deadline/budget/cancel) or a partial gather truncated the ids.
  static bool CacheEligible(const SearchResult& result) {
    return result.counters.early_exit == EarlyExit::kNone && !result.partial;
  }

  ShardedCloudServer server_;
  std::optional<WalWriter> wal_;
  /// Present iff the result cache is enabled. unique_ptr keeps the facade
  /// movable (the cache itself holds mutexes and atomics).
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace ppanns

#endif  // PPANNS_CORE_PPANNS_SERVICE_H_
