// The sharded, replicated cloud server: S per-shard CloudServers, each
// served through R replica dispatch slots, behind the single-shard result
// contract.
//
// Search is scatter-gather. Every shard answers the full k'-ANNS filter
// phase over its own SecureFilterIndex (the scatter fans across the global
// ThreadPool), the per-shard candidates merge into the global SAP-top-k'
// (the same ciphertext-distance ranking the filter phase already exposes to
// the server, so no new leakage class), and exactly those k' candidates
// stream through a single DCE sorted k-buffer. The refine phase therefore
// spends the identical candidate budget as an unsharded server — with the
// exact (brute-force) filter backend and the same SAP layer (a sharded
// build's SAP ciphertexts match EncryptAndIndexParallel's row for row) the
// merged candidate set equals the unsharded one and the returned ids are
// identical.
//
// Every search path — Search, SearchAsync, SearchBatchScattered — runs
// through one private scatter engine: one work item per (query, shard), one
// merge and one DCE refine per query. Replication makes the tier
// latency-hiding and loss-tolerant. Every shard may carry R replicas; any
// replica answers for the shard with identical results. In process, the R
// replicas are R dispatch slots over one shared CloudServer — each slot has
// its own transport, down flag and load counters, and the shard's data is
// built, mutated and swapped once. Over the wire each slot reaches its own
// endpoint. The server knows no faults: tests and benches inject stragglers
// and failing replicas by decorating the slot transports
// (TransportDecorator, net/fault_injecting_transport.h). So
//  * replica loss — a replica marked down, or a dispatch that fails —
//    fails over to a live replica without changing a single result id;
//  * with hedging on, work items run as ThreadPool tasks and, when one
//    misses the hedging deadline, the same work runs on the shard's
//    next-best live replica *inline on the gather thread* — first answer
//    wins, and the loser aborts mid-scan: the winner's claim flag is
//    registered as a cancellation source in the loser's SearchContext, so
//    its index hot loop stops at the next probe instead of finishing a scan
//    nobody will read;
//  * a shard that does not answer (no live replica, every live replica's
//    dispatch failed, the deadline) degrades to a partial result (flag on
//    SearchResult) or, on SearchAsync, a Status per AsyncOptions.
//
// Live mutation (the epoch-swap path). The whole serving state — shard
// groups, manifest, transports — lives in an immutable-on-swap ShardSet
// behind an EpochPtr. Every search pins the current set once and reads only
// it; structural maintenance (tombstone compaction, shard split) builds a
// NEW set off to the side and swaps the pointer, so in-flight searches
// finish on the old graph and never block, never crash, never see a
// half-state. Insert/Delete mutate the current set in place under the
// maintenance mutex (they keep the pre-existing contract: callers serialize
// mutation against their own searches); only compaction/split enjoy the
// stronger search-concurrent guarantee. See docs/architecture.md,
// "Live mutation path".

#ifndef PPANNS_CORE_SHARDED_CLOUD_SERVER_H_
#define PPANNS_CORE_SHARDED_CLOUD_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/epoch.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cloud_server.h"
#include "core/sharded_database.h"
#include "net/shard_transport.h"

namespace ppanns {

/// Knobs of the scatter engine's dispatch (SearchAsync and
/// SearchBatchScattered).
struct AsyncOptions {
  /// Hedging deadline in milliseconds. When a work item has not answered
  /// this long after the scatter, the same work is dispatched to the
  /// shard's next-best live replica and the first answer wins; every
  /// further multiple of the deadline escalates to the replica after that.
  /// <= 0 disables hedging: the scatter is a barrier over one dispatch per
  /// work item.
  double hedge_ms = 5.0;
  /// What to do when every replica of a shard is down: true serves the
  /// remaining shards and sets SearchResult::partial; false fails the whole
  /// query with FailedPrecondition. A query is always failed when *no* shard
  /// has a live replica.
  bool allow_partial = true;
};

/// The sharded, replicated serving tier: scatter-gathers Algorithm 2 across
/// S shards of R dispatch slots each, behind the single-shard
/// result contract. One scatter engine serves a synchronous barrier gather
/// (Search), an async hedged gather that hides stragglers (SearchAsync), and
/// a batch-level (query, shard) fan-out (SearchBatchScattered); fails over
/// on replica loss with identical result ids; and keeps itself healthy
/// under churn via epoch-swapped tombstone compaction and shard splits.
class ShardedCloudServer {
 public:
  /// Knobs of a maintenance sweep (MaybeCompact).
  struct MaintenanceOptions {
    /// Compact a shard once (capacity - live) / capacity crosses this.
    /// <= 0 compacts any shard with at least one tombstone; > 1 disables.
    double compact_threshold = 0.3;
    /// Split the heaviest shard when its live count exceeds `split_skew`
    /// times the mean live count across shards. <= 0 disables splitting.
    double split_skew = 0.0;
    /// Never split a shard below this many live vectors (splitting tiny
    /// shards buys nothing and costs a rebuild).
    std::size_t min_split_size = 64;
    /// Build threads for the off-thread index rebuild (the deterministic
    /// wave builder; any value >= 2 yields identical bytes).
    std::size_t build_threads = 1;
  };

  /// Takes ownership of a validated package (Deserialize has already checked
  /// the manifest and replica consistency; owner-built packages are
  /// consistent by construction). Each shard is held once and served
  /// through num_replicas slots. A non-empty `decorator` wraps every slot's
  /// in-process transport — now and whenever compaction or a split rebuilds
  /// a shard — which is how faults are injected.
  explicit ShardedCloudServer(ShardedEncryptedDatabase db,
                              TransportDecorator decorator = {});

  /// The single-index topology: one shard of one replica whose global ids
  /// are its local ids (ShardManifest::Identity over the whole capacity,
  /// tombstones included). Serves, mutates and serializes like any other
  /// package — as the 1x1 sharded envelope.
  explicit ShardedCloudServer(CloudServer server);

  /// Topology of a package whose shards live behind remote transports — what
  /// a ShardServer advertises in its handshake. A remote gather node holds no
  /// shard data, so these figures are the handshake-time snapshot.
  struct RemoteTopology {
    std::size_t num_shards = 0;
    std::size_t num_replicas = 0;
    std::size_t dim = 0;
    IndexKind index_kind = IndexKind::kHnsw;
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::size_t storage_bytes = 0;
  };

  /// A gather node over remote shards: every (shard, replica) dispatches
  /// through the given transport (e.g. a RemoteShardClient) instead of an
  /// in-process CloudServer. All search paths — hedging, failover,
  /// load-aware dispatch, deadlines, cancellation — behave identically;
  /// maintenance (Insert/Delete/compaction/SerializeDatabase) is
  /// unavailable, and the refine phase runs over DCE ciphertexts shipped in
  /// the responses. `transports` must be a full num_shards x num_replicas
  /// grid.
  ShardedCloudServer(
      const RemoteTopology& topology,
      std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports);

  /// Arms the remote mutation path of a gather node: every Insert/Delete/
  /// maintenance call broadcasts through ALL attached transports (each
  /// endpoint loads the full package and applies the same deterministic
  /// mutation, so replicated endpoints stay byte-identical) and requires
  /// their outcomes to agree. Remote servers only; without transports the mutation
  /// surface stays NotSupported.
  void AttachMutationTransports(
      std::vector<std::unique_ptr<MutationTransport>> transports);

  /// Shares the cluster's epoch fence with this gather node: every remote
  /// mutation folds its post-apply state_version into the fence (monotonic
  /// max), and `state_version()` reads it — so the ResultCache invalidation
  /// epoch (mutation_epoch + state_version) tracks remote structural changes
  /// exactly like local ones. The same fence is fed by the channel pools'
  /// health pings. Remote servers only.
  void AttachRemoteEpochFence(
      std::shared_ptr<std::atomic<std::uint64_t>> fence);

  /// Waits for any abandoned async work items (hedge losers still running
  /// on the pool) before releasing the shards they read.
  ~ShardedCloudServer();

  ShardedCloudServer(ShardedCloudServer&&) noexcept;
  ShardedCloudServer& operator=(ShardedCloudServer&&) noexcept;

  /// Algorithm 2 over every shard, merged through one DCE refine. Synchronous:
  /// the scatter still fans across the pool (inline inside a batch worker)
  /// but the gather is a barrier — one slow replica stalls the query, which
  /// is exactly what SearchAsync exists to avoid. Dispatch is load-aware:
  /// each shard serves from its least-inflight live replica (ties go to the
  /// lowest replica id, so an idle cluster serves from replica 0), and a
  /// failed dispatch retries on the shard's next live replica; a shard that
  /// does not answer — no live replica, or every live replica failed — is
  /// left out and the result is marked partial. Thread-safe for concurrent
  /// const calls, like CloudServer::Search — including concurrently with a
  /// compaction or split swap (the query pins the pre-swap set and finishes
  /// on it). The `ctx` overload threads the caller's SearchContext into
  /// every per-shard scan (each shard runs a Child context; stats merge
  /// back), making the whole query cancellable and deadline-bounded.
  SearchResult Search(const QueryToken& token, std::size_t k,
                      const SearchSettings& settings = {}) const {
    return Search(token, k, settings, nullptr);
  }
  SearchResult Search(const QueryToken& token, std::size_t k,
                      const SearchSettings& settings, SearchContext* ctx) const;

  /// The asynchronous serving path: fans (query, shard-replica) work items
  /// across the global ThreadPool, hedges shards that miss
  /// `async.hedge_ms` onto their next-best live replica (first answer
  /// wins), and merges through the same DCE refine as Search. Hedge
  /// dispatches run inline on the gather thread — which was otherwise
  /// idle-waiting — so a hedge makes progress even when every pool worker
  /// is stuck behind a straggler. A lost hedge aborts mid-scan through the
  /// claim flag in its SearchContext.
  /// Results are identical to Search on a healthy cluster — replicas are
  /// identical, so *which* replica answers never changes the ids.
  /// Degrades per AsyncOptions when a shard does not answer (a partial
  /// result, or FailedPrecondition with allow_partial off); fails with
  /// FailedPrecondition when no shard is serveable. Falls back to the
  /// barrier scatter when hedging is off or when called from a pool worker.
  Result<SearchResult> SearchAsync(const QueryToken& token, std::size_t k,
                                   const SearchSettings& settings = {},
                                   const AsyncOptions& async = {}) const {
    return SearchAsync(token, k, settings, async, nullptr);
  }
  Result<SearchResult> SearchAsync(const QueryToken& token, std::size_t k,
                                   const SearchSettings& settings,
                                   const AsyncOptions& async,
                                   SearchContext* ctx) const;

  /// Batch-level scatter: fans Q*S (query, shard) filter work items across
  /// the pool as one flat list, then merges/refines per query — for small
  /// batches on many-core hosts this keeps every core busy where the
  /// per-query fan-out would leave (cores - S) idle. With `async.hedge_ms`
  /// > 0 the items go through the hedged claim-flag dispatch SearchAsync
  /// uses. Results are identical to a sequential Search loop over the
  /// tokens (same candidates, same merge order), and each result's counters
  /// and partial flag describe that query alone. Honors the settings'
  /// deadline/node budget per query.
  std::vector<SearchResult> SearchBatchScattered(
      std::span<const QueryToken> tokens, std::size_t k,
      const SearchSettings& settings = {},
      const AsyncOptions& async = {.hedge_ms = 0.0}) const;

  /// Inserts a freshly encrypted vector into the least-loaded shard and
  /// returns its dense *global* id. The insert runs once per shard — every
  /// replica slot serves the same CloudServer. Serialized against
  /// maintenance by the maintenance
  /// mutex; callers serialize it against their own searches (the
  /// pre-existing mutation contract). On a remote server with attached
  /// MutationTransports the insert broadcasts to every endpoint and the
  /// endpoints must agree on (id, state_version, size) — a divergence fails
  /// with FailedPrecondition; without transports: NotSupported.
  Result<VectorId> Insert(const EncryptedVector& v);

  /// Removes the vector behind a global id: a manifest lookup, then one
  /// CloudServer::Delete on its shard. InvalidArgument if the
  /// id was never assigned; NotFound if it was already removed — including
  /// when a compaction has since physically dropped the tombstoned slot (a
  /// dead manifest ref). Broadcasts like Insert on a remote server with
  /// transports.
  Status Delete(VectorId global_id);

  // ---- Structural maintenance (the live-mutation tentpole). Runs locally
  // on a local server; on a remote server with attached MutationTransports
  // each op broadcasts the matching MaintenanceRequest to every endpoint.

  /// Rebuilds shard s without its tombstones: gathers the live rows in
  /// local-id order, builds a fresh filter index (one build thread) plus the
  /// compacted DCE array — once, for every replica slot —
  /// rewrites the manifest (live ids relocate, tombstoned ids become dead
  /// refs) and swaps the new ShardSet in under the epoch pointer. In-flight
  /// searches finish on the old set; new ones see only the compacted shard.
  /// Result ids for live vectors are identical before and after.
  Status CompactShard(std::size_t s);

  /// Splits shard s in two by live rank: the first half keeps shard id s,
  /// the second half becomes a new shard appended at the end (global ids
  /// never change — only their (shard, local) locations). Both halves are
  /// rebuilt compacted, so a split also collects s's tombstones. Insert
  /// routing sees the new topology immediately. NotSupported on a remote
  /// gather: the shard servers refuse a split, because a connected gather's
  /// transport grid cannot grow.
  Status SplitShard(std::size_t s);

  /// One maintenance sweep: compacts every shard whose tombstone ratio
  /// crosses options.compact_threshold, then (when options.split_skew > 0)
  /// splits the heaviest shard if it exceeds split_skew times the mean live
  /// count and min_split_size. Returns the number of structural ops applied.
  /// Searches never block on it — swaps are the only synchronization — so a
  /// caller may run it on its own thread while serving. On a remote gather a
  /// sweep that may split is NotSupported (see SplitShard).
  Result<std::size_t> MaybeCompact(const MaintenanceOptions& options);

  // ---- Maintenance observability (admin / CLI surface).

  /// Tombstoned fraction of shard s: (capacity - live) / capacity of its
  /// index; 0 for an empty shard. Local only.
  double tombstone_ratio(std::size_t s) const;
  /// How many times shard s has been structurally rebuilt (compaction or
  /// split), surviving serialization round-trips. Local only.
  std::uint64_t last_compaction_epoch(std::size_t s) const;
  /// Monotonic count of structural maintenance ops applied to the package.
  /// 0 = never compacted (serializes as the byte-stable v1/v2 envelope);
  /// > 0 serializes as the checksummed v3 envelope. On a remote server this
  /// reads the attached epoch fence (the max post-apply state_version any
  /// mutation response or health ping has reported), 0 without a fence.
  std::uint64_t state_version() const;

  /// Live vectors across all shards (handshake-time snapshot when remote).
  std::size_t size() const;
  /// Next global id (dead refs still count — global ids are never reused).
  std::size_t capacity() const;
  std::size_t dim() const;
  IndexKind index_kind() const;
  std::size_t num_shards() const;
  /// Replicas per shard (uniform; 1 for an unreplicated package).
  std::size_t replication_factor() const;
  /// True when the shards live behind remote transports — no local shard
  /// data, no manifest, no maintenance.
  bool remote() const { return remote_; }
  /// Shard s's CloudServer. Local servers only. The reference is into the
  /// *current* ShardSet: valid until the next structural maintenance op
  /// replaces it (exactly like iterators under mutation) — don't hold it
  /// across CompactShard/SplitShard/MaybeCompact.
  const CloudServer& shard(std::size_t s) const;
  /// What replica slot r of shard s scans: shard(s), for every r.
  const CloudServer& replica(std::size_t s, std::size_t r) const;
  /// Same currency caveat as shard().
  const ShardManifest& manifest() const;

  /// The server-side entry of the RPC boundary: one filter scan on replica
  /// (s, r) through its transport, exactly as a gather-side dispatch runs it
  /// — context-bounded scan, global-id translation — plus the
  /// candidates' DCE ciphertexts when options.want_dce is set (the remote
  /// gather holds no shard data to refine against). Local servers only.
  Status FilterShard(std::size_t s, std::size_t r, const QueryToken& token,
                     const ShardFilterOptions& options, SearchContext* ctx,
                     ShardFilterResult* out) const;

  // ---- Replica health (admin surface). In a multi-process deployment the
  // down flags would be driven by health checks. Compaction carries them
  // onto the rebuilt group, so a replica marked down stays down.

  /// Marks a replica up/down. Down replicas are skipped at dispatch time by
  /// every search path and by hedging.
  void SetReplicaDown(std::size_t s, std::size_t r, bool down);
  bool replica_down(std::size_t s, std::size_t r) const;
  /// Live replicas of shard s (R minus the ones marked down).
  std::size_t live_replicas(std::size_t s) const;

  // ---- Load-aware dispatch observability (admin / test / bench surface).

  /// Filter scans currently in flight on replica (s, r) — the quantity the
  /// dispatcher minimizes. A rebuilt shard starts at zero (old dispatches
  /// drain against the old group).
  int replica_inflight(std::size_t s, std::size_t r) const;
  /// Filter scans that actually started on replica (s, r) since
  /// construction (cancelled-before-scan work items do not count).
  std::size_t replica_requests(std::size_t s, std::size_t r) const;

  // ---- Wasted-work accounting (the mid-scan-abort win, bench/fig11).

  /// Cumulative nodes scored by hedge work items that lost the claim race,
  /// across the server's lifetime. Drains in-flight async work first so
  /// late losers are counted; read deltas around a workload to attribute.
  std::size_t CancelledWorkNodes() const;
  /// Cumulative count of lost hedge work items (same draining rule).
  std::size_t CancelledScans() const;

  std::size_t StorageBytes() const;

  /// Snapshots the whole package (including maintenance mutations) in the
  /// sharded envelope format: v1 when unreplicated, v2 when replicated, and
  /// the checksummed v3 once any structural maintenance has run
  /// (state_version > 0).
  void SerializeDatabase(BinaryWriter* out) const;

  // Implementation-detail types, forward-declared here so the .cc's
  // file-local helpers can name them; the definitions never leave the .cc.
  /// The immutable-on-swap serving state: shard groups, manifest,
  /// transports. Searches pin it through the EpochPtr; maintenance swaps a
  /// new one in.
  struct ShardSet;
  /// Global counters that must survive swaps at a stable address (async
  /// work items capture a raw pointer to it).
  struct Runtime;
  /// The maintenance mutex.
  struct Maintenance;

 private:
  /// The local constructors' shared body: wires `shards[s]` as shard s,
  /// served through num_replicas slots, behind `manifest` and publishes the
  /// first ShardSet.
  void Adopt(std::vector<CloudServer> shards, std::size_t num_replicas,
             ShardManifest manifest, std::uint64_t state_version,
             const std::vector<std::uint64_t>& compaction_epochs);

  /// Waits until no abandoned async work item (hedge loser) is still
  /// touching the shards — losers cancel at their next claim-flag check, so
  /// this is short. Called before in-place mutation (Insert/Delete),
  /// move-assignment and destruction. Structural maintenance does NOT need
  /// it: old-set readers keep their pin.
  void DrainAsyncWork() const;

  /// A replica is unserveable when the admin flagged it down OR its
  /// transport can no longer reach it; failover treats both identically.
  static bool ReplicaDown(const ShardSet& set, std::size_t s, std::size_t r);

  /// Load-aware dispatch: the least-inflight live replica of shard s (ties
  /// to the lowest replica id) among those not marked in `tried`, or -1 if
  /// none is left. `skipped` accumulates the down replicas ahead of the
  /// first live one, preserving the first-live accounting of
  /// SearchStats::replicas_skipped.
  static int PickReplica(const ShardSet& set, std::size_t s,
                         std::size_t* skipped = nullptr,
                         const std::vector<std::uint8_t>* tried = nullptr);

  /// One (query, shard) filter work item through the replica's transport —
  /// in-process scan or remote RPC, interchangeably — maintaining the
  /// replica's inflight/request counters around the dispatch and adding its
  /// time to ctx->stats.filter_seconds. A non-OK
  /// Status means the scan could not run (dead connection, server shed);
  /// `out` is then empty.
  static Status FilterVia(const ShardSet& set, std::size_t s, std::size_t r,
                          const QueryToken& token,
                          const ShardFilterOptions& options, SearchContext* ctx,
                          ShardFilterResult* out);

  /// The per-scan knobs every dispatch of a query shares. want_dce is set
  /// only on remote servers with refinement on — a local gather reads
  /// ciphertexts in place.
  ShardFilterOptions MakeFilterOptions(std::size_t k_prime,
                                       const SearchSettings& settings) const;

  /// What one (query, shard) work item produced, from whichever dispatch
  /// won it. Item q * num_shards + s belongs to query q and shard s.
  struct ItemOutcome {
    ShardFilterResult answer;  ///< global-id candidates (+ DCE when remote)
    /// The item's work record: the winning scan's stats and early-exit
    /// reason plus the item's dispatch time, hedges and skipped replicas.
    /// The query context merges it like a Child.
    SearchContext ctx;
    /// tried[r] is set once the item has been dispatched to replica r, so
    /// failover never runs it on the same replica twice. The barrier
    /// dispatch fills it only for an item that failed — the one case
    /// failover reads it — so a healthy scatter allocates nothing per item.
    std::vector<std::uint8_t> tried;
    /// False when the shard did not answer: no live replica, a failed
    /// dispatch, or abandoned by the gather at the deadline.
    bool served = false;
    /// Every dispatch of the item so far returned a non-OK Status (dead
    /// connection, server shed) — the case failover retries.
    bool failed = false;
  };

  /// The scatter engine behind every search path. Pins the ShardSet once,
  /// gives each query its own context (a single query runs on `ctx`; a batch
  /// passes null), dispatches one work item per (query, shard), then merges
  /// and refines each query and fills its counters. Dispatch is hedged
  /// (RunHedgedScatter) when async.hedge_ms > 0 and the caller is not a pool
  /// worker; otherwise it is a barrier ParallelFor over the items, each
  /// shard served by the replica PickReplica chose once for the call. After
  /// either, every item whose dispatch failed fails over to its shard's
  /// remaining live replicas, least-loaded first, until one answers.
  std::vector<SearchResult> Scatter(std::span<const QueryToken> tokens,
                                    std::size_t k,
                                    const SearchSettings& settings,
                                    const AsyncOptions& async,
                                    SearchContext* ctx) const;

  /// The hedged claim-flag dispatch of the engine. Dispatches every item to
  /// its load-aware replica on the pool, escalates items that miss
  /// async.hedge_ms to the shard's next-best live replica *inline on the
  /// gather thread*, and aborts losers mid-scan via the claim flag. A
  /// failed dispatch settles its item only as the item's last running
  /// dispatch. The coordinator keeps `set`
  /// pinned until the last loser finishes, so a compaction swap mid-query
  /// can never free state a straggler still reads. Every dispatch runs on a Child of its
  /// query's context; the gather gives up at the earliest query deadline.
  /// Losers' work is counted in the Runtime (CancelledWorkNodes).
  std::vector<ItemOutcome> RunHedgedScatter(
      std::shared_ptr<const ShardSet> set, std::span<const QueryToken> tokens,
      std::span<SearchContext* const> query_ctx,
      const ShardFilterOptions& options, const AsyncOptions& async) const;

  /// One query's gather: folds its work items' stats into `ctx`, merges the answered shards' candidates to the
  /// global SAP-top-k', resolves each candidate's DCE ciphertext once — from
  /// its shard when local, from the shipped answer when remote — and
  /// refines through RefineCandidates.
  void MergeAndRefine(const ShardSet& set, const QueryToken& token,
                      std::size_t k, const SearchSettings& settings,
                      std::size_t k_prime, std::span<const ItemOutcome> items,
                      SearchContext* ctx, SearchResult* result) const;

  /// CompactShard/SplitShard bodies, caller holds the maintenance mutex.
  /// The public calls build with one thread; a sweep passes its options'.
  Status CompactShardLocked(std::size_t s, std::size_t build_threads);
  Status SplitShardLocked(std::size_t s, std::size_t build_threads);

  /// Their one rebuild: one compacted shard per part of shard s's live local
  /// ids (compaction: {live}; split: its two halves). Part 0 keeps id s and
  /// its slots' down flags and request totals; later parts are appended as
  /// new shards. Rewrites the manifest (s's tombstoned ids become dead
  /// refs) and swaps the new ShardSet in.
  Status RebuildShardLocked(
      std::size_t s, const std::vector<std::span<const VectorId>>& parts,
      std::size_t build_threads);

  /// The remote broadcast core: runs `apply` against every attached
  /// MutationTransport under the maintenance mutex, requires the outcomes to
  /// agree on (status code, id, state_version, size), folds the agreed
  /// state_version into the epoch fence, and returns the agreed outcome.
  /// Caller must hold no locks. NotSupported without transports.
  Result<MutationOutcome> BroadcastMutation(
      const char* what,
      const std::function<Result<MutationOutcome>(MutationTransport&)>& apply);

  /// The epoch-swapped serving state. unique_ptr so ShardSet can stay
  /// incomplete in the header; never null after construction.
  std::unique_ptr<EpochPtr<ShardSet>> set_;
  RemoteTopology topology_{};  ///< meaningful only when remote_
  bool remote_ = false;
  std::unique_ptr<Runtime> runtime_;
  std::unique_ptr<Maintenance> maintenance_;
  /// Remote mutation fan-out (empty on local servers and on remote gathers
  /// whose caller never attached one — mutations then stay NotSupported).
  std::vector<std::unique_ptr<MutationTransport>> mutation_transports_;
  /// Cluster-wide structural-epoch fence (remote only; may be null).
  std::shared_ptr<std::atomic<std::uint64_t>> remote_epoch_;
  /// Wraps every in-process slot transport, rebuilt shards' too (empty:
  /// none).
  TransportDecorator decorator_;
};

}  // namespace ppanns

#endif  // PPANNS_CORE_SHARDED_CLOUD_SERVER_H_
