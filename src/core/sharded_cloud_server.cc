#include "core/sharded_cloud_server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/query_client.h"

namespace ppanns {

// The epoch-swapped serving state. A ShardSet owns (through shared
// ShardGroups) everything a query touches: one CloudServer per shard, the
// local-to-global rows, the transports and the per-replica health/load
// cells. Searches pin the set once and read only it; compaction/split build
// a NEW set that shares every untouched group by shared_ptr and swap it in,
// so an in-flight query — including an abandoned hedge loser — keeps its
// graph alive through the pin until it finishes.
struct ShardedCloudServer::ShardSet {
  /// One replica's dispatch slot: its health and load cells. Atomic so
  /// every search path reads them lock-free; grouped per shard so a rebuild
  /// replaces exactly one shard's cells (down/request values carry over;
  /// in-flight resets — old dispatches drain against the old group).
  struct ReplicaState {
    std::atomic<bool> down{false};
    /// Outstanding filter dispatches (queued + executing) — what the
    /// load-aware dispatcher minimizes.
    std::atomic<int> inflight{0};
    /// Filter scans actually started (observability).
    std::atomic<std::size_t> requests{0};
  };

  /// One shard: its data, its local-id translation row, and R dispatch
  /// slots over them — a transport and a ReplicaState cell per replica. In
  /// process, every slot's transport scans the one shared `server` (the
  /// replicas of a shard are identical, so one copy serves them all); over
  /// the wire each slot reaches its own endpoint. Self-contained — the
  /// transports point only at objects inside the same group — so sets can
  /// share groups and a compaction allocates exactly one new group.
  struct ShardGroup {
    std::optional<CloudServer> server;      ///< empty when remote
    std::vector<VectorId> local_to_global;  ///< empty when remote
    std::unique_ptr<ReplicaState[]> state;  ///< [num_replicas]
    std::vector<std::unique_ptr<ShardTransport>> transports;
    /// Times this shard has been structurally rebuilt.
    std::uint64_t compaction_epoch = 0;
  };

  std::vector<std::shared_ptr<ShardGroup>> groups;
  ShardManifest manifest;
  /// Monotonic count of structural maintenance ops; 0 = never compacted.
  std::uint64_t state_version = 0;
  std::size_t num_replicas = 1;
};

// Global counters that survive swaps at a stable heap address: async work
// items outlive SearchAsync (hedge losers may still be draining when the
// winner returned) and may even outlive a move of the server object, so
// they capture Runtime* — stable — never `this`.
struct ShardedCloudServer::Runtime {
  /// Async work items still on the pool (including abandoned hedge losers);
  /// the destructor drains this before the shards are released.
  std::atomic<std::size_t> inflight{0};
  /// Lifetime totals of hedge work that lost the claim race: nodes the
  /// losers scored before aborting, and how many losing scans there were.
  /// The mid-scan-abort win is this counter staying near zero.
  std::atomic<std::size_t> cancelled_nodes{0};
  std::atomic<std::size_t> cancelled_scans{0};
};

// The maintenance seam: one mutex serializes every mutation (Insert,
// Delete, compaction, split, serialization snapshots) against the others —
// searches never take it.
struct ShardedCloudServer::Maintenance {
  std::mutex mu;
};

namespace {

using ShardSet = ShardedCloudServer::ShardSet;
using ReplicaState = ShardSet::ReplicaState;
using ShardGroup = ShardSet::ShardGroup;

/// The in-process ShardTransport: one replica slot's scan of its shard's
/// CloudServer, behind a function call. Holds pointers only into its own
/// ShardGroup — a dispatch that outlives a compaction swap keeps the group
/// alive through the coordinator's pinned ShardSet, so these never dangle.
class LocalShardTransport final : public ShardTransport {
 public:
  LocalShardTransport(const CloudServer* replica,
                      const std::vector<VectorId>* local_to_global)
      : replica_(replica), local_to_global_(local_to_global) {}

  Status Filter(const QueryToken& token, const ShardFilterOptions& options,
                SearchContext* ctx, ShardFilterResult* out) const override {
    if (replica_->index().size() == 0 ||
        (ctx != nullptr && ctx->ShouldStop(ctx->stats.nodes_visited))) {
      return Status::OK();  // cancelled/empty before any scan work
    }
    out->scanned = true;
    out->candidates = replica_->index().Search(
        token.sap.data(), options.k_prime, options.ef_search, ctx);
    for (Neighbor& nb : out->candidates) {
      nb.id = (*local_to_global_)[nb.id];
    }
    // want_dce is ignored: a local gather reads ciphertexts in place
    // (FilterShard attaches them for the RPC server path).
    return Status::OK();
  }

  bool remote() const override { return false; }

 private:
  const CloudServer* replica_;
  const std::vector<VectorId>* local_to_global_;
};

/// Shard s's group over `server`: R slots — state cells and in-process
/// transports over the one server, each wrapped by `decorate` when one is
/// set — and one local_to_global row per local id, left unmapped for the
/// caller to fill (the transports hold the vector's address, not its rows).
std::shared_ptr<ShardGroup> MakeLocalGroup(CloudServer server, std::size_t s,
                                           std::size_t num_replicas,
                                           std::uint64_t compaction_epoch,
                                           const TransportDecorator& decorate) {
  auto group = std::make_shared<ShardGroup>();
  group->server.emplace(std::move(server));
  group->compaction_epoch = compaction_epoch;
  group->local_to_global.resize(group->server->index().capacity(),
                                kInvalidVectorId);
  group->state = std::make_unique<ReplicaState[]>(num_replicas);
  group->transports.reserve(num_replicas);
  for (std::size_t r = 0; r < num_replicas; ++r) {
    std::unique_ptr<ShardTransport> transport =
        std::make_unique<LocalShardTransport>(&*group->server,
                                              &group->local_to_global);
    if (decorate) transport = decorate(s, r, std::move(transport));
    group->transports.push_back(std::move(transport));
  }
  return group;
}

/// A fresh compacted shard: the live rows of `old_index` (in local-id
/// order, so rank = new local id) rebuilt into an empty index of the same
/// kind and parameters, plus the matching compacted DCE array.
EncryptedDatabase BuildCompactedShard(const SecureFilterIndex& old_index,
                                      const std::vector<DceCiphertext>& old_dce,
                                      std::span<const VectorId> live,
                                      std::size_t build_threads) {
  FloatMatrix sap(live.size(), old_index.dim());
  for (std::size_t i = 0; i < live.size(); ++i) {
    std::memcpy(sap.row(i), old_index.data().row(live[i]),
                old_index.dim() * sizeof(float));
  }
  EncryptedDatabase db;
  db.index = old_index.MakeEmptyLike();
  db.index->BuildParallel(sap, &ThreadPool::Global(),
                          std::max<std::size_t>(build_threads, 1));
  db.dce.reserve(live.size());
  for (VectorId l : live) db.dce.push_back(old_dce[l]);
  return db;
}

/// Carries the admin-visible replica state (down flags, request totals)
/// from a replaced group onto its rebuilt successor. In-flight counts reset:
/// outstanding dispatches decrement the OLD group's cells, so copying them
/// would leave phantom load steering the dispatcher forever.
void CarryReplicaState(const ShardGroup& from, ShardGroup* to,
                       std::size_t num_replicas) {
  for (std::size_t r = 0; r < num_replicas; ++r) {
    to->state[r].down.store(from.state[r].down.load(std::memory_order_acquire),
                            std::memory_order_release);
    to->state[r].requests.store(
        from.state[r].requests.load(std::memory_order_acquire),
        std::memory_order_release);
  }
}

/// Live local ids of shard s, ascending — the rank order a rebuild assigns
/// new local ids in — or InvalidArgument naming `op` when s is outside the
/// topology.
Result<std::vector<VectorId>> LiveLocals(const ShardSet& set, std::size_t s,
                                         const char* op) {
  if (s >= set.groups.size()) {
    return Status::InvalidArgument(
        std::string(op) + ": shard " + std::to_string(s) + " is outside the " +
        std::to_string(set.groups.size()) + "-shard topology");
  }
  const SecureFilterIndex& index = set.groups[s]->server->index();
  std::vector<VectorId> live;
  live.reserve(index.size());
  for (std::size_t l = 0; l < index.capacity(); ++l) {
    if (!index.IsDeleted(static_cast<VectorId>(l))) {
      live.push_back(static_cast<VectorId>(l));
    }
  }
  return live;
}

}  // namespace

ShardedCloudServer::ShardedCloudServer(ShardedEncryptedDatabase db,
                                       TransportDecorator decorator)
    : runtime_(std::make_unique<Runtime>()),
      maintenance_(std::make_unique<Maintenance>()),
      decorator_(std::move(decorator)) {
  std::vector<CloudServer> shards;
  shards.reserve(db.shards.size());
  for (EncryptedDatabase& shard : db.shards) {
    shards.emplace_back(std::move(shard));
  }
  Adopt(std::move(shards), db.num_replicas, std::move(db.manifest),
        db.state_version, db.compaction_epochs);
}

ShardedCloudServer::ShardedCloudServer(CloudServer server)
    : runtime_(std::make_unique<Runtime>()),
      maintenance_(std::make_unique<Maintenance>()) {
  ShardManifest manifest = ShardManifest::Identity(server.index().capacity());
  std::vector<CloudServer> shards;
  shards.push_back(std::move(server));
  Adopt(std::move(shards), 1, std::move(manifest), 0, {});
}

void ShardedCloudServer::Adopt(
    std::vector<CloudServer> shards, std::size_t num_replicas,
    ShardManifest manifest, std::uint64_t state_version,
    const std::vector<std::uint64_t>& compaction_epochs) {
  PPANNS_CHECK(!shards.empty());
  PPANNS_CHECK(num_replicas >= 1);

  auto set = std::make_shared<ShardSet>();
  set->num_replicas = num_replicas;
  set->manifest = std::move(manifest);
  set->state_version = state_version;

  std::vector<std::size_t> capacities;
  capacities.reserve(shards.size());
  set->groups.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    set->groups.push_back(MakeLocalGroup(
        std::move(shards[s]), s, num_replicas,
        s < compaction_epochs.size() ? compaction_epochs[s] : 0, decorator_));
    capacities.push_back(set->groups.back()->local_to_global.size());
  }
  // Owner-built packages are consistent by construction and Deserialize
  // revalidates on load; an inconsistent manifest here is a programmer error.
  PPANNS_CHECK(set->manifest.Validate(capacities).ok());
  for (std::size_t g = 0; g < set->manifest.size(); ++g) {
    const ShardRef& ref = set->manifest.at(static_cast<VectorId>(g));
    if (IsDeadRef(ref)) continue;  // compacted-away id: no slot
    set->groups[ref.shard]->local_to_global[ref.local] =
        static_cast<VectorId>(g);
  }

  set_ = std::make_unique<EpochPtr<ShardSet>>(std::move(set));
}

ShardedCloudServer::ShardedCloudServer(
    const RemoteTopology& topology,
    std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports)
    : topology_(topology),
      remote_(true),
      runtime_(std::make_unique<Runtime>()),
      maintenance_(std::make_unique<Maintenance>()) {
  PPANNS_CHECK(!transports.empty());
  PPANNS_CHECK(transports.size() == topology.num_shards);
  auto set = std::make_shared<ShardSet>();
  set->num_replicas = topology.num_replicas;
  set->groups.reserve(transports.size());
  for (auto& group_transports : transports) {
    PPANNS_CHECK(group_transports.size() == topology.num_replicas);
    for (const auto& transport : group_transports) {
      PPANNS_CHECK(transport != nullptr);
    }
    auto group = std::make_shared<ShardGroup>();
    group->state = std::make_unique<ReplicaState[]>(topology.num_replicas);
    group->transports = std::move(group_transports);
    set->groups.push_back(std::move(group));
  }
  set_ = std::make_unique<EpochPtr<ShardSet>>(std::move(set));
}

// Out of line: ShardSet/Runtime/Maintenance are incomplete in the header.
ShardedCloudServer::ShardedCloudServer(ShardedCloudServer&&) noexcept = default;

ShardedCloudServer& ShardedCloudServer::operator=(
    ShardedCloudServer&& other) noexcept {
  if (this != &other) {
    // The shards and runtime about to be released may still be read by
    // abandoned async work items; wait them out like the destructor does.
    DrainAsyncWork();
    set_ = std::move(other.set_);
    topology_ = other.topology_;
    remote_ = other.remote_;
    runtime_ = std::move(other.runtime_);
    maintenance_ = std::move(other.maintenance_);
    mutation_transports_ = std::move(other.mutation_transports_);
    remote_epoch_ = std::move(other.remote_epoch_);
    decorator_ = std::move(other.decorator_);
  }
  return *this;
}

void ShardedCloudServer::AttachMutationTransports(
    std::vector<std::unique_ptr<MutationTransport>> transports) {
  PPANNS_CHECK(remote_);
  for (const auto& transport : transports) PPANNS_CHECK(transport != nullptr);
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  mutation_transports_ = std::move(transports);
}

void ShardedCloudServer::AttachRemoteEpochFence(
    std::shared_ptr<std::atomic<std::uint64_t>> fence) {
  PPANNS_CHECK(remote_);
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  remote_epoch_ = std::move(fence);
}

Result<MutationOutcome> ShardedCloudServer::BroadcastMutation(
    const char* what,
    const std::function<Result<MutationOutcome>(MutationTransport&)>& apply) {
  // Serialized against concurrent remote mutations by the same mutex the
  // local path uses; searches never take it.
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  if (mutation_transports_.empty()) {
    return Status::NotSupported(
        std::string(what) +
        ": this gather node serves remote shards without a mutation path; "
        "attach mutation transports (ConnectCluster) or apply maintenance on "
        "the shard servers' own database");
  }
  // Broadcast to every endpoint — each holds the full package, so agreement
  // on the post-apply observables is what keeps them byte-identical.
  std::vector<MutationOutcome> outcomes;
  outcomes.reserve(mutation_transports_.size());
  for (const auto& transport : mutation_transports_) {
    auto outcome = apply(*transport);
    if (!outcome.ok()) {
      // The command never reached this endpoint. Earlier endpoints may have
      // applied it already — surface that, it is the operator's cue to
      // restore the endpoint (the re-dialing pool will) and re-converge.
      return Status::IOError(
          std::string(what) + ": endpoint " + transport->endpoint() +
          " unreachable after " + std::to_string(outcomes.size()) + " of " +
          std::to_string(mutation_transports_.size()) +
          " endpoints already applied: " + outcome.status().ToString());
    }
    outcomes.push_back(std::move(*outcome));
  }
  const MutationOutcome& first = outcomes.front();
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    const MutationOutcome& other = outcomes[i];
    if (other.status.code() != first.status.code() || other.id != first.id ||
        other.state_version != first.state_version ||
        other.size != first.size) {
      return Status::FailedPrecondition(
          std::string(what) + ": endpoints diverged — " +
          mutation_transports_.front()->endpoint() + " reports (id " +
          std::to_string(first.id) + ", state_version " +
          std::to_string(first.state_version) + ", size " +
          std::to_string(first.size) + "), " +
          mutation_transports_[i]->endpoint() + " reports (id " +
          std::to_string(other.id) + ", state_version " +
          std::to_string(other.state_version) + ", size " +
          std::to_string(other.size) + ")");
    }
  }
  if (remote_epoch_ != nullptr) {
    // Fold the agreed post-apply epoch into the cluster fence (monotonic
    // max) so the gather's cache invalidation epoch advances with it.
    std::uint64_t cur = remote_epoch_->load(std::memory_order_acquire);
    while (first.state_version > cur &&
           !remote_epoch_->compare_exchange_weak(cur, first.state_version,
                                                 std::memory_order_acq_rel)) {
    }
  }
  // The agreed post-apply size refreshes the handshake-time snapshot, so
  // size() on the gather tracks the cluster across mutations (still under
  // maintenance_->mu — callers sequence reads against their own mutations,
  // the same contract as the local path).
  topology_.size = static_cast<std::size_t>(first.size);
  return first;
}

ShardedCloudServer::~ShardedCloudServer() { DrainAsyncWork(); }

void ShardedCloudServer::DrainAsyncWork() const {
  if (runtime_ == nullptr) return;  // moved-from
  while (runtime_->inflight.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

// ---- Maintenance ------------------------------------------------------------

Status ShardedCloudServer::RebuildShardLocked(
    std::size_t s, const std::vector<std::span<const VectorId>>& parts,
    std::size_t build_threads) {
  const std::shared_ptr<ShardSet> cur = set_->Current();
  const ShardGroup& old_group = *cur->groups[s];
  const CloudServer& old_shard = *old_group.server;

  // The expensive part — gathering rows and rebuilding the indexes — reads
  // the old group const while searches keep serving it. Nothing is
  // published until the single Swap below.
  auto next = std::make_shared<ShardSet>();
  next->num_replicas = cur->num_replicas;
  next->state_version = cur->state_version + 1;
  next->groups = cur->groups;  // every other shard is shared, not copied
  next->manifest = cur->manifest;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    // Part 0 keeps shard id s and its slots' admin state; a later part is a
    // new shard appended at the end, with clean state (it did not exist
    // when the flags were set).
    const std::size_t id = p == 0 ? s : next->groups.size();
    const std::span<const VectorId> part = parts[p];
    std::shared_ptr<ShardGroup> group = MakeLocalGroup(
        CloudServer(BuildCompactedShard(old_shard.index(),
                                        old_shard.dce_ciphertexts(), part,
                                        build_threads)),
        id, cur->num_replicas, old_group.compaction_epoch + 1, decorator_);
    if (p == 0) CarryReplicaState(old_group, group.get(), cur->num_replicas);
    for (std::size_t i = 0; i < part.size(); ++i) {
      const VectorId g = old_group.local_to_global[part[i]];
      group->local_to_global[i] = g;
      next->manifest.entries[g] =
          ShardRef{static_cast<ShardId>(id), static_cast<VectorId>(i)};
    }
    if (p == 0) {
      next->groups[s] = std::move(group);
    } else {
      next->groups.push_back(std::move(group));
    }
  }
  // Tombstoned slots are physically gone: their global ids become dead refs
  // (forever — ids are never reused), so Delete reports NotFound and a
  // reloaded package validates.
  for (std::size_t l = 0; l < old_group.local_to_global.size(); ++l) {
    if (!old_shard.index().IsDeleted(static_cast<VectorId>(l))) continue;
    const VectorId g = old_group.local_to_global[l];
    if (g != kInvalidVectorId) next->manifest.entries[g] = kDeadShardRef;
  }

  set_->Swap(std::move(next));
  return Status::OK();
}

Status ShardedCloudServer::CompactShardLocked(std::size_t s,
                                              std::size_t build_threads) {
  auto live = LiveLocals(*set_->Current(), s, "CompactShard");
  if (!live.ok()) return live.status();
  return RebuildShardLocked(s, {std::span<const VectorId>(*live)},
                            build_threads);
}

Status ShardedCloudServer::SplitShardLocked(std::size_t s,
                                            std::size_t build_threads) {
  auto live = LiveLocals(*set_->Current(), s, "SplitShard");
  if (!live.ok()) return live.status();
  if (live->size() < 2) {
    return Status::FailedPrecondition("SplitShard: shard " +
                                      std::to_string(s) + " has " +
                                      std::to_string(live->size()) +
                                      " live vectors; nothing to split");
  }
  // Deterministic split by live rank: the first ceil(n/2) stay on shard s,
  // the rest move to a new shard appended at the end. Both halves are built
  // compacted, so the split doubles as a compaction of s.
  const std::span<const VectorId> all(*live);
  const std::size_t keep = (all.size() + 1) / 2;
  return RebuildShardLocked(s, {all.first(keep), all.subspan(keep)},
                            build_threads);
}

Status ShardedCloudServer::CompactShard(std::size_t s) {
  if (remote_) {
    MaintenanceCommand cmd;
    cmd.op = MaintenanceCommand::Op::kCompactShard;
    cmd.shard = static_cast<std::uint32_t>(s);
    auto outcome = BroadcastMutation(
        "CompactShard",
        [&cmd](MutationTransport& t) { return t.Maintain(cmd); });
    if (!outcome.ok()) return outcome.status();
    return outcome->status;
  }
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  return CompactShardLocked(s, /*build_threads=*/1);
}

Status ShardedCloudServer::SplitShard(std::size_t s) {
  if (remote_) {
    MaintenanceCommand cmd;
    cmd.op = MaintenanceCommand::Op::kSplitShard;
    cmd.shard = static_cast<std::uint32_t>(s);
    auto outcome = BroadcastMutation(
        "SplitShard",
        [&cmd](MutationTransport& t) { return t.Maintain(cmd); });
    if (!outcome.ok()) return outcome.status();
    return outcome->status;
  }
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  return SplitShardLocked(s, /*build_threads=*/1);
}

Result<std::size_t> ShardedCloudServer::MaybeCompact(
    const MaintenanceOptions& options) {
  if (remote_) {
    MaintenanceCommand cmd;
    cmd.op = MaintenanceCommand::Op::kSweep;
    cmd.compact_threshold = options.compact_threshold;
    cmd.split_skew = options.split_skew;
    cmd.min_split_size = options.min_split_size;
    cmd.build_threads = options.build_threads;
    auto outcome = BroadcastMutation(
        "MaybeCompact",
        [&cmd](MutationTransport& t) { return t.Maintain(cmd); });
    if (!outcome.ok()) return outcome.status();
    PPANNS_RETURN_IF_ERROR(outcome->status);
    return static_cast<std::size_t>(outcome->ops);
  }
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  std::size_t ops = 0;

  // Compaction pass: sweep the shard list once; each CompactShardLocked
  // swaps a fresh set, so re-read the current one per decision.
  const std::size_t shard_count = set_->Current()->groups.size();
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::shared_ptr<ShardSet> cur = set_->Current();
    const SecureFilterIndex& index = cur->groups[s]->server->index();
    if (index.capacity() == 0) continue;
    const std::size_t dead = index.capacity() - index.size();
    if (dead == 0) continue;
    const double ratio =
        static_cast<double>(dead) / static_cast<double>(index.capacity());
    if (ratio <= options.compact_threshold) continue;
    if (CompactShardLocked(s, options.build_threads).ok()) ++ops;
  }

  // Split pass: one split per sweep keeps a polling caller's swaps paced
  // (the next sweep re-evaluates the new topology).
  if (options.split_skew > 0.0) {
    const std::shared_ptr<ShardSet> cur = set_->Current();
    std::size_t total = 0, heaviest = 0, heaviest_size = 0;
    for (std::size_t s = 0; s < cur->groups.size(); ++s) {
      const std::size_t live = cur->groups[s]->server->size();
      total += live;
      if (live > heaviest_size) {
        heaviest_size = live;
        heaviest = s;
      }
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(cur->groups.size());
    if (heaviest_size >= options.min_split_size &&
        static_cast<double>(heaviest_size) > options.split_skew * mean) {
      if (SplitShardLocked(heaviest, options.build_threads).ok()) ++ops;
    }
  }
  return ops;
}

double ShardedCloudServer::tombstone_ratio(std::size_t s) const {
  PPANNS_CHECK(!remote_);
  const std::shared_ptr<const ShardSet> set = set_->Pin();
  const SecureFilterIndex& index = set->groups[s]->server->index();
  if (index.capacity() == 0) return 0.0;
  return static_cast<double>(index.capacity() - index.size()) /
         static_cast<double>(index.capacity());
}

std::uint64_t ShardedCloudServer::last_compaction_epoch(std::size_t s) const {
  PPANNS_CHECK(!remote_);
  return set_->Pin()->groups[s]->compaction_epoch;
}

std::uint64_t ShardedCloudServer::state_version() const {
  if (remote_) {
    // The epoch fence: the max post-apply state_version any mutation
    // response or health ping has reported. 0 before a fence is attached.
    return remote_epoch_ != nullptr
               ? remote_epoch_->load(std::memory_order_acquire)
               : 0;
  }
  return set_->Pin()->state_version;
}

// ---- Accessors --------------------------------------------------------------

std::size_t ShardedCloudServer::size() const {
  if (remote_) return topology_.size;
  const std::shared_ptr<const ShardSet> set = set_->Pin();
  std::size_t total = 0;
  for (const auto& group : set->groups) total += group->server->size();
  return total;
}

std::size_t ShardedCloudServer::capacity() const {
  if (remote_) return topology_.capacity;
  return set_->Pin()->manifest.size();
}

std::size_t ShardedCloudServer::dim() const {
  if (remote_) return topology_.dim;
  return set_->Pin()->groups.front()->server->index().dim();
}

IndexKind ShardedCloudServer::index_kind() const {
  if (remote_) return topology_.index_kind;
  return set_->Pin()->groups.front()->server->index().kind();
}

std::size_t ShardedCloudServer::num_shards() const {
  return set_->Pin()->groups.size();
}

std::size_t ShardedCloudServer::replication_factor() const {
  return set_->Pin()->num_replicas;
}

const CloudServer& ShardedCloudServer::shard(std::size_t s) const {
  PPANNS_CHECK(!remote_);
  return *set_->Pin()->groups[s]->server;
}

const CloudServer& ShardedCloudServer::replica(std::size_t s,
                                               std::size_t r) const {
  PPANNS_CHECK(r < replication_factor());
  return shard(s);
}

const ShardManifest& ShardedCloudServer::manifest() const {
  return set_->Pin()->manifest;
}

// ---- Replica health / load surface ------------------------------------------

void ShardedCloudServer::SetReplicaDown(std::size_t s, std::size_t r,
                                        bool down) {
  set_->Pin()->groups[s]->state[r].down.store(down, std::memory_order_release);
}

bool ShardedCloudServer::ReplicaDown(const ShardSet& set, std::size_t s,
                                     std::size_t r) {
  return set.groups[s]->state[r].down.load(std::memory_order_acquire) ||
         !set.groups[s]->transports[r]->Healthy();
}

bool ShardedCloudServer::replica_down(std::size_t s, std::size_t r) const {
  return ReplicaDown(*set_->Pin(), s, r);
}

int ShardedCloudServer::replica_inflight(std::size_t s, std::size_t r) const {
  return set_->Pin()->groups[s]->state[r].inflight.load(
      std::memory_order_acquire);
}

std::size_t ShardedCloudServer::replica_requests(std::size_t s,
                                                 std::size_t r) const {
  return set_->Pin()->groups[s]->state[r].requests.load(
      std::memory_order_acquire);
}

std::size_t ShardedCloudServer::CancelledWorkNodes() const {
  DrainAsyncWork();
  return runtime_->cancelled_nodes.load(std::memory_order_acquire);
}

std::size_t ShardedCloudServer::CancelledScans() const {
  DrainAsyncWork();
  return runtime_->cancelled_scans.load(std::memory_order_acquire);
}

std::size_t ShardedCloudServer::live_replicas(std::size_t s) const {
  const std::shared_ptr<const ShardSet> set = set_->Pin();
  std::size_t live = 0;
  for (std::size_t r = 0; r < set->num_replicas; ++r) {
    if (!ReplicaDown(*set, s, r)) ++live;
  }
  return live;
}

int ShardedCloudServer::PickReplica(const ShardSet& set, std::size_t s,
                                    std::size_t* skipped,
                                    const std::vector<std::uint8_t>* tried) {
  int best = -1;
  int best_load = std::numeric_limits<int>::max();
  bool seen_live = false;
  for (std::size_t r = 0; r < set.num_replicas; ++r) {
    if (tried != nullptr && (*tried)[r]) continue;
    if (ReplicaDown(set, s, r)) {
      // Down replicas ahead of the first live one count as skipped, matching
      // the first-live accounting the counters have always reported.
      if (!seen_live && skipped != nullptr) ++*skipped;
      continue;
    }
    seen_live = true;
    const int load =
        set.groups[s]->state[r].inflight.load(std::memory_order_acquire);
    if (load < best_load) {
      best_load = load;
      best = static_cast<int>(r);
    }
  }
  return best;
}

ShardFilterOptions ShardedCloudServer::MakeFilterOptions(
    std::size_t k_prime, const SearchSettings& settings) const {
  ShardFilterOptions options;
  options.k_prime = k_prime;
  options.ef_search = settings.ef_search;
  options.want_dce = remote_ && settings.refine;
  options.admission_ms = settings.admission_ms;
  return options;
}

Status ShardedCloudServer::FilterVia(const ShardSet& set, std::size_t s,
                                     std::size_t r, const QueryToken& token,
                                     const ShardFilterOptions& options,
                                     SearchContext* ctx,
                                     ShardFilterResult* out) {
  ReplicaState& state = set.groups[s]->state[r];
  state.inflight.fetch_add(1, std::memory_order_acq_rel);
  Timer timer;
  const Status st = set.groups[s]->transports[r]->Filter(token, options, ctx, out);
  ctx->stats.filter_seconds += timer.ElapsedSeconds();
  if (out->scanned) state.requests.fetch_add(1, std::memory_order_acq_rel);
  state.inflight.fetch_sub(1, std::memory_order_acq_rel);
  return st;
}

Status ShardedCloudServer::FilterShard(std::size_t s, std::size_t r,
                                       const QueryToken& token,
                                       const ShardFilterOptions& options,
                                       SearchContext* ctx,
                                       ShardFilterResult* out) const {
  PPANNS_CHECK(!remote_);
  const std::shared_ptr<const ShardSet> set = set_->Pin();
  if (s >= set->groups.size() || r >= set->num_replicas) {
    return Status::InvalidArgument(
        "FilterShard: replica (" + std::to_string(s) + ", " +
        std::to_string(r) + ") is outside the " +
        std::to_string(set->groups.size()) + "x" +
        std::to_string(set->num_replicas) + " topology");
  }
  if (options.k_prime == 0) {
    return Status::InvalidArgument("FilterShard: k' must be positive");
  }
  SearchContext local;
  if (ctx == nullptr) ctx = &local;
  PPANNS_RETURN_IF_ERROR(FilterVia(*set, s, r, token, options, ctx, out));
  if (options.want_dce) {
    // Ship the candidates' ciphertexts for the remote refine phase.
    const CloudServer& source = *set->groups[s]->server;
    out->dce.reserve(out->candidates.size());
    for (const Neighbor& nb : out->candidates) {
      const ShardRef& ref = set->manifest.at(nb.id);
      out->dce.push_back(source.dce_ciphertexts()[ref.local]);
    }
  }
  return Status::OK();
}

void ShardedCloudServer::MergeAndRefine(
    const ShardSet& set, const QueryToken& token, std::size_t k,
    const SearchSettings& settings, std::size_t k_prime,
    std::span<const ItemOutcome> items, SearchContext* ctx,
    SearchResult* result) const {
  // ---- Gather: merge to the global SAP-top-k' under the same
  // (distance, global id) order an unsharded filter phase produces. Each
  // shard's top-k' is complete for that shard, so the merged prefix equals
  // the unsharded candidate list whenever the backends are exact. A remote
  // candidate travels with its shipped ciphertext.
  const bool want_dce = remote_ && settings.refine;
  std::vector<std::pair<Neighbor, const DceCiphertext*>> merged;
  for (const ItemOutcome& item : items) {
    ctx->MergeChild(item.ctx);
    const ShardFilterResult& answer = item.answer;
    // A remote answer without its ciphertexts cannot be refined: it counts
    // as a shard that did not answer.
    if (!item.served ||
        (want_dce && answer.dce.size() != answer.candidates.size())) {
      result->partial = true;
      continue;
    }
    for (std::size_t j = 0; j < answer.candidates.size(); ++j) {
      merged.emplace_back(answer.candidates[j],
                          want_dce ? &answer.dce[j] : nullptr);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (merged.size() > k_prime) merged.resize(k_prime);

  // ---- Refine: one DCE sorted k-buffer over the merged budget. A local
  // candidate's ciphertext is read in place from its shard.
  std::vector<Neighbor> candidates;
  std::vector<const DceCiphertext*> dce;
  candidates.reserve(merged.size());
  if (settings.refine) dce.reserve(merged.size());
  for (const auto& [nb, shipped] : merged) {
    candidates.push_back(nb);
    if (!settings.refine) continue;
    if (remote_) {
      dce.push_back(shipped);
    } else {
      const ShardRef& ref = set.manifest.at(nb.id);
      const CloudServer& shard = *set.groups[ref.shard]->server;
      dce.push_back(&shard.dce_ciphertexts()[ref.local]);
    }
  }
  RefineCandidates(candidates, dce, token, k, settings, ctx, result);
}

std::vector<SearchResult> ShardedCloudServer::Scatter(
    std::span<const QueryToken> tokens, std::size_t k,
    const SearchSettings& settings, const AsyncOptions& async,
    SearchContext* ctx) const {
  PPANNS_CHECK(ctx == nullptr || tokens.size() == 1);
  const std::size_t num_queries = tokens.size();
  std::vector<SearchResult> results(num_queries);
  if (num_queries == 0 || k == 0 || size() == 0) return results;
  const std::size_t k_prime = ResolveKPrime(settings, k);
  const ShardFilterOptions options = MakeFilterOptions(k_prime, settings);

  // Pin the serving state once: the whole call (scatter, merge, refine)
  // reads this set even if a compaction swaps a new one in meanwhile.
  const std::shared_ptr<const ShardSet> set = set_->Pin();
  const std::size_t num_shards = set->groups.size();

  // Per-query contexts: the deadline/budget knobs bound every query
  // independently, and each query's stats land in its own counters.
  std::vector<SearchContext> owned(ctx == nullptr ? num_queries : 0);
  std::vector<SearchContext*> query_ctx(num_queries, ctx);
  for (std::size_t q = 0; q < num_queries; ++q) {
    if (ctx == nullptr) query_ctx[q] = &owned[q];
    ApplyContextSettings(query_ctx[q], settings);
  }

  // ---- Scatter (filter phase): one work item per (query, shard), so a
  // small batch still spreads across every core. Each item scans under a
  // Child of its query's context (contexts are single-threaded by design).
  std::vector<ItemOutcome> items;
  if (async.hedge_ms > 0.0 && !ThreadPool::Global().InWorker()) {
    // Hedging needs this thread as the gather/inline-hedge executor, which
    // a pool worker cannot be for itself.
    items = RunHedgedScatter(set, tokens, query_ctx, options, async);
  } else {
    // Barrier: each shard serves from the replica picked once for the whole
    // call (load-aware; on an idle cluster the first live one). The gather
    // waits for every item — tail latency is the slowest replica.
    std::vector<int> serving(num_shards);
    std::vector<std::size_t> skipped(num_shards, 0);
    for (std::size_t s = 0; s < num_shards; ++s) {
      serving[s] = PickReplica(*set, s, &skipped[s]);
    }
    items.resize(num_queries * num_shards);
    for (std::size_t i = 0; i < items.size(); ++i) {
      items[i].ctx = query_ctx[i / num_shards]->Child();
      items[i].ctx.stats.replicas_skipped = skipped[i % num_shards];
    }
    ThreadPool::Global().ParallelFor(
        items.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t s = i % num_shards;
            if (serving[s] < 0) continue;
            ItemOutcome& item = items[i];
            item.failed =
                !FilterVia(*set, s, static_cast<std::size_t>(serving[s]),
                           tokens[i / num_shards], options, &item.ctx,
                           &item.answer)
                     .ok();
            item.served = !item.failed;
            if (item.failed) {
              item.tried.assign(set->num_replicas, 0);
              item.tried[static_cast<std::size_t>(serving[s])] = 1;
            }
          }
        });
  }

  // ---- Failover: a dispatch that failed (not one that found no live
  // replica, nor one abandoned at the deadline) retries on the shard's
  // least-loaded live replica the item has not tried yet. Replicas are
  // identical, so whichever answers, the ids are the same.
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].failed) failed.push_back(i);
  }
  ThreadPool::Global().ParallelFor(
      failed.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t f = begin; f < end; ++f) {
          const std::size_t i = failed[f];
          const std::size_t s = i % num_shards;
          ItemOutcome& item = items[i];
          while (!item.served) {
            const int r = PickReplica(*set, s, nullptr, &item.tried);
            if (r < 0) break;
            item.tried[static_cast<std::size_t>(r)] = 1;
            // The retry scans on a fresh context; the failed dispatches'
            // scan stats are dropped, the item's dispatch record carries.
            SearchContext retry = query_ctx[i / num_shards]->Child();
            retry.stats.filter_seconds = item.ctx.stats.filter_seconds;
            retry.stats.hedged_requests = item.ctx.stats.hedged_requests;
            retry.stats.replicas_skipped = item.ctx.stats.replicas_skipped;
            item.ctx = std::move(retry);
            item.answer = {};
            item.served =
                FilterVia(*set, s, static_cast<std::size_t>(r),
                          tokens[i / num_shards], options, &item.ctx,
                          &item.answer)
                    .ok();
          }
        }
      });

  // ---- Gather: merge and refine each query, fanned across queries.
  ThreadPool::Global().ParallelFor(
      num_queries, [&](std::size_t begin, std::size_t end) {
        for (std::size_t q = begin; q < end; ++q) {
          const std::span<const ItemOutcome> own(
              items.data() + q * num_shards, num_shards);
          MergeAndRefine(*set, tokens[q], k, settings, k_prime, own,
                         query_ctx[q], &results[q]);
        }
      });
  return results;
}

std::vector<ShardedCloudServer::ItemOutcome>
ShardedCloudServer::RunHedgedScatter(
    std::shared_ptr<const ShardSet> set, std::span<const QueryToken> tokens,
    std::span<SearchContext* const> query_ctx,
    const ShardFilterOptions& options, const AsyncOptions& async) const {
  ThreadPool& pool = ThreadPool::Global();
  const std::size_t num_shards = set->groups.size();
  const std::size_t num_items = tokens.size() * num_shards;
  Runtime* const rt = runtime_.get();
  std::vector<ItemOutcome> outcome(num_items);

  // Everything an abandoned work item may touch after this call returns
  // lives here, behind a shared_ptr: the token copies, the claim flags, the
  // answer slots — and the pinned ShardSet, so a compaction swap mid-query
  // can never free a group a straggler still reads.
  struct ItemSlot {
    /// Raised by the first dispatch to finish — and registered as a
    /// cancellation source in every dispatch's context, so losers abort
    /// mid-scan at their next probe. A remote loser's probe fires inside
    /// the RPC wait, turning into one CANCEL frame on the wire.
    std::atomic<bool> claimed{false};
    bool answered = false;     // guarded by Coordinator::mu
    bool served = false;       // a dispatch answered, guarded by mu
    bool failed = false;       // every dispatch failed, guarded by mu
    int running = 0;           // dispatches issued, not failed; guarded by mu
    ShardFilterResult answer;  // guarded by mu
    /// The winner's stats, reason and delay + scan time; guarded by mu.
    SearchContext ctx;
  };
  struct Coordinator {
    std::shared_ptr<const ShardSet> set;  ///< keeps every group alive
    std::vector<QueryToken> tokens;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;  // items dispatched but not yet answered
    std::unique_ptr<ItemSlot[]> slots;
  };
  auto co = std::make_shared<Coordinator>();
  co->set = set;
  co->tokens.assign(tokens.begin(), tokens.end());
  co->slots = std::make_unique<ItemSlot[]>(num_items);
  co->pending = num_items;

  // One dispatch of one (query, shard) item on a chosen replica, through its
  // transport — in-process scan or remote RPC, the hedging machinery cannot
  // tell. The context is assembled at dispatch time: the query's deadline
  // and cancellation flags (Child), plus — when mid-scan cancellation is on
  // — the item's claim flag. The item carries everything it touches through
  // the coordinator (which pins the ShardSet) or the stable Runtime, never
  // `this`, because a loser can outlive the calling search (its in-flight
  // count is what the destructor drains).
  struct Dispatch {
    std::shared_ptr<Coordinator> co;
    const ShardTransport* transport;
    ReplicaState* state;  // the dispatched replica's counters (in co->set)
    Runtime* rt;
    std::size_t item;
    std::size_t token_index;
    ShardFilterOptions options;
    SearchContext ctx;  // pre-assembled; stats stay local to this dispatch

    void operator()() {
      ItemSlot& slot = co->slots[item];
      if (slot.claimed.load(std::memory_order_acquire)) {
        // Lost before starting: nothing was wasted, nothing to record.
        Finish();
        return;
      }
      Timer item_timer;
      ShardFilterResult answer;
      const Status st = transport->Filter(co->tokens[token_index], options,
                                          &ctx, &answer);
      ctx.stats.filter_seconds += item_timer.ElapsedSeconds();
      if (answer.scanned) {
        state->requests.fetch_add(1, std::memory_order_acq_rel);
      }
      // A kCancelled exit means we lost only if the *claim* flag is up
      // (another dispatch won). A caller-raised flag with no claim yet
      // must still publish its partial answer — otherwise every dispatch
      // of the item would walk away and the gather would wait on
      // `pending` forever.
      const bool lost_race =
          ctx.early_exit() == EarlyExit::kCancelled &&
          slot.claimed.load(std::memory_order_acquire);
      if (lost_race) {
        if (answer.scanned) RecordWaste();
        Finish();
        return;
      }
      if (!st.ok()) {
        PublishFailure(slot);
      } else if (!slot.claimed.exchange(true, std::memory_order_acq_rel)) {
        // First answer wins.
        std::lock_guard<std::mutex> lock(co->mu);
        slot.answered = true;
        slot.served = true;
        slot.answer = std::move(answer);
        slot.ctx = ctx;
        --co->pending;
        co->cv.notify_all();
      } else if (answer.scanned) {
        // Claimed between our probe and the exchange: a straggler loss.
        RecordWaste();
      }
      Finish();
    }

    /// A failed dispatch (dead remote connection, server shed) answers its
    /// item only as the item's last running dispatch — a slower replica
    /// still working on it may yet answer — and then as failed, so the
    /// gather never hangs and Scatter fails the item over to a replica it
    /// has not tried.
    void PublishFailure(ItemSlot& slot) {
      std::lock_guard<std::mutex> lock(co->mu);
      if (--slot.running > 0 ||
          slot.claimed.exchange(true, std::memory_order_acq_rel)) {
        return;
      }
      slot.answered = true;
      slot.failed = true;
      slot.ctx = ctx;
      --co->pending;
      co->cv.notify_all();
    }

    /// Lost the race after burning real work: account it. This counter
    /// staying near zero is what mid-scan cancellation buys — locally
    /// through the claim-flag probe, remotely through the CANCEL frame (the
    /// response's partial stats land in `ctx`).
    void RecordWaste() {
      rt->cancelled_nodes.fetch_add(ctx.stats.nodes_visited,
                                    std::memory_order_acq_rel);
      rt->cancelled_scans.fetch_add(1, std::memory_order_acq_rel);
    }

    void Finish() {
      state->inflight.fetch_sub(1, std::memory_order_acq_rel);
      rt->inflight.fetch_sub(1, std::memory_order_acq_rel);
    }
  };

  const auto make_dispatch = [&](std::size_t item, std::size_t r) {
    SearchContext ctx = query_ctx[item / num_shards]->Child();
    ctx.AddCancelFlag(&co->slots[item].claimed);
    const std::size_t s = item % num_shards;
    ReplicaState* const state = &co->set->groups[s]->state[r];
    state->inflight.fetch_add(1, std::memory_order_acq_rel);
    rt->inflight.fetch_add(1, std::memory_order_acq_rel);
    return Dispatch{co,
                    co->set->groups[s]->transports[r].get(),
                    state,
                    rt,
                    item,
                    item / num_shards,
                    options,
                    std::move(ctx)};
  };

  // ---- Initial scatter: every item to the least-loaded live replica of
  // its shard, on the pool. An item whose shard has no live replica is
  // answered at once, unserved.
  for (std::size_t i = 0; i < num_items; ++i) {
    outcome[i].tried.assign(set->num_replicas, 0);
    const int r = PickReplica(*set, i % num_shards,
                              &outcome[i].ctx.stats.replicas_skipped);
    if (r < 0) {
      std::lock_guard<std::mutex> lock(co->mu);
      co->slots[i].answered = true;
      --co->pending;
      continue;
    }
    outcome[i].tried[static_cast<std::size_t>(r)] = 1;
    co->slots[i].running = 1;  // published to the dispatch by Submit
    pool.Submit(make_dispatch(i, static_cast<std::size_t>(r)));
  }

  // ---- Gather with hedging: wait in hedge_ms steps; at each missed
  // deadline, run the unanswered items on their shard's next-best live
  // replica INLINE on this thread. The gather thread is otherwise idle, so
  // a hedge makes progress even when every pool worker is stuck behind a
  // straggler (including on a single-worker pool); the loser aborts at its
  // next cancellation probe once the inline run claims the slot.
  auto query_deadline = SearchContext::Clock::time_point::max();
  for (const SearchContext* qc : query_ctx) {
    if (qc->has_deadline()) {
      query_deadline = std::min(query_deadline, qc->deadline());
    }
  }
  {
    std::unique_lock<std::mutex> lock(co->mu);
    const auto start = std::chrono::steady_clock::now();
    std::size_t level = 1;
    bool escalation_left = true;
    for (;;) {
      auto wake = query_deadline;
      if (escalation_left) {
        const auto hedge_deadline =
            start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(
                    async.hedge_ms * static_cast<double>(level)));
        wake = std::min(wake, hedge_deadline);
      }
      bool done;
      if (wake == SearchContext::Clock::time_point::max()) {
        co->cv.wait(lock, [&co] { return co->pending == 0; });
        done = true;
      } else {
        done = co->cv.wait_until(lock, wake,
                                 [&co] { return co->pending == 0; });
      }
      if (done) break;
      if (SearchContext::Clock::now() >= query_deadline) {
        // Query deadline: abandon the gather. In-flight dispatches observe
        // the same deadline through their contexts and stop on their own.
        for (SearchContext* qc : query_ctx) qc->ShouldStop();
        break;
      }
      if (!escalation_left) continue;

      // Escalate every unanswered item to its shard's next-best live
      // replica, inline. The lock is dropped while scanning so finishing
      // pool items can deliver their answers meanwhile.
      std::vector<std::pair<std::size_t, std::size_t>> to_run;  // (item, r)
      escalation_left = false;
      for (std::size_t i = 0; i < num_items; ++i) {
        if (co->slots[i].answered) continue;
        std::vector<std::uint8_t>& tried = outcome[i].tried;
        const int best = PickReplica(*set, i % num_shards, nullptr, &tried);
        if (best < 0) continue;
        tried[static_cast<std::size_t>(best)] = 1;
        ++outcome[i].ctx.stats.hedged_requests;
        // Counted under the lock that decided the hedge, so a dispatch of
        // this item failing meanwhile leaves the item to the hedge.
        ++co->slots[i].running;
        if (PickReplica(*set, i % num_shards, nullptr, &tried) >= 0) {
          escalation_left = true;
        }
        to_run.emplace_back(i, static_cast<std::size_t>(best));
      }
      ++level;
      if (to_run.empty()) continue;
      lock.unlock();
      for (const auto& [item, r] : to_run) {
        Dispatch hedge = make_dispatch(item, r);
        hedge();
      }
      lock.lock();
    }

    // ---- Collect under the same lock that guards the answer slots. Losers
    // may still be running; they can no longer win the claim, so answered
    // slots are stable. An item still unanswered was abandoned at the
    // deadline and stays unserved.
    for (std::size_t i = 0; i < num_items; ++i) {
      ItemSlot& slot = co->slots[i];
      if (!slot.answered) continue;
      outcome[i].answer = std::move(slot.answer);
      outcome[i].ctx.MergeChild(slot.ctx);  // stats and reason, no flags
      outcome[i].served = slot.served;
      outcome[i].failed = slot.failed;
    }
  }
  return outcome;
}

SearchResult ShardedCloudServer::Search(const QueryToken& token, std::size_t k,
                                        const SearchSettings& settings,
                                        SearchContext* ctx) const {
  return std::move(Scatter(std::span(&token, 1), k, settings,
                           AsyncOptions{.hedge_ms = 0.0}, ctx)
                       .front());
}

Result<SearchResult> ShardedCloudServer::SearchAsync(
    const QueryToken& token, std::size_t k, const SearchSettings& settings,
    const AsyncOptions& async, SearchContext* ctx) const {
  std::size_t live = 0;
  for (std::size_t s = 0; s < num_shards(); ++s) live += live_replicas(s);
  if (live == 0) {
    return Status::FailedPrecondition(
        "SearchAsync: every replica of every shard is down");
  }
  SearchResult result =
      std::move(Scatter(std::span(&token, 1), k, settings, async, ctx).front());
  // A query cut short by its deadline stays a result with early_exit set:
  // its Status is DeadlineExceeded, which the facade derives from it.
  if (result.partial && !async.allow_partial &&
      result.counters.early_exit != EarlyExit::kDeadlineExpired) {
    return Status::FailedPrecondition(
        "SearchAsync: a shard did not answer and partial results are "
        "disabled");
  }
  return result;
}

std::vector<SearchResult> ShardedCloudServer::SearchBatchScattered(
    std::span<const QueryToken> tokens, std::size_t k,
    const SearchSettings& settings, const AsyncOptions& async) const {
  return Scatter(tokens, k, settings, async, nullptr);
}

Result<VectorId> ShardedCloudServer::Insert(const EncryptedVector& v) {
  if (remote_) {
    auto outcome = BroadcastMutation(
        "Insert", [&v](MutationTransport& t) { return t.Insert(v); });
    if (!outcome.ok()) return outcome.status();
    PPANNS_RETURN_IF_ERROR(outcome->status);
    return static_cast<VectorId>(outcome->id);
  }
  // In-place mutation of the current set: exclusive against structural
  // maintenance (the mutex — a compaction reads the shard it is about to
  // replace), and callers serialize it against their own searches as they
  // always had to. Abandoned hedge losers may still be reading the indexes
  // this mutation is about to touch; they cancel fast (claim flag / context
  // probe), so wait them out before mutating.
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  DrainAsyncWork();
  const std::shared_ptr<ShardSet> set = set_->Current();
  // Least-loaded routing by live count; ties go to the lowest shard id so
  // routing is deterministic (and WAL replay reproduces it).
  std::size_t target = 0;
  for (std::size_t s = 1; s < set->groups.size(); ++s) {
    if (set->groups[s]->server->size() < set->groups[target]->server->size()) {
      target = s;
    }
  }
  ShardGroup& group = *set->groups[target];
  // One insert per shard: every replica slot scans the same server.
  const VectorId local = group.server->Insert(v);
  const VectorId global_id =
      set->manifest.Append(static_cast<ShardId>(target), local);
  PPANNS_CHECK(local == group.local_to_global.size());
  group.local_to_global.push_back(global_id);
  return global_id;
}

Status ShardedCloudServer::Delete(VectorId global_id) {
  if (remote_) {
    auto outcome = BroadcastMutation(
        "Delete",
        [global_id](MutationTransport& t) { return t.Delete(global_id); });
    if (!outcome.ok()) return outcome.status();
    return outcome->status;
  }
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  DrainAsyncWork();
  const std::shared_ptr<ShardSet> set = set_->Current();
  if (global_id >= set->manifest.size()) {
    return Status::InvalidArgument("Delete: global id " +
                                   std::to_string(global_id) +
                                   " was never assigned");
  }
  const ShardRef& ref = set->manifest.at(global_id);
  if (IsDeadRef(ref)) {
    // The tombstone was physically dropped by a compaction; the id behaves
    // like any other already-removed id.
    return Status::NotFound("Delete: global id " + std::to_string(global_id) +
                            " was already removed (compacted away)");
  }
  // One delete per shard: every replica slot scans the same server.
  const Status st = set->groups[ref.shard]->server->Delete(ref.local);
  if (st.ok()) return st;
  // The per-shard status names the local id, which the caller never saw;
  // restate it in global terms.
  const std::string where = "Delete: global id " + std::to_string(global_id) +
                            " (shard " + std::to_string(ref.shard) +
                            ", local " + std::to_string(ref.local) + "): ";
  switch (st.code()) {
    case Status::Code::kNotFound:
      return Status::NotFound(where + st.message());
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(where + st.message());
    default:
      return st;
  }
}

std::size_t ShardedCloudServer::StorageBytes() const {
  if (remote_) return topology_.storage_bytes;
  const std::shared_ptr<const ShardSet> set = set_->Pin();
  // Deployment bytes: each shard counts once per replica it is served as.
  std::size_t total = set->manifest.size() * sizeof(ShardRef);
  for (const auto& group : set->groups) {
    total += group->server->StorageBytes() * set->num_replicas;
  }
  return total;
}

void ShardedCloudServer::SerializeDatabase(BinaryWriter* out) const {
  PPANNS_CHECK(!remote_);  // see Insert
  // Serialize under the maintenance mutex: a snapshot must not interleave
  // with an Insert/Delete/compaction half-applied (searches are fine — they
  // only read).
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  const std::shared_ptr<const ShardSet> set = set_->Pin();
  std::vector<std::uint64_t> epochs;
  epochs.reserve(set->groups.size());
  for (const auto& group : set->groups) {
    epochs.push_back(group->compaction_epoch);
  }
  ShardedEncryptedDatabase::WriteEnvelope(
      out, set->groups.size(), set->num_replicas, set->state_version, epochs,
      [&set](std::size_t s, BinaryWriter* w) {
        set->groups[s]->server->SerializeDatabase(w);
      },
      set->manifest);
}

}  // namespace ppanns
