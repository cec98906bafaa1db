// ShardTransport — the dispatch seam between the gather node and one shard
// replica.
//
// ShardedCloudServer scatter-gathers through this interface only, so a
// replica can live in-process (a CloudServer behind a function call) or
// across a socket (a RemoteShardClient speaking the net/wire.h protocol)
// without the hedging, failover, load-aware dispatch, or deadline machinery
// noticing. The contract mirrors the in-process filter work item:
//  * Filter runs one k'-ANNS scan and returns the shard's top-k' candidates
//    in *global* ids;
//  * the SearchContext threads through — its cancellation flags and deadline
//    bound the scan (locally via CancelProbe, remotely via the rebased
//    budget and the CANCEL frame), and its SearchStats accumulate the work
//    the scan actually did, local or remote;
//  * when `want_dce` is set, the candidates' DCE ciphertexts come back
//    alongside (a remote gather node holds no shard data, so the refine
//    phase needs them shipped; local transports skip this — the gather reads
//    the ciphertexts in place).

#ifndef PPANNS_NET_SHARD_TRANSPORT_H_
#define PPANNS_NET_SHARD_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/search_context.h"
#include "common/status.h"
#include "common/types.h"
#include "core/query_client.h"
#include "crypto/dce.h"

namespace ppanns {

/// Per-scan knobs a transport forwards to the replica.
struct ShardFilterOptions {
  std::size_t k_prime = 0;
  std::size_t ef_search = 0;  ///< 0 = backend default
  /// Ship the candidates' DCE ciphertexts back with the answer. Local
  /// transports ignore this (the gather reads ciphertexts in place).
  bool want_dce = false;
  /// Admission floor in milliseconds, forwarded so a remote server can shed
  /// a scan whose deadline budget cannot cover it (kResourceExhausted)
  /// before burning any work. 0 disables.
  double admission_ms = 0.0;
};

/// One shard replica's answer to a filter scan.
struct ShardFilterResult {
  /// The replica's top-k' in global ids, best first.
  std::vector<Neighbor> candidates;
  /// DCE ciphertexts aligned with `candidates` when want_dce was honored;
  /// empty otherwise.
  std::vector<DceCiphertext> dce;
  /// True when a filter scan actually started (false: cancelled or shed
  /// before any work — nothing to account as wasted).
  bool scanned = false;
};

/// One dispatchable shard replica. Implementations must be safe for
/// concurrent Filter calls (the batch scatter fans many queries at once).
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Runs one filter scan. A non-OK Status means the scan could not run or
  /// finish (dead connection, server-side shed); `out` is then empty and the
  /// caller treats the dispatch like a cancelled one. Cooperative stops
  /// (deadline, cancellation, budget) are NOT errors: the partial answer
  /// returns OK and `ctx` carries the early-exit reason and stats.
  virtual Status Filter(const QueryToken& token,
                        const ShardFilterOptions& options, SearchContext* ctx,
                        ShardFilterResult* out) const = 0;

  /// False once the transport can no longer serve (e.g. its connection
  /// died). The dispatcher skips unhealthy transports like down replicas.
  virtual bool Healthy() const { return true; }

  /// True for transports that cross a process boundary.
  virtual bool remote() const = 0;
};

/// Wraps the transport of replica slot (shard, replica) in another one —
/// the seam fault injection (net/fault_injecting_transport.h) plugs into.
/// ShardedCloudServer applies it to every in-process slot it wires, the
/// slots of shards that compaction and split rebuild included. Returning
/// `inner` unchanged is a valid decorator.
using TransportDecorator = std::function<std::unique_ptr<ShardTransport>(
    std::size_t shard, std::size_t replica,
    std::unique_ptr<ShardTransport> inner)>;

/// Forward declaration — the full ciphertext pair lives in core.
struct EncryptedVector;

/// One structural-maintenance command, topology-blind: the same triple of
/// (sweep, compact-shard, split-shard) ShardedCloudServer runs locally,
/// expressed so it can cross the wire as a MaintenanceRequestMessage.
struct MaintenanceCommand {
  enum class Op : std::uint8_t { kSweep = 0, kCompactShard = 1, kSplitShard = 2 };
  Op op = Op::kSweep;
  std::uint32_t shard = 0;       ///< target (compact/split only)
  double compact_threshold = 0.3;
  double split_skew = 0.0;
  std::size_t min_split_size = 64;
  std::size_t build_threads = 1;
};

/// What a mutation did on the other side of the seam. `state_version` and
/// `size` are post-apply — the epoch fence the gather folds into its cache
/// invalidation epoch and uses to check that replicated endpoints agree.
struct MutationOutcome {
  Status status = Status::OK();  ///< the apply's own Status (IO errors are
                                 ///< the transport call's Result instead)
  VectorId id = 0;               ///< assigned global id (inserts)
  std::uint64_t state_version = 0;
  std::uint64_t size = 0;
  std::size_t ops = 0;           ///< shards rebuilt (sweeps)
};

/// The mutation/maintenance side of the seam — one endpoint that holds real
/// shard data (in practice: one ppanns_shard_server, whose process loads
/// the full package). ShardedCloudServer broadcasts every mutation to all
/// attached MutationTransports and requires their outcomes to agree, which
/// keeps replicated endpoints byte-identical the same way deterministic
/// insert routing does in-process. A non-OK Result means the command never
/// reached the endpoint (dead pool); a reached-but-refused apply comes back
/// OK with `outcome.status` carrying the refusal.
class MutationTransport {
 public:
  virtual ~MutationTransport() = default;

  virtual Result<MutationOutcome> Insert(const EncryptedVector& v) = 0;
  virtual Result<MutationOutcome> Delete(VectorId global_id) = 0;
  virtual Result<MutationOutcome> Maintain(const MaintenanceCommand& cmd) = 0;

  /// The endpoint this transport mutates ("host:port"), for error messages.
  virtual const std::string& endpoint() const = 0;
};

}  // namespace ppanns

#endif  // PPANNS_NET_SHARD_TRANSPORT_H_
