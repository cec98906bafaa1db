// Wire messages of the shard RPC protocol — the payloads carried inside
// net/frame.h frames.
//
// Every message follows the repo's serialization contract: Serialize appends
// the exact bytes ByteSize() predicts, Deserialize consumes them with full
// bounds/shape validation (these bytes arrive from the network). The
// cryptographic token reuses QueryToken's own wire format; everything the
// serving tier adds — per-RPC deadline budget, node budget, admission floor,
// the response's SearchStats — travels here, so SearchContext semantics
// survive the process boundary:
//  * the gather's *absolute* deadline is rebased to a *relative*
//    `deadline_budget_us` (clocks on two hosts share no epoch); the server
//    re-anchors it against its own steady clock;
//  * cancellation is a kCancel frame naming the request id; the server routes
//    it to the scan's cancellation flag, and the response still comes back —
//    carrying the partial SearchStats, so the gather can account the remote
//    loser's wasted work exactly like an in-process hedge loser.

#ifndef PPANNS_NET_WIRE_H_
#define PPANNS_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/search_context.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"
#include "core/query_client.h"
#include "crypto/dce.h"

namespace ppanns {

/// First bytes of every Hello: rejects a stray client that dialed the wrong
/// port before any length field is trusted. ASCII "PPRP" (PP-ANNS RPC).
inline constexpr std::uint32_t kProtocolMagic = 0x50525050u;
/// Protocol versions this build can speak. The handshake intersects the
/// client's [min, max] with the server's; an empty intersection is a clean
/// handshake failure, not a parse error mid-stream.
/// v1: handshake + filter/cancel. v2 adds mutation
/// (insert/delete/maintenance + mutation_response with the post-apply
/// state_version), the info snapshot, ping/pong health probes, the HMAC
/// auth challenge–response, and a state_version field on hello_ok. Min
/// stays 1: a v2 server still serves a v1 client read-only.
inline constexpr std::uint32_t kProtocolVersionMin = 1;
inline constexpr std::uint32_t kProtocolVersionMax = 2;

/// Client -> server, first frame on every connection.
struct HelloMessage {
  std::uint32_t magic = kProtocolMagic;
  std::uint32_t version_min = kProtocolVersionMin;
  std::uint32_t version_max = kProtocolVersionMax;

  void Serialize(BinaryWriter* out) const;
  static Result<HelloMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Server -> client: the negotiated version plus the topology of the package
/// behind this endpoint — everything the gather node needs to assemble a
/// remote ShardedCloudServer without ever seeing the ciphertext database.
struct HelloOkMessage {
  std::uint32_t version = kProtocolVersionMax;  ///< chosen protocol version
  std::uint32_t num_shards = 0;                 ///< S of the whole package
  std::uint32_t num_replicas = 0;               ///< R per shard
  std::uint64_t dim = 0;
  std::uint8_t index_kind = 0;                  ///< IndexKind
  std::uint64_t size = 0;                       ///< live vectors, all shards
  std::uint64_t capacity = 0;                   ///< next global id
  std::uint64_t storage_bytes = 0;
  /// Shard ids this endpoint actually serves (a server may host a subset).
  std::vector<std::uint32_t> served_shards;
  /// Structural epoch of the package behind this endpoint (v2 field —
  /// serialized only when the negotiated `version` is >= 2, so the message
  /// stays byte-compatible with v1 peers). Seeds the gather's epoch fence.
  std::uint64_t state_version = 0;

  void Serialize(BinaryWriter* out) const;
  static Result<HelloOkMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Client -> server: one (shard, replica) filter scan.
struct FilterRequestMessage {
  std::uint32_t shard = 0;
  std::uint32_t replica = 0;
  QueryToken token;
  std::uint64_t k_prime = 0;
  std::uint64_t ef_search = 0;
  std::uint64_t node_budget = 0;  ///< 0 = unlimited
  /// Remaining wall-clock budget in microseconds at send time; -1 = no
  /// deadline. The server re-anchors: deadline = its now() + budget.
  std::int64_t deadline_budget_us = -1;
  /// Admission floor in microseconds; > 0 asks the server to shed the scan
  /// with kResourceExhausted when the budget cannot cover the floor.
  std::int64_t admission_floor_us = 0;
  /// Ask for the candidates' DCE ciphertexts in the response (the gather
  /// node holds no shard data, so the refine phase needs them shipped).
  std::uint8_t want_dce = 0;

  void Serialize(BinaryWriter* out) const;
  static Result<FilterRequestMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Server -> client: the scan's outcome. Always sent, even for a cancelled
/// or shed scan — the Status and the partial SearchStats ride back so the
/// gather can account remote work exactly like in-process work.
struct FilterResponseMessage {
  std::uint8_t status_code = 0;  ///< Status::Code; 0 = OK
  std::string status_message;
  std::uint8_t scanned = 0;      ///< did a filter scan actually start?
  std::uint8_t early_exit = 0;   ///< EarlyExit of the remote scan
  std::uint64_t nodes_visited = 0;
  std::uint64_t distance_computations = 0;
  std::uint64_t dce_comparisons = 0;
  /// Per-shard top-k' in *global* ids (the server owns the manifest slice).
  std::vector<Neighbor> candidates;
  /// DCE ciphertexts aligned with `candidates`, flattened as
  /// candidates.size() * 4 * dce_block doubles; empty when want_dce was 0.
  std::uint64_t dce_block = 0;
  std::vector<double> dce_data;

  void Serialize(BinaryWriter* out) const;
  static Result<FilterResponseMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;

  Status ToStatus() const;                    ///< status_code + message
  void SetStatus(const Status& st);
};

/// kCancel frames carry no payload — the request id in the frame header
/// names the scan to abort.

// ---- Protocol v2: mutation, observability, health, auth ---------------------

/// Client -> server: insert one EncryptedVector (the owner's ciphertext
/// pair, exactly what PpannsService::Insert is handed in-process). The DCE
/// ciphertext travels flattened like FilterResponseMessage's refine payload.
struct InsertRequestMessage {
  std::vector<float> sap;          ///< SAP ciphertext, length dim
  std::uint64_t dce_block = 0;     ///< DCE block length (d_pad + 4)
  std::vector<double> dce_data;    ///< 4 * dce_block doubles

  void Serialize(BinaryWriter* out) const;
  static Result<InsertRequestMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Client -> server: tombstone one global id.
struct DeleteRequestMessage {
  std::uint64_t global_id = 0;

  void Serialize(BinaryWriter* out) const;
  static Result<DeleteRequestMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Client -> server: one structural-maintenance command. `op` 0 is a
/// threshold sweep (MaybeCompact over every shard), 1 compacts `shard`,
/// 2 splits `shard`; the remaining fields mirror
/// ShardedCloudServer::MaintenanceOptions. A ShardServer answers a split —
/// op 2, or a sweep with split_skew > 0 — with NotSupported.
struct MaintenanceRequestMessage {
  std::uint8_t op = 0;  ///< 0 = sweep, 1 = compact shard, 2 = split shard
  std::uint32_t shard = 0;
  double compact_threshold = 0.3;
  double split_skew = 0.0;
  std::uint64_t min_split_size = 64;
  std::uint64_t build_threads = 1;

  void Serialize(BinaryWriter* out) const;
  static Result<MaintenanceRequestMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Server -> client: outcome of any mutation frame. Besides the Status it
/// always carries the post-apply `state_version` and live size — the epoch
/// fence data the gather folds into its ResultCache invalidation epoch, so
/// a remote mutation stale-evicts cached answers exactly like a local one.
struct MutationResponseMessage {
  std::uint8_t status_code = 0;  ///< Status::Code; 0 = OK
  std::string status_message;
  std::uint64_t id = 0;             ///< assigned global id (inserts)
  std::uint64_t state_version = 0;  ///< structural epoch after the apply
  std::uint64_t size = 0;           ///< live vectors after the apply
  std::uint64_t ops = 0;            ///< shards rebuilt (maintenance sweeps)

  void Serialize(BinaryWriter* out) const;
  static Result<MutationResponseMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;

  Status ToStatus() const;
  void SetStatus(const Status& st);
};

/// kInfoRequest frames carry no payload. Server -> client reply: the
/// operator-facing snapshot behind this endpoint — epoch state, WAL
/// attachment, and per-served-shard tombstone ratios (aligned with
/// `served_shards`), so `ppanns_cli info --connect` can show cluster state
/// without holding a byte of ciphertext.
struct InfoResponseMessage {
  std::uint64_t state_version = 0;
  std::uint64_t size = 0;
  std::uint64_t capacity = 0;
  std::uint64_t storage_bytes = 0;
  std::uint8_t wal_attached = 0;
  std::uint64_t wal_segments = 0;
  std::uint64_t wal_bytes = 0;
  std::vector<std::uint32_t> served_shards;
  /// Per-served-shard tombstone ratio / last-compaction epoch, index-aligned
  /// with served_shards (equal lengths enforced on deserialize).
  std::vector<double> tombstone_ratios;
  std::vector<std::uint64_t> compaction_epochs;

  void Serialize(BinaryWriter* out) const;
  static Result<InfoResponseMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Server -> client reply to a kPing (which carries no payload): liveness
/// plus the current structural epoch, so routine health probes double as
/// epoch-fence propagation — a compaction applied directly on a shard
/// server reaches the gather's cache invalidation within one ping interval.
struct PongMessage {
  std::uint64_t state_version = 0;
  std::uint64_t size = 0;

  void Serialize(BinaryWriter* out) const;
  static Result<PongMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Server -> client, between hello and hello_ok on a keyed server: a fresh
/// 32-byte nonce the client must MAC (net/auth.h) to prove key possession.
struct AuthChallengeMessage {
  std::vector<std::uint8_t> nonce;  ///< exactly kAuthDigestBytes

  void Serialize(BinaryWriter* out) const;
  static Result<AuthChallengeMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

/// Client -> server: HMAC-SHA256(key, nonce). A bad MAC tears the
/// connection down before any request frame is parsed.
struct AuthResponseMessage {
  std::vector<std::uint8_t> mac;  ///< exactly kAuthDigestBytes

  void Serialize(BinaryWriter* out) const;
  static Result<AuthResponseMessage> Deserialize(BinaryReader* in);
  std::size_t ByteSize() const;
};

}  // namespace ppanns

#endif  // PPANNS_NET_WIRE_H_
