// ShardServer — hosts one or more shard replicas of a ShardedCloudServer
// behind a TCP listener, speaking the net/frame.h + net/wire.h protocol.
//
// The server fronts a PpannsService facade (not a bare ShardedCloudServer):
// mutations arriving over the wire go through the facade's validation and —
// when the operator attached one (`ppanns_shard_server --wal-dir`) — its
// write-ahead log, so a remote Insert is exactly as durable as a local one.
//
// Threading model: one accept thread; one reader thread per connection that
// parses frames and dispatches filter scans onto dedicated threads, so a
// slow scan never blocks the connection — responses are written out of order
// as scans complete (that is the streaming: the gather's RpcChannel demuxes
// them by request id). Mutation, info, and ping frames are handled inline on
// the reader thread: mutations must serialize anyway (facade contract), and
// inline handling makes each connection's mutations naturally ordered. A
// server-wide reader/writer lock keeps filter scans and mutations apart —
// the mutation contract says callers serialize mutation against their own
// searches, and over the wire the server IS that caller. A scan holds the
// shared side for its whole FilterShard call, including any delay a
// decorated slot transport injects (`ppanns_shard_server --delay`), so a
// mutation waits for a delayed scan to finish.
//
// Cancellation: every in-flight scan registers a per-request atomic flag; a
// kCancel frame naming the request id raises it and the scan's CancelProbe
// aborts within a stride. The response is still sent — carrying the partial
// SearchStats so the gather accounts the remote loser's wasted work.
//
// Admission: a request whose deadline_budget_us cannot cover its
// admission_floor_us is shed with kResourceExhausted before any scan work.
//
// Authentication (Options::auth_key non-empty): the handshake becomes
// Hello -> AuthChallenge (fresh 32-byte nonce) -> AuthResponse
// (HMAC-SHA256(key, nonce), constant-time compare) -> HelloOk. A wrong or
// missing MAC tears the connection down silently — an unauthenticated peer
// never gets a frame served, and learns nothing about why.

#ifndef PPANNS_NET_SHARD_SERVER_H_
#define PPANNS_NET_SHARD_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/ppanns_service.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"

namespace ppanns {

class ShardServer {
 public:
  struct Options {
    /// Shared HMAC key; non-empty arms the challenge–response handshake.
    std::vector<std::uint8_t> auth_key;
  };

  /// Serves the given shard ids of `service` (which must front a local
  /// ShardedCloudServer — it holds the actual replicas — and must outlive
  /// the server). An empty `served_shards` serves every shard. Mutations
  /// always apply to the whole package regardless of `served_shards` (the
  /// scope only limits which shards this endpoint *scans* for the gather).
  ShardServer(PpannsService* service, std::vector<std::uint32_t> served_shards,
              Options options = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-chosen ephemeral port) and starts
  /// accepting connections.
  Status Start(std::uint16_t port);

  /// The bound port (after a successful Start).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, tears down every connection, and joins all threads.
  /// In-flight scans are cancelled and drained. Idempotent.
  void Stop();

 private:
  /// One accepted connection: its socket, its reader thread, and the scans
  /// still in flight on the pool. Held by shared_ptr so a pool task finishing
  /// after Stop() still has a live object to decrement.
  struct Connection;

  void AcceptLoop();
  void ServeConnection(const std::shared_ptr<Connection>& conn);
  /// Runs one filter scan and writes its response frame. Scan-thread-side.
  void RunFilter(const std::shared_ptr<Connection>& conn,
                 std::uint64_t request_id,
                 std::shared_ptr<FilterRequestMessage> request,
                 std::shared_ptr<std::atomic<bool>> cancel_flag);
  /// Applies one mutation frame inline and writes its MutationResponse.
  /// Returns false when the connection should be torn down (malformed
  /// payload or a dead socket).
  bool HandleMutation(const std::shared_ptr<Connection>& conn,
                      const struct Frame& frame);
  bool HandleInfo(const std::shared_ptr<Connection>& conn,
                  std::uint64_t request_id);
  bool HandlePing(const std::shared_ptr<Connection>& conn,
                  std::uint64_t request_id);
  /// Serializes `payload` into a `type` frame and writes it under the
  /// connection's write mutex. Returns false on a dead socket.
  template <typename Message>
  bool WriteMessage(const std::shared_ptr<Connection>& conn, FrameType type,
                    std::uint64_t request_id, const Message& payload);

  bool Serves(std::uint32_t shard) const;
  const ShardedCloudServer& sharded() const {
    return service_->sharded_server();
  }

  PpannsService* service_;
  std::vector<std::uint32_t> served_shards_;
  Options options_;

  /// Filter scans hold this shared; mutations hold it exclusive — the
  /// server is the "caller" of the mutation contract and must serialize its
  /// own searches against its own mutations.
  std::shared_mutex serve_mu_;

  Listener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace ppanns

#endif  // PPANNS_NET_SHARD_SERVER_H_
