#include "net/shard_server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "common/serialize.h"
#include "net/auth.h"
#include "net/frame.h"

namespace ppanns {

// One accepted connection. Scan threads hold it by shared_ptr, so a scan
// that finishes after Stop() still has a live socket (already shut down —
// its write just fails) and live bookkeeping to decrement.
struct ShardServer::Connection {
  explicit Connection(Socket s) : socket(std::move(s)) {}

  Socket socket;
  std::thread reader;
  std::mutex write_mu;  ///< response frames must not interleave

  std::mutex mu;  ///< guards inflight
  /// Cancel flag of every scan in flight on this connection, by request id —
  /// where a kCancel frame is routed.
  std::map<std::uint64_t, std::shared_ptr<std::atomic<bool>>> inflight;

  std::atomic<int> pending{0};  ///< scan threads not yet finished
  std::mutex done_mu;
  std::condition_variable done_cv;
};

ShardServer::ShardServer(PpannsService* service,
                         std::vector<std::uint32_t> served_shards,
                         Options options)
    : service_(service),
      served_shards_(std::move(served_shards)),
      options_(std::move(options)) {
  // A server needs the actual replicas behind it; a remote (stub-backed)
  // facade has none to serve.
  PPANNS_CHECK(!service_->sharded_server().remote());
  if (served_shards_.empty()) {
    for (std::size_t s = 0; s < service_->num_shards(); ++s) {
      served_shards_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  for (std::uint32_t s : served_shards_) {
    PPANNS_CHECK(s < service_->num_shards());
  }
}

ShardServer::~ShardServer() { Stop(); }

bool ShardServer::Serves(std::uint32_t shard) const {
  return std::find(served_shards_.begin(), served_shards_.end(), shard) !=
         served_shards_.end();
}

Status ShardServer::Start(std::uint16_t port) {
  PPANNS_CHECK(!running_.load(std::memory_order_acquire));
  auto listener = Listener::Bind(port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ShardServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    // Abort every in-flight scan, then unblock and join the reader.
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      for (auto& [id, flag] : conn->inflight) {
        flag->store(true, std::memory_order_release);
      }
    }
    conn->socket.Shutdown();
    if (conn->reader.joinable()) conn->reader.join();
  }
  // Readers are gone, so no new scans can be submitted; drain the ones still
  // running (they cancel at their next probe).
  for (const auto& conn : conns) {
    std::unique_lock<std::mutex> lock(conn->done_mu);
    conn->done_cv.wait(lock, [&conn] {
      return conn->pending.load(std::memory_order_acquire) == 0;
    });
  }
}

void ShardServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    auto sock = listener_.Accept();
    if (!sock.ok()) return;  // Stop() shut the listener down
    auto conn = std::make_shared<Connection>(std::move(*sock));
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (!running_.load(std::memory_order_acquire)) return;  // racing Stop()
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] {
      ServeConnection(conn);
      // Reader is done — rejected handshake, protocol violation, or peer
      // EOF. Hang up so the peer sees EOF instead of a silent stall (scans
      // still in flight only Shutdown the socket; their writes fail clean).
      conn->socket.Shutdown();
    });
  }
}

template <typename Message>
bool ShardServer::WriteMessage(const std::shared_ptr<Connection>& conn,
                               FrameType type, std::uint64_t request_id,
                               const Message& payload) {
  BinaryWriter payload_writer;
  payload.Serialize(&payload_writer);
  BinaryWriter frame;
  EncodeFrame(Frame{type, request_id, payload_writer.TakeBuffer()}, &frame);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  return conn->socket.WriteAll(frame.buffer().data(), frame.buffer().size())
      .ok();
}

void ShardServer::ServeConnection(const std::shared_ptr<Connection>& conn) {
  // ---- Handshake: the first frame must be a well-formed Hello whose version
  // range intersects ours. Anything else — wrong magic, disjoint versions, a
  // stray frame — closes the connection before any state is built.
  Frame hello;
  if (!ReadFrame(&conn->socket, &hello).ok() ||
      hello.type != FrameType::kHello) {
    return;
  }
  BinaryReader hello_reader(hello.payload.data(), hello.payload.size());
  auto client = HelloMessage::Deserialize(&hello_reader);
  if (!client.ok()) return;
  if (client->version_min > kProtocolVersionMax ||
      client->version_max < kProtocolVersionMin) {
    return;
  }

  // ---- Authentication (keyed servers only): one fresh nonce out, one MAC
  // back, constant-time compare. Every failure path is a silent teardown —
  // before the MAC verifies, the peer gets no frame and no explanation.
  if (!options_.auth_key.empty()) {
    AuthChallengeMessage challenge;
    const auto nonce = MakeAuthNonce();
    challenge.nonce.assign(nonce.begin(), nonce.end());
    if (!WriteMessage(conn, FrameType::kAuthChallenge, hello.request_id,
                      challenge)) {
      return;
    }
    Frame answer;
    if (!ReadFrame(&conn->socket, &answer).ok() ||
        answer.type != FrameType::kAuthResponse) {
      return;
    }
    BinaryReader answer_reader(answer.payload.data(), answer.payload.size());
    auto mac = AuthResponseMessage::Deserialize(&answer_reader);
    if (!mac.ok()) return;
    const auto expected = HmacSha256(options_.auth_key, challenge.nonce.data(),
                                     challenge.nonce.size());
    if (mac->mac.size() != expected.size() ||
        !ConstantTimeEqual(mac->mac.data(), expected.data(),
                           expected.size())) {
      return;
    }
  }

  HelloOkMessage ok;
  ok.version = std::min(kProtocolVersionMax, client->version_max);
  ok.num_shards = static_cast<std::uint32_t>(service_->num_shards());
  ok.num_replicas = static_cast<std::uint32_t>(service_->num_replicas());
  ok.dim = service_->dim();
  ok.index_kind = static_cast<std::uint8_t>(service_->index_kind());
  ok.size = service_->size();
  ok.capacity = sharded().capacity();
  ok.storage_bytes = service_->StorageBytes();
  ok.served_shards = served_shards_;
  // v2 field; Serialize only emits it when ok.version >= 2, so a v1 client
  // still gets the bytes it expects.
  ok.state_version = sharded().state_version();
  if (!WriteMessage(conn, FrameType::kHelloOk, hello.request_id, ok)) return;

  // ---- Frame loop. Scans go to dedicated threads so a slow one never
  // blocks the connection; responses stream back out of order as scans
  // complete. Mutations, info, and pings are handled inline — mutations must
  // serialize anyway, and inline handling keeps one connection's mutations
  // naturally ordered. A malformed request or an out-of-protocol frame tears
  // the connection down (the client's channel reports IOError and marks
  // itself unhealthy).
  const bool v2 = ok.version >= 2;
  for (;;) {
    Frame frame;
    if (!ReadFrame(&conn->socket, &frame).ok()) return;
    switch (frame.type) {
      case FrameType::kFilterRequest: {
        BinaryReader reader(frame.payload.data(), frame.payload.size());
        auto parsed = FilterRequestMessage::Deserialize(&reader);
        if (!parsed.ok()) return;
        auto request =
            std::make_shared<FilterRequestMessage>(std::move(*parsed));
        auto flag = std::make_shared<std::atomic<bool>>(false);
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->inflight.emplace(frame.request_id, flag);
        }
        // Count before spawning: Stop() joins this reader first, then waits
        // pending out, so `this` outlives every scan. Each scan gets a
        // dedicated thread rather than a pooled worker — scans park in
        // injected delays and slow index walks, and routing them through the
        // process-wide pool would serialize concurrent requests behind a
        // straggler on small machines (exactly the coupling a hedging gather
        // node must not see).
        conn->pending.fetch_add(1, std::memory_order_acq_rel);
        const std::uint64_t id = frame.request_id;
        std::thread([this, conn, id, request, flag] {
          RunFilter(conn, id, request, flag);
        }).detach();
        break;
      }
      case FrameType::kCancel: {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->inflight.find(frame.request_id);
        if (it != conn->inflight.end()) {
          it->second->store(true, std::memory_order_release);
        }
        break;  // unknown id: the scan already finished — nothing to abort
      }
      case FrameType::kInsertRequest:
      case FrameType::kDeleteRequest:
      case FrameType::kMaintenanceRequest:
        // Mutation frames exist from v2 on; a v1 peer sending one is out of
        // protocol.
        if (!v2 || !HandleMutation(conn, frame)) return;
        break;
      case FrameType::kInfoRequest:
        if (!v2 || !HandleInfo(conn, frame.request_id)) return;
        break;
      case FrameType::kPing:
        if (!v2 || !HandlePing(conn, frame.request_id)) return;
        break;
      default:
        return;  // clients never send hello_ok / filter_response / pong
    }
  }
}

bool ShardServer::HandleMutation(const std::shared_ptr<Connection>& conn,
                                 const Frame& frame) {
  MutationResponseMessage response;

  // Exclusive against every filter scan on this server: the mutation
  // contract makes the caller serialize mutation against its own searches,
  // and over the wire this server is that caller.
  std::unique_lock<std::shared_mutex> serve_lock(serve_mu_);

  switch (frame.type) {
    case FrameType::kInsertRequest: {
      BinaryReader reader(frame.payload.data(), frame.payload.size());
      auto parsed = InsertRequestMessage::Deserialize(&reader);
      if (!parsed.ok()) return false;
      EncryptedVector v;
      v.sap = std::move(parsed->sap);
      v.dce.block = static_cast<std::size_t>(parsed->dce_block);
      v.dce.data = std::move(parsed->dce_data);
      // Through the facade: validation, the attached WAL (append before
      // apply), and the cache epoch bump all happen exactly as for a local
      // caller.
      auto id = service_->Insert(v);
      if (id.ok()) {
        response.id = static_cast<std::uint64_t>(*id);
      } else {
        response.SetStatus(id.status());
      }
      break;
    }
    case FrameType::kDeleteRequest: {
      BinaryReader reader(frame.payload.data(), frame.payload.size());
      auto parsed = DeleteRequestMessage::Deserialize(&reader);
      if (!parsed.ok()) return false;
      response.SetStatus(
          service_->Delete(static_cast<VectorId>(parsed->global_id)));
      response.id = parsed->global_id;
      break;
    }
    case FrameType::kMaintenanceRequest: {
      BinaryReader reader(frame.payload.data(), frame.payload.size());
      auto parsed = MaintenanceRequestMessage::Deserialize(&reader);
      if (!parsed.ok()) return false;
      ShardedCloudServer& server = service_->sharded_server_mutable();
      // A split would add a shard that neither this endpoint's served list
      // nor a connected gather's transport grid (fixed at connect) knows of:
      // the gather would silently drop half the split shard from every
      // answer. Splits are therefore local-only.
      const Status no_split = Status::NotSupported(
          "SplitShard: splits are not supported over the wire; split the "
          "package in process and restart the shard servers on it");
      switch (parsed->op) {
        case 0: {  // threshold sweep
          if (parsed->split_skew > 0.0) {
            response.SetStatus(no_split);
            break;
          }
          ShardedCloudServer::MaintenanceOptions options;
          options.compact_threshold = parsed->compact_threshold;
          options.split_skew = parsed->split_skew;
          options.min_split_size =
              static_cast<std::size_t>(parsed->min_split_size);
          options.build_threads =
              static_cast<std::size_t>(parsed->build_threads);
          auto ops = server.MaybeCompact(options);
          if (ops.ok()) {
            response.ops = static_cast<std::uint64_t>(*ops);
          } else {
            response.SetStatus(ops.status());
          }
          break;
        }
        case 1:
          response.SetStatus(
              server.CompactShard(static_cast<std::size_t>(parsed->shard)));
          if (response.status_code == 0) response.ops = 1;
          break;
        case 2:
          response.SetStatus(no_split);
          break;
        default:
          return false;  // Deserialize validates op <= 2; defensive
      }
      break;
    }
    default:
      return false;  // caller dispatches only mutation frames here
  }

  // The epoch fence: post-apply observables on every mutation response, OK
  // or refused — the gather folds state_version into its cache invalidation
  // and checks that replicated endpoints agree.
  response.state_version = sharded().state_version();
  response.size = service_->size();
  serve_lock.unlock();
  return WriteMessage(conn, FrameType::kMutationResponse, frame.request_id,
                      response);
}

bool ShardServer::HandleInfo(const std::shared_ptr<Connection>& conn,
                             std::uint64_t request_id) {
  InfoResponseMessage info;
  // Shared with filter scans (pure reads), excluded against mutations so
  // the snapshot is never half-applied.
  std::shared_lock<std::shared_mutex> serve_lock(serve_mu_);
  info.state_version = sharded().state_version();
  info.size = service_->size();
  info.capacity = sharded().capacity();
  info.storage_bytes = service_->StorageBytes();
  info.wal_attached = service_->wal_attached() ? 1 : 0;
  if (service_->wal_attached()) {
    const WalStats stats = service_->wal_stats();
    info.wal_segments = stats.segments;
    info.wal_bytes = stats.bytes;
  }
  // Splits are refused over the wire, so the shard list is the one fixed at
  // construction.
  info.served_shards = served_shards_;
  info.tombstone_ratios.reserve(info.served_shards.size());
  info.compaction_epochs.reserve(info.served_shards.size());
  for (std::uint32_t s : info.served_shards) {
    info.tombstone_ratios.push_back(sharded().tombstone_ratio(s));
    info.compaction_epochs.push_back(sharded().last_compaction_epoch(s));
  }
  serve_lock.unlock();
  return WriteMessage(conn, FrameType::kInfoResponse, request_id, info);
}

bool ShardServer::HandlePing(const std::shared_ptr<Connection>& conn,
                             std::uint64_t request_id) {
  PongMessage pong;
  pong.state_version = sharded().state_version();
  pong.size = service_->size();
  return WriteMessage(conn, FrameType::kPong, request_id, pong);
}

void ShardServer::RunFilter(const std::shared_ptr<Connection>& conn,
                            std::uint64_t request_id,
                            std::shared_ptr<FilterRequestMessage> request,
                            std::shared_ptr<std::atomic<bool>> cancel_flag) {
  FilterResponseMessage response;

  // Re-anchor the relative deadline budget against this host's clock — the
  // gather's absolute deadline means nothing here.
  SearchContext ctx;
  ctx.AddCancelFlag(cancel_flag.get());
  if (request->deadline_budget_us >= 0) {
    ctx.set_deadline(SearchContext::Clock::now() +
                     std::chrono::microseconds(request->deadline_budget_us));
  }
  ctx.set_node_budget(static_cast<std::size_t>(request->node_budget));

  if (!Serves(request->shard)) {
    response.SetStatus(Status::InvalidArgument(
        "shard " + std::to_string(request->shard) +
        " is not served by this endpoint"));
  } else if (request->admission_floor_us > 0 &&
             request->deadline_budget_us >= 0 &&
             request->deadline_budget_us < request->admission_floor_us) {
    // Server-side admission: the budget that survived the wire cannot cover
    // the floor, so shed before burning any scan work.
    response.SetStatus(Status::ResourceExhausted(
        "admission: deadline budget " +
        std::to_string(request->deadline_budget_us) +
        "us is below the admission floor " +
        std::to_string(request->admission_floor_us) + "us"));
  } else {
    ShardFilterOptions options;
    options.k_prime = static_cast<std::size_t>(request->k_prime);
    options.ef_search = static_cast<std::size_t>(request->ef_search);
    options.want_dce = request->want_dce != 0;
    ShardFilterResult result;
    // Shared lock: scans run concurrently with each other, never with a
    // mutation mid-apply.
    std::shared_lock<std::shared_mutex> serve_lock(serve_mu_);
    const Status st =
        sharded().FilterShard(request->shard, request->replica, request->token,
                              options, &ctx, &result);
    serve_lock.unlock();
    if (!st.ok()) {
      response.SetStatus(st);
    } else {
      response.scanned = result.scanned ? 1 : 0;
      response.candidates = std::move(result.candidates);
      if (!result.dce.empty()) {
        response.dce_block = result.dce.front().block;
        response.dce_data.reserve(result.dce.size() * 4 * result.dce.front().block);
        for (const DceCiphertext& ct : result.dce) {
          response.dce_data.insert(response.dce_data.end(), ct.data.begin(),
                                   ct.data.end());
        }
      }
    }
  }

  // Partial stats ride back on every outcome — cancelled, shed, or complete —
  // so the gather accounts remote work exactly like in-process work.
  response.early_exit = static_cast<std::uint8_t>(ctx.early_exit());
  response.nodes_visited = ctx.stats.nodes_visited;
  response.distance_computations = ctx.stats.distance_computations;
  response.dce_comparisons = ctx.stats.dce_comparisons;

  // Best effort: a failed write means the connection is dying and the
  // reader/Stop() path owns the teardown.
  WriteMessage(conn, FrameType::kFilterResponse, request_id, response);

  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->inflight.erase(request_id);
  }
  if (conn->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(conn->done_mu);
    conn->done_cv.notify_all();
  }
}

}  // namespace ppanns
