// The distributed serving tier over a real loopback socket: a gather node
// assembled from RemoteShardClient stubs must behave exactly like the
// in-process ShardedCloudServer — identical result ids, the same deadline /
// cancellation / admission / hedging semantics — with the process boundary
// observable only as latency.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/search_context.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/sharded_cloud_server.h"
#include "datagen/synthetic.h"
#include "net/fault_injecting_transport.h"
#include "net/frame.h"
#include "net/remote_shard.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace ppanns {
namespace {

constexpr std::size_t kDim = 16;

PpannsParams BaseParams(IndexKind kind, std::uint32_t num_shards,
                        std::uint32_t num_replicas, std::uint64_t seed) {
  PpannsParams params;
  params.dcpe_beta = 1.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = kind;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = seed};
  params.num_shards = num_shards;
  params.num_replicas = num_replicas;
  params.seed = seed;
  return params;
}

DataOwner MakeOwner(const PpannsParams& params) {
  auto owner = DataOwner::Create(kDim, params);
  PPANNS_CHECK(owner.ok());
  return std::move(*owner);
}

Dataset MakeData(std::size_t n, std::size_t nq, std::uint64_t seed) {
  return MakeDataset(SyntheticKind::kGloveLike, n, nq, /*gt_k=*/0, seed, kDim);
}

std::vector<QueryToken> MakeTokens(const DataOwner& owner, const Dataset& ds,
                                   std::uint64_t seed) {
  QueryClient client(owner.ShareKeys(), seed);
  std::vector<QueryToken> tokens;
  tokens.reserve(ds.queries.size());
  for (std::size_t i = 0; i < ds.queries.size(); ++i) {
    tokens.push_back(client.EncryptQuery(ds.queries.row(i)));
  }
  return tokens;
}

std::string Endpoint(const ShardServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

/// One in-process gather and one socket-backed gather over byte-identical
/// packages (same seed → bit-identical SAP streams, like the sharded suite's
/// flat-vs-sharded equivalence): the remote side is a ShardServer hosting
/// every shard behind a PpannsService facade, dialed through
/// ConnectShardedService on loopback. The backend's replica slots are
/// decorated with `faults`, so a test can make them straggle server-side.
struct Loopback {
  Loopback(IndexKind kind, std::uint32_t num_shards, std::uint32_t num_replicas,
           const Dataset& ds, std::uint64_t seed, std::size_t pool_size = 1) {
    DataOwner local_owner = MakeOwner(BaseParams(kind, num_shards,
                                                 num_replicas, seed));
    owner = std::make_unique<DataOwner>(
        MakeOwner(BaseParams(kind, num_shards, num_replicas, seed)));
    local = std::make_unique<PpannsService>(
        ShardedCloudServer(local_owner.EncryptAndIndexSharded(ds.base)));
    backend = std::make_unique<PpannsService>(ShardedCloudServer(
        owner->EncryptAndIndexSharded(ds.base), faults.Decorator()));
    server = std::make_unique<ShardServer>(backend.get(),
                                           std::vector<std::uint32_t>{});
    PPANNS_CHECK(server->Start(0).ok());
    auto connected = ConnectShardedService({Endpoint(*server)}, pool_size);
    PPANNS_CHECK(connected.ok());
    remote = std::make_unique<PpannsService>(std::move(*connected));
  }

  /// Server-side faults of every backend replica slot.
  FaultPlan faults;
  std::unique_ptr<DataOwner> owner;  ///< key authority for the token stream
  std::unique_ptr<PpannsService> local;
  std::unique_ptr<PpannsService> backend;  ///< behind the socket
  std::unique_ptr<ShardServer> server;
  std::unique_ptr<PpannsService> remote;

  /// Every scan the backend serves sleeps `ms` first (cancellable).
  void DelayEveryScan(int ms) {
    for (std::size_t s = 0; s < backend->num_shards(); ++s) {
      for (std::size_t r = 0; r < backend->num_replicas(); ++r) {
        faults.Cell(s, r)->delay_ms = ms;
      }
    }
  }
};

class RemoteEquivalenceTest : public ::testing::TestWithParam<std::uint32_t> {};

// The acceptance bar: with the exact filter backend the socket-backed gather
// returns the identical ids as the in-process gather for every query — sync
// and hedged-async both — and the handshake snapshot reproduces the package
// topology.
TEST_P(RemoteEquivalenceTest, RemoteGatherMatchesInProcessExactly) {
  const std::uint32_t num_shards = GetParam();
  const std::size_t n = 400, nq = 12, k = 8;
  const Dataset ds = MakeData(n, nq, /*seed=*/21);
  Loopback lb(IndexKind::kBruteForce, num_shards, /*num_replicas=*/2, ds, 21);

  EXPECT_EQ(lb.remote->num_shards(), num_shards);
  EXPECT_EQ(lb.remote->num_replicas(), 2u);
  EXPECT_EQ(lb.remote->size(), n);
  EXPECT_EQ(lb.remote->dim(), kDim);
  EXPECT_EQ(lb.remote->index_kind(), IndexKind::kBruteForce);
  EXPECT_TRUE(lb.remote->sharded_server().remote());

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 33);
  const SearchSettings settings{.k_prime = 4 * k};
  for (const QueryToken& token : tokens) {
    auto l = lb.local->Search(token, k, settings);
    auto r = lb.remote->Search(token, k, settings);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, l->ids);
    EXPECT_EQ(r->counters.filter_candidates, l->counters.filter_candidates);

    auto h = lb.remote->SearchAsync(token, k, settings, AsyncOptions{});
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(h->ids, l->ids);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, RemoteEquivalenceTest,
                         ::testing::Values(2u, 4u));

// A single-index package is served as one shard of one replica, so a
// ShardServer hosts it like any sharded package and the socket-backed gather
// returns the in-process ids.
TEST(RemoteSingleIndexTest, ShardServerOverSingleIndexPackageMatchesInProcess) {
  const std::size_t n = 300, nq = 10, k = 8;
  const Dataset ds = MakeData(n, nq, /*seed=*/41);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 1, 1, 41));
  BinaryWriter w;
  owner.EncryptAndIndex(ds.base).Serialize(&w);
  const auto load = [&w] {
    BinaryReader r(w.buffer());
    auto db = ShardedEncryptedDatabase::Deserialize(&r);
    PPANNS_CHECK(db.ok());
    return PpannsService{ShardedCloudServer(std::move(*db))};
  };
  PpannsService local = load();
  PpannsService backend = load();
  ShardServer server(&backend, {});
  ASSERT_TRUE(server.Start(0).ok());
  auto connected = ConnectShardedService({Endpoint(server)}, 1);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  PpannsService remote(std::move(*connected));
  EXPECT_EQ(remote.num_shards(), 1u);
  EXPECT_EQ(remote.size(), n);

  for (const QueryToken& token : MakeTokens(owner, ds, 43)) {
    auto l = local.Search(token, k);
    auto r = remote.Search(token, k);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->partial);
    EXPECT_EQ(r->ids, l->ids);
    auto h = remote.SearchAsync(token, k, {}, AsyncOptions{});
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(h->ids, l->ids);
  }
}

// A topology split across two endpoints (one server per shard) assembles
// into the same gather; an endpoint set that leaves a shard unserved is a
// clean FailedPrecondition at connect time, not a runtime surprise.
TEST(RemoteTopologyTest, TwoEndpointsAssembleAndGapsAreRejected) {
  const std::size_t n = 300, nq = 8, k = 5;
  const Dataset ds = MakeData(n, nq, /*seed=*/23);
  DataOwner local_owner =
      MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 1, 23));
  DataOwner remote_owner =
      MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 1, 23));
  PpannsService local{
      ShardedCloudServer(local_owner.EncryptAndIndexSharded(ds.base))};
  PpannsService backend{
      ShardedCloudServer(remote_owner.EncryptAndIndexSharded(ds.base))};

  ShardServer server0(&backend, {0});
  ShardServer server1(&backend, {1});
  ASSERT_TRUE(server0.Start(0).ok());
  ASSERT_TRUE(server1.Start(0).ok());

  // Shard 1 has no endpoint: refused up front.
  auto gap = ConnectShardedService({Endpoint(server0)});
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), Status::Code::kFailedPrecondition);

  auto full = ConnectShardedService({Endpoint(server0), Endpoint(server1)});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  PpannsService remote{std::move(*full)};

  const std::vector<QueryToken> tokens = MakeTokens(local_owner, ds, 35);
  for (const QueryToken& token : tokens) {
    auto l = local.Search(token, k);
    auto r = remote.Search(token, k);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, l->ids);
  }
}

// The gather's absolute deadline crosses the wire as a relative budget; a
// server stuck in an injected delay overruns it and the facade reports
// kDeadlineExceeded — same contract as the in-process path.
TEST(RemoteDeadlineTest, InjectedDelayTripsTheDeadlineAtTheGather) {
  const Dataset ds = MakeData(300, 2, /*seed=*/25);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 25);
  lb.DelayEveryScan(2000);

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 37);
  const SearchSettings settings{.k_prime = 20, .deadline_ms = 50.0};
  const auto start = std::chrono::steady_clock::now();
  auto r = lb.remote->Search(tokens.front(), 5, settings);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kDeadlineExceeded)
      << r.status().ToString();
  // The remote scan parked in a 2 s delay; the deadline must cut through it
  // (the budget is rebased server-side and probed inside the delay loop).
  EXPECT_LT(elapsed_ms, 1500.0);
}

// A caller-raised cancellation flag propagates as a kCancel frame: the
// remote scan aborts inside its injected delay with zero filter progress,
// and the gather returns the partial result promptly.
TEST(RemoteCancelTest, CancelAbortsTheRemoteScanWithZeroProgress) {
  const Dataset ds = MakeData(300, 2, /*seed=*/27);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 27);
  lb.DelayEveryScan(4000);

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 39);
  std::atomic<bool> cancel{false};
  SearchContext ctx;
  ctx.AddCancelFlag(&cancel);

  Result<SearchResult> result = Status::Internal("not run");
  const auto start = std::chrono::steady_clock::now();
  std::thread worker([&] {
    result = lb.remote->Search(tokens.front(), 5, SearchSettings{.k_prime = 20},
                               &ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cancel.store(true, std::memory_order_release);
  worker.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->counters.early_exit, EarlyExit::kCancelled);
  // Zero progress after CANCEL: the scan died inside the delay, before
  // scoring a single row — and the wire carried that zero back.
  EXPECT_EQ(result->counters.nodes_visited, 0u);
  EXPECT_LT(elapsed_ms, 3000.0);
}

// Load shedding: a query whose remaining deadline budget is below the
// admission floor is refused with kResourceExhausted before any scan work,
// identically over both topologies.
TEST(RemoteAdmissionTest, BudgetBelowFloorIsShedOnBothTopologies) {
  const Dataset ds = MakeData(300, 2, /*seed=*/29);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 29);

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 41);
  const SearchSettings shed{
      .k_prime = 20, .deadline_ms = 5.0, .admission_ms = 50.0};
  for (PpannsService* service : {lb.local.get(), lb.remote.get()}) {
    auto r = service->Search(tokens.front(), 5, shed);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kResourceExhausted)
        << r.status().ToString();
  }
  // A comfortable budget passes the same floor.
  const SearchSettings pass{
      .k_prime = 20, .deadline_ms = 5000.0, .admission_ms = 50.0};
  auto ok = lb.remote->Search(tokens.front(), 5, pass);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

// Hedging across the socket: a delayed replica misses hedge_ms, the gather
// escalates to the next replica of the same shard through its own channel,
// and the winner's ids match the healthy in-process answer.
TEST(RemoteHedgingTest, DelayedReplicaIsHedgedOverTheWire) {
  const Dataset ds = MakeData(400, 6, /*seed=*/31);
  Loopback lb(IndexKind::kBruteForce, 2, /*num_replicas=*/2, ds, 31);
  // Replica (0,0) is a straggler on the server side; the gather only sees
  // the latency.
  lb.faults.Cell(0, 0)->delay_ms = 500;

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 43);
  const SearchSettings settings{.k_prime = 20};
  AsyncOptions async;
  async.hedge_ms = 25.0;

  std::size_t hedged = 0;
  for (const QueryToken& token : tokens) {
    auto l = lb.local->Search(token, 5, settings);
    const auto start = std::chrono::steady_clock::now();
    auto r = lb.remote->SearchAsync(token, 5, settings, async);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, l->ids);
    hedged += r->counters.hedged_requests;
    // The hedge must hide the 500 ms straggler (generous bound — CI is slow).
    EXPECT_LT(elapsed_ms, 450.0);
  }
  EXPECT_GT(hedged, 0u);
}

// Failover: marking a replica down at the gather reroutes its shard to the
// next replica over the same connection — ids unchanged, skip accounted.
TEST(RemoteFailoverTest, DownReplicaFailsOverWithIdenticalIds) {
  const Dataset ds = MakeData(300, 6, /*seed=*/33);
  Loopback lb(IndexKind::kBruteForce, 2, /*num_replicas=*/2, ds, 33);

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 45);
  std::vector<std::vector<VectorId>> healthy;
  for (const QueryToken& token : tokens) {
    auto r = lb.remote->Search(token, 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    healthy.push_back(r->ids);
  }
  lb.remote->sharded_server_mutable().SetReplicaDown(0, 0, true);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto r = lb.remote->Search(tokens[i], 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, healthy[i]);
    EXPECT_FALSE(r->partial);
    EXPECT_GE(r->counters.replicas_skipped, 1u);
  }
}

// ---------------------------------------------------------------------------
// Topology-blind mutation: Insert/Delete/MaybeCompact through the remote
// facade broadcast over the wire and must stay id-identical to an in-process
// twin applying the same ciphertexts — including after a reconnect, whose
// handshake must pick up the mutated state.

// The mutation acceptance bar: insert → delete → compact applied to the
// local twin and via the remote facade leave both topologies answering with
// identical ids, sizes, and structural epochs; a fresh connection to the
// mutated server agrees too.
TEST(RemoteMutationTest, InsertDeleteCompactMatchLocalTwin) {
  const std::size_t n = 300, nq = 6, k = 5;
  const Dataset ds = MakeData(n, nq, /*seed=*/71);
  const Dataset extra = MakeData(8, 0, /*seed=*/72);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 71);

  // Insert: one ciphertext per row, applied to the twin and broadcast
  // through the facade — the assigned global ids must agree.
  for (std::size_t i = 0; i < extra.base.size(); ++i) {
    const EncryptedVector v = lb.owner->EncryptOne(extra.base.row(i));
    auto lid = lb.local->Insert(v);
    auto rid = lb.remote->Insert(v);
    ASSERT_TRUE(lid.ok()) << lid.status().ToString();
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    EXPECT_EQ(*rid, *lid);
  }
  EXPECT_EQ(lb.remote->size(), lb.local->size());

  // Delete enough rows that a low compaction threshold triggers a rebuild.
  for (VectorId id = 0; id < 40; ++id) {
    Status l = lb.local->Delete(id);
    Status r = lb.remote->Delete(id);
    ASSERT_TRUE(l.ok()) << l.ToString();
    ASSERT_TRUE(r.ok()) << r.ToString();
  }
  EXPECT_EQ(lb.remote->size(), lb.local->size());

  // Compact: the remote sweep crosses the wire as a MaintenanceRequest and
  // must rebuild the same shards the local sweep does.
  ShardedCloudServer::MaintenanceOptions mopts;
  mopts.compact_threshold = 0.05;
  auto local_ops = lb.local->sharded_server_mutable().MaybeCompact(mopts);
  auto remote_ops = lb.remote->sharded_server_mutable().MaybeCompact(mopts);
  ASSERT_TRUE(local_ops.ok()) << local_ops.status().ToString();
  ASSERT_TRUE(remote_ops.ok()) << remote_ops.status().ToString();
  EXPECT_EQ(*remote_ops, *local_ops);
  EXPECT_GT(*remote_ops, 0u);
  // The mutation responses' post-apply epoch reached the gather's fence.
  EXPECT_EQ(lb.remote->sharded_server().state_version(),
            lb.local->sharded_server().state_version());
  EXPECT_GT(lb.remote->sharded_server().state_version(), 0u);

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 73);
  for (const QueryToken& token : tokens) {
    auto l = lb.local->Search(token, k);
    auto r = lb.remote->Search(token, k);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, l->ids);
  }

  // Reconnect: a fresh handshake against the mutated server must reproduce
  // the mutated answers (the server state is real, not per-connection).
  auto reconnected = ConnectShardedService({Endpoint(*lb.server)});
  ASSERT_TRUE(reconnected.ok()) << reconnected.status().ToString();
  PpannsService fresh{std::move(*reconnected)};
  EXPECT_EQ(fresh.size(), lb.local->size());
  for (const QueryToken& token : tokens) {
    auto l = lb.local->Search(token, k);
    auto r = fresh.Search(token, k);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, l->ids);
  }
}

/// A remote transport grid with no mutation path (the pre-v2 shape).
class NullTransport final : public ShardTransport {
 public:
  Status Filter(const QueryToken&, const ShardFilterOptions&, SearchContext*,
                ShardFilterResult*) const override {
    return Status::OK();
  }
  bool remote() const override { return true; }
};

// A remote gather whose connection predates the mutation protocol (no
// attached MutationTransports) refuses mutations with NotSupported instead
// of silently dropping them.
TEST(RemoteMutationTest, MutationWithoutTransportsIsNotSupported) {
  ShardedCloudServer::RemoteTopology topology;
  topology.num_shards = 1;
  topology.num_replicas = 1;
  topology.dim = kDim;
  topology.index_kind = IndexKind::kBruteForce;
  topology.size = 10;
  topology.capacity = 10;
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(1);
  transports[0].push_back(std::make_unique<NullTransport>());
  ShardedCloudServer gather(topology, std::move(transports));

  auto ins = gather.Insert(EncryptedVector{});
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.status().code(), Status::Code::kNotSupported);
  Status del = gather.Delete(0);
  EXPECT_EQ(del.code(), Status::Code::kNotSupported);
  ShardedCloudServer::MaintenanceOptions mopts;
  auto swept = gather.MaybeCompact(mopts);
  ASSERT_FALSE(swept.ok());
  EXPECT_EQ(swept.status().code(), Status::Code::kNotSupported);
}

// The epoch fence over the wire: a remote mutation must stale-evict the
// gather's result cache — through the facade's own epoch bump for
// insert/delete, and through the state_version carried by the mutation
// response for structural maintenance (which bypasses the facade).
TEST(RemoteMutationTest, CacheStaleEvictsOnRemoteMutation) {
  const std::size_t n = 300, nq = 3, k = 5;
  const Dataset ds = MakeData(n, nq, /*seed=*/75);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 75);
  lb.remote->EnableResultCache(ResultCacheOptions{.capacity = 32});

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 77);
  const QueryToken& token = tokens.front();
  auto fresh = lb.remote->Search(token, k);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->counters.cache_hit);
  auto hit = lb.remote->Search(token, k);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->counters.cache_hit);

  // Phase 1: a remote delete through the facade invalidates the cache.
  for (VectorId id = 0; id < 40; ++id) {
    ASSERT_TRUE(lb.remote->Delete(id).ok());
  }
  auto after_delete = lb.remote->Search(token, k);
  ASSERT_TRUE(after_delete.ok()) << after_delete.status().ToString();
  EXPECT_FALSE(after_delete->counters.cache_hit);
  EXPECT_GE(lb.remote->result_cache_stats().stale_evictions, 1u);

  // Re-prime, then phase 2: structural maintenance bypasses the facade —
  // only the mutation response's state_version can invalidate, and must.
  auto reprime = lb.remote->Search(token, k);
  ASSERT_TRUE(reprime.ok());
  EXPECT_TRUE(reprime->counters.cache_hit);
  ShardedCloudServer::MaintenanceOptions mopts;
  mopts.compact_threshold = 0.05;
  auto swept = lb.remote->sharded_server_mutable().MaybeCompact(mopts);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  ASSERT_GT(*swept, 0u);
  const std::size_t stale_before = lb.remote->result_cache_stats().stale_evictions;
  auto after_compact = lb.remote->Search(token, k);
  ASSERT_TRUE(after_compact.ok()) << after_compact.status().ToString();
  EXPECT_FALSE(after_compact->counters.cache_hit);
  EXPECT_GT(lb.remote->result_cache_stats().stale_evictions, stale_before);
}

// Self-healing: a killed-then-restarted shard server is re-dialed by the
// pool's health loop with no operator intervention, and the rejoined
// endpoint serves identical ids.
TEST(RemoteSelfHealTest, KilledServerIsRedialedAutomatically) {
  const std::size_t n = 300, nq = 4, k = 5;
  const Dataset ds = MakeData(n, nq, /*seed=*/81);
  DataOwner local_owner =
      MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 1, 81));
  DataOwner remote_owner =
      MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 1, 81));
  PpannsService local{
      ShardedCloudServer(local_owner.EncryptAndIndexSharded(ds.base))};
  PpannsService backend{
      ShardedCloudServer(remote_owner.EncryptAndIndexSharded(ds.base))};
  auto server = std::make_unique<ShardServer>(&backend,
                                              std::vector<std::uint32_t>{});
  ASSERT_TRUE(server->Start(0).ok());
  const std::uint16_t port = server->port();

  ConnectOptions copts;
  copts.health_interval_ms = 20;
  auto cluster =
      ConnectCluster({"127.0.0.1:" + std::to_string(port)}, copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto pool = cluster->pools.front();
  PpannsService remote{std::move(cluster->server)};

  const std::vector<QueryToken> tokens = MakeTokens(local_owner, ds, 83);
  for (const QueryToken& token : tokens) {
    auto l = local.Search(token, k);
    auto r = remote.Search(token, k);
    ASSERT_TRUE(l.ok() && r.ok());
    EXPECT_EQ(r->ids, l->ids);
  }

  // Kill the server; the health loop must notice within a few probes.
  server->Stop();
  server.reset();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (pool->healthy() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(pool->healthy());

  // Restart on the same port: the pool's capped-backoff re-dial must bring
  // the endpoint back without any call on this thread prompting it.
  server = std::make_unique<ShardServer>(&backend,
                                         std::vector<std::uint32_t>{});
  ASSERT_TRUE(server->Start(port).ok());
  while (!pool->healthy() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(pool->healthy());

  for (const QueryToken& token : tokens) {
    auto l = local.Search(token, k);
    auto r = remote.Search(token, k);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, l->ids);
  }
}

// A pool whose every stream is dead surfaces the endpoint in the mutation
// error instead of a bare EOF (the operator needs to know *which* server to
// restore).
TEST(RemoteSelfHealTest, DeadPoolSurfacesTheEndpointInTheError) {
  const Dataset ds = MakeData(200, 1, /*seed=*/85);
  const Dataset extra = MakeData(1, 0, /*seed=*/86);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 85, /*pool_size=*/2);
  const std::string endpoint = Endpoint(*lb.server);
  lb.server->Stop();

  // Give the reader threads a moment to observe the close.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    auto probe = lb.remote->Insert(lb.owner->EncryptOne(extra.base.row(0)));
    if (!probe.ok() && probe.status().code() != Status::Code::kNotSupported) {
      EXPECT_NE(probe.status().ToString().find(endpoint), std::string::npos)
          << probe.status().ToString();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "dead pool never surfaced an error";
}

// ---------------------------------------------------------------------------
// Authenticated handshake: HMAC-SHA256 challenge–response over a shared key.

std::vector<std::uint8_t> TestKey() {
  return {'s', 'h', 'a', 'r', 'e', 'd', '-', 'k', 'e', 'y', '-', '0', '1'};
}

// The full matrix: the right key authenticates and serves (searches and
// mutations alike); a keyless client gets a FailedPrecondition diagnosis; a
// wrong key is torn down before HelloOk.
TEST(RemoteAuthTest, KeyedHandshakeAcceptsRightKeyAndRejectsOthers) {
  const std::size_t n = 200, nq = 3, k = 5;
  const Dataset ds = MakeData(n, nq, /*seed=*/91);
  DataOwner local_owner =
      MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 1, 91));
  DataOwner remote_owner =
      MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 1, 91));
  PpannsService local{
      ShardedCloudServer(local_owner.EncryptAndIndexSharded(ds.base))};
  PpannsService backend{
      ShardedCloudServer(remote_owner.EncryptAndIndexSharded(ds.base))};
  ShardServer::Options sopts;
  sopts.auth_key = TestKey();
  ShardServer server(&backend, {}, sopts);
  ASSERT_TRUE(server.Start(0).ok());

  ConnectOptions good;
  good.auth_key = TestKey();
  auto cluster = ConnectCluster({Endpoint(server)}, good);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  PpannsService remote{std::move(cluster->server)};
  const std::vector<QueryToken> tokens = MakeTokens(local_owner, ds, 93);
  for (const QueryToken& token : tokens) {
    auto l = local.Search(token, k);
    auto r = remote.Search(token, k);
    ASSERT_TRUE(l.ok() && r.ok());
    EXPECT_EQ(r->ids, l->ids);
  }
  ASSERT_TRUE(remote.Delete(0).ok());  // mutations ride the keyed channel too
  ASSERT_TRUE(local.Delete(0).ok());

  auto keyless = ConnectShardedService({Endpoint(server)});
  ASSERT_FALSE(keyless.ok());
  EXPECT_EQ(keyless.status().code(), Status::Code::kFailedPrecondition)
      << keyless.status().ToString();

  ConnectOptions bad;
  bad.auth_key = {9, 9, 9, 9};
  auto rejected = ConnectCluster({Endpoint(server)}, bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kFailedPrecondition)
      << rejected.status().ToString();
}

// Frame-level rejection: a peer that answers the challenge with a request
// frame instead of the MAC is torn down — no frame is ever served to an
// unauthenticated connection.
TEST(RemoteAuthTest, UnauthenticatedFrameIsNeverServed) {
  const Dataset ds = MakeData(200, 1, /*seed=*/95);
  DataOwner remote_owner =
      MakeOwner(BaseParams(IndexKind::kBruteForce, 2, 1, 95));
  PpannsService backend{
      ShardedCloudServer(remote_owner.EncryptAndIndexSharded(ds.base))};
  ShardServer::Options sopts;
  sopts.auth_key = TestKey();
  ShardServer server(&backend, {}, sopts);
  ASSERT_TRUE(server.Start(0).ok());

  auto sock = ConnectTcp(Endpoint(server));
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  HelloMessage hello;
  BinaryWriter payload;
  hello.Serialize(&payload);
  BinaryWriter frame;
  EncodeFrame(Frame{FrameType::kHello, 1, payload.TakeBuffer()}, &frame);
  ASSERT_TRUE(
      sock->WriteAll(frame.buffer().data(), frame.buffer().size()).ok());
  Frame challenge;
  ASSERT_TRUE(ReadFrame(&*sock, &challenge).ok());
  ASSERT_EQ(challenge.type, FrameType::kAuthChallenge);

  // Skip the MAC and ask for work directly: the server must hang up.
  DeleteRequestMessage request;
  request.global_id = 0;
  BinaryWriter req_payload;
  request.Serialize(&req_payload);
  BinaryWriter req_frame;
  EncodeFrame(Frame{FrameType::kDeleteRequest, 2, req_payload.TakeBuffer()},
              &req_frame);
  ASSERT_TRUE(sock->WriteAll(req_frame.buffer().data(),
                             req_frame.buffer().size())
                  .ok());
  Frame reply;
  EXPECT_FALSE(ReadFrame(&*sock, &reply).ok());
  EXPECT_EQ(backend.size(), ds.base.size());  // the delete was never applied
}

// A scan's memory is bounded by the shard, not by the k' on the wire: a
// hostile FilterRequest with k' = 2^40 against an IVF+SQ8 shard is answered
// OK with at most the shard's rows (the same answer as k' = rows), and the
// server still answers the next request.
TEST(RemoteScanBoundTest, HugeKPrimeIsAnsweredWithinTheShardRows) {
  const Dataset ds = MakeData(600, 1, /*seed=*/97);
  PpannsParams params = BaseParams(IndexKind::kIvf, 2, 1, 97);
  params.ivf = IvfParams{.num_lists = 8, .train_iters = 4, .seed = 97};
  params.sq = SqParams{.enabled = true};
  DataOwner owner = MakeOwner(params);
  PpannsService backend(
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base)));
  ShardServer server(&backend, std::vector<std::uint32_t>{});
  ASSERT_TRUE(server.Start(0).ok());
  auto cluster = ConnectCluster({Endpoint(server)});
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const RemoteShardClient client(cluster->pools[0], /*shard=*/0,
                                 /*replica=*/0);
  const QueryToken token = MakeTokens(owner, ds, 99).front();
  const std::size_t rows = backend.sharded_server().shard(0).index().size();

  auto filter = [&](std::size_t k_prime, ShardFilterResult* out) {
    SearchContext ctx;
    return client.Filter(token, ShardFilterOptions{.k_prime = k_prime}, &ctx,
                         out);
  };
  ShardFilterResult huge, bounded, next;
  const Status huge_status = filter(std::size_t{1} << 40, &huge);
  ASSERT_TRUE(huge_status.ok()) << huge_status.ToString();
  EXPECT_TRUE(huge.scanned);
  EXPECT_FALSE(huge.candidates.empty());
  EXPECT_LE(huge.candidates.size(), rows);
  ASSERT_TRUE(filter(rows, &bounded).ok());
  EXPECT_EQ(huge.candidates, bounded.candidates);

  const Status next_status = filter(40, &next);
  ASSERT_TRUE(next_status.ok()) << next_status.ToString();
  EXPECT_EQ(next.candidates.size(), 40u);
}

// ---------------------------------------------------------------------------
// Per-endpoint connection pools: pool_size streams per endpoint, calls on
// the least-loaded live stream. Every protocol semantic — id equality,
// CANCEL frames, deadline rebasing, failover — must be indistinguishable
// from the single-stream gather.

// The pool acceptance bar: a pool_size-4 gather returns ids identical to the
// in-process gather, one query at a time and under a concurrent batch
// scatter that actually spreads calls across the streams.
TEST(RemotePoolTest, PooledGatherMatchesInProcessExactly) {
  const std::size_t n = 400, nq = 12, k = 8;
  const Dataset ds = MakeData(n, nq, /*seed=*/51);
  Loopback lb(IndexKind::kBruteForce, 2, /*num_replicas=*/2, ds, 51,
              /*pool_size=*/4);

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 53);
  const SearchSettings settings{.k_prime = 4 * k};
  std::vector<std::vector<VectorId>> expected;
  for (const QueryToken& token : tokens) {
    auto l = lb.local->Search(token, k, settings);
    auto r = lb.remote->Search(token, k, settings);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, l->ids);
    expected.push_back(l->ids);
  }

  // The concurrent path: a batch scatter puts many calls in flight at once,
  // so the least-inflight pick exercises more than stream 0.
  auto batch = lb.remote->SearchBatch(tokens, k, settings);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(batch->results[i].ids, expected[i]) << "query " << i;
  }
}

// pool_size = 0 is refused at connect time.
TEST(RemotePoolTest, ZeroPoolSizeIsRejected) {
  const Dataset ds = MakeData(200, 1, /*seed=*/55);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 55);
  auto bad = ConnectShardedService({Endpoint(*lb.server)}, 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kInvalidArgument);
}

// Cancellation over a pooled endpoint: the CANCEL frame travels on the same
// stream as its request (the channel owns that pairing), so the remote scan
// aborts with zero progress exactly like the single-stream case.
TEST(RemotePoolTest, CancelAbortsTheRemoteScanThroughThePool) {
  const Dataset ds = MakeData(300, 2, /*seed=*/57);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 57, /*pool_size=*/4);
  lb.DelayEveryScan(4000);

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 59);
  std::atomic<bool> cancel{false};
  SearchContext ctx;
  ctx.AddCancelFlag(&cancel);

  Result<SearchResult> result = Status::Internal("not run");
  const auto start = std::chrono::steady_clock::now();
  std::thread worker([&] {
    result = lb.remote->Search(tokens.front(), 5, SearchSettings{.k_prime = 20},
                               &ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cancel.store(true, std::memory_order_release);
  worker.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->counters.early_exit, EarlyExit::kCancelled);
  EXPECT_EQ(result->counters.nodes_visited, 0u);
  EXPECT_LT(elapsed_ms, 3000.0);
}

// Replica failover semantics are untouched by pooling: a down replica
// reroutes to the next one with identical ids, and the deadline still cuts
// through a server-side stall.
TEST(RemotePoolTest, FailoverAndDeadlineSurviveThePool) {
  const Dataset ds = MakeData(300, 6, /*seed=*/61);
  Loopback lb(IndexKind::kBruteForce, 2, /*num_replicas=*/2, ds, 61,
              /*pool_size=*/3);

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 63);
  std::vector<std::vector<VectorId>> healthy;
  for (const QueryToken& token : tokens) {
    auto r = lb.remote->Search(token, 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    healthy.push_back(r->ids);
  }
  lb.remote->sharded_server_mutable().SetReplicaDown(0, 0, true);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto r = lb.remote->Search(tokens[i], 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, healthy[i]);
    EXPECT_FALSE(r->partial);
  }

  lb.DelayEveryScan(2000);
  auto late = lb.remote->Search(
      tokens.front(), 5, SearchSettings{.k_prime = 20, .deadline_ms = 50.0});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), Status::Code::kDeadlineExceeded)
      << late.status().ToString();
}

// The result cache composes with the remote topology: the gather node
// caches final id lists keyed on the token bytes, a repeat answers without
// touching the wire, and the replay is id-identical.
TEST(RemotePoolTest, ResultCacheOnTheGatherNodeReplaysIdentically) {
  const std::size_t n = 300, nq = 6, k = 5;
  const Dataset ds = MakeData(n, nq, /*seed=*/65);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 65, /*pool_size=*/2);
  lb.remote->EnableResultCache(ResultCacheOptions{.capacity = 64});

  const std::vector<QueryToken> tokens = MakeTokens(*lb.owner, ds, 67);
  for (const QueryToken& token : tokens) {
    auto fresh = lb.remote->Search(token, k);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_FALSE(fresh->counters.cache_hit);
    auto replay = lb.remote->Search(token, k);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->counters.cache_hit);
    EXPECT_EQ(replay->ids, fresh->ids);
    EXPECT_EQ(replay->counters.nodes_visited, 0u);
  }
  const ResultCacheStats stats = lb.remote->result_cache_stats();
  EXPECT_EQ(stats.hits, tokens.size());
  EXPECT_EQ(stats.misses, tokens.size());
}

// A client whose version range does not intersect the server's is dropped at
// the handshake — the connection closes instead of ever parsing requests.
TEST(RemoteHandshakeTest, DisjointVersionRangeClosesTheConnection) {
  const Dataset ds = MakeData(200, 1, /*seed=*/37);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 37);

  auto sock = ConnectTcp(Endpoint(*lb.server));
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  HelloMessage hello;
  hello.version_min = kProtocolVersionMax + 1;
  hello.version_max = kProtocolVersionMax + 7;
  BinaryWriter payload;
  hello.Serialize(&payload);
  BinaryWriter frame;
  EncodeFrame(Frame{FrameType::kHello, 1, payload.TakeBuffer()}, &frame);
  ASSERT_TRUE(
      sock->WriteAll(frame.buffer().data(), frame.buffer().size()).ok());
  Frame reply;
  EXPECT_FALSE(ReadFrame(&*sock, &reply).ok());  // server hung up, no HelloOk
}

// A first frame that is not a Hello is equally fatal.
TEST(RemoteHandshakeTest, NonHelloFirstFrameClosesTheConnection) {
  const Dataset ds = MakeData(200, 1, /*seed=*/39);
  Loopback lb(IndexKind::kBruteForce, 2, 1, ds, 39);

  auto sock = ConnectTcp(Endpoint(*lb.server));
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  BinaryWriter frame;
  EncodeFrame(Frame{FrameType::kCancel, 1, {}}, &frame);
  ASSERT_TRUE(
      sock->WriteAll(frame.buffer().data(), frame.buffer().size()).ok());
  Frame reply;
  EXPECT_FALSE(ReadFrame(&*sock, &reply).ok());
}

}  // namespace
}  // namespace ppanns
