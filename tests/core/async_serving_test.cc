// The async scatter-gather serving tier and per-shard replication: replica
// emission and envelope round-trips (v2 with replicas, v1 compat at R = 1),
// async/sync/batch result equivalence, replica-loss failover with identical
// ids, all-replicas-down degradation (partial flag / Status — never UB),
// hedged stragglers finishing early with identical ids, clean hedge
// cancellation, and maintenance keeping replicas in lockstep.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"
#include "net/auth.h"
#include "net/fault_injecting_transport.h"

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
  return MakeDataset(SyntheticKind::kGloveLike, n, nq, 0, seed, kDim);
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

// ---------------------------------------------------------------------------
// Replica emission + envelope

TEST(ReplicatedBuildTest, OwnerEmitsByteIdenticalReplicas) {
  // The package holds each shard once; its v2 envelope must still carry R
  // identical payloads per shard, each equal to the shard's own bytes.
  const Dataset ds = MakeData(120, 0, /*seed=*/3);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 3, 3, 3));
  ShardedEncryptedDatabase db = owner.EncryptAndIndexSharded(ds.base);
  ASSERT_EQ(db.num_shards(), 3u);
  ASSERT_EQ(db.replication_factor(), 3u);

  BinaryWriter w;
  db.Serialize(&w);
  BinaryReader in(w.buffer());
  std::uint32_t magic = 0, version = 0, shards = 0, replicas = 0;
  ASSERT_TRUE(in.Get(&magic).ok());
  ASSERT_TRUE(in.Get(&version).ok());
  ASSERT_TRUE(in.Get(&shards).ok());
  ASSERT_TRUE(in.Get(&replicas).ok());
  EXPECT_EQ(version, 2u);
  ASSERT_EQ(shards, 3u);
  ASSERT_EQ(replicas, 3u);
  for (std::size_t s = 0; s < shards; ++s) {
    BinaryWriter shard;
    db.shards[s].Serialize(&shard);
    for (std::size_t r = 0; r < replicas; ++r) {
      const std::size_t begin = in.position();
      ASSERT_TRUE(EncryptedDatabase::Deserialize(&in).ok());
      const std::vector<std::uint8_t> payload(
          w.buffer().begin() + begin, w.buffer().begin() + in.position());
      EXPECT_EQ(payload, shard.buffer())
          << "shard " << s << " replica " << r << " payload differs";
    }
  }
}

TEST(ReplicatedBuildTest, V2EnvelopeRoundTripsAndServesIdentically) {
  const Dataset ds = MakeData(150, 8, /*seed=*/5);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 3, 2, 5));
  ShardedEncryptedDatabase db = owner.EncryptAndIndexSharded(ds.base);

  BinaryWriter w;
  db.Serialize(&w);
  BinaryReader r(w.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->replication_factor(), 2u);

  PpannsService before{ShardedCloudServer(std::move(db))};
  PpannsService after{ShardedCloudServer(std::move(*loaded))};
  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 7);
  for (const QueryToken& token : tokens) {
    auto a = before.Search(token, 5);
    auto b = after.Search(token, 5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->ids, a->ids);
  }

  // The loaded snapshot reserializes to the identical bytes.
  BinaryWriter w2;
  after.SerializeDatabase(&w2);
  EXPECT_EQ(w2.buffer(), w.buffer());
}

TEST(ReplicatedBuildTest, UnreplicatedPackageKeepsV1Wire) {
  // R = 1 must stay bit-compatible with the PR-2 envelope: building the same
  // data with the replication field defaulted or explicit yields the same
  // bytes (the v1 header carries no replica count).
  const Dataset ds = MakeData(90, 0, /*seed=*/9);
  DataOwner owner_a = MakeOwner(BaseParams(IndexKind::kHnsw, 3, 1, 9));
  BinaryWriter wa;
  owner_a.EncryptAndIndexSharded(ds.base).Serialize(&wa);

  // A v1 reader sees: magic, version 1, shard count — no replica count.
  BinaryReader r(wa.buffer());
  std::uint32_t magic = 0, version = 0, shards = 0;
  ASSERT_TRUE(r.Get(&magic).ok());
  ASSERT_TRUE(r.Get(&version).ok());
  ASSERT_TRUE(r.Get(&shards).ok());
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(shards, 3u);

  BinaryReader full(wa.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&full);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->replication_factor(), 1u);
}

TEST(ReplicatedBuildTest, RejectsReplicaCapacityMismatch) {
  // Hand-craft a v2 envelope whose two "replicas" of one shard disagree on
  // capacity: load must fail with IOError, not serve a broken group.
  const Dataset small = MakeData(10, 0, /*seed=*/11);
  const Dataset large = MakeData(14, 0, /*seed=*/11);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kBruteForce, 1, 1, 11));
  EncryptedDatabase a = owner.EncryptAndIndex(small.base);
  EncryptedDatabase b = owner.EncryptAndIndex(large.base);

  BinaryWriter w;
  ShardedEncryptedDatabase::WriteEnvelopeHeader(&w, /*num_shards=*/1,
                                                /*num_replicas=*/2);
  a.Serialize(&w);
  b.Serialize(&w);
  ShardManifest manifest;
  for (VectorId i = 0; i < 10; ++i) manifest.Append(0, i);
  manifest.Serialize(&w);

  BinaryReader r(w.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  EXPECT_EQ(loaded.status().code(), Status::Code::kIOError);
}

// A load skips the payloads that are byte-equal to their shard's replica 0
// without parsing them. At R = 3 the skipped copies must change nothing: the
// package loads with its replica count, serves the owner build's ids, and
// writes back the same bytes.
TEST(ReplicatedBuildTest, IdenticalReplicaPayloadsLoadAndServeTheSameIds) {
  const Dataset ds = MakeData(150, 8, /*seed=*/61);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 2, 3, 61));
  ShardedEncryptedDatabase db = owner.EncryptAndIndexSharded(ds.base);
  BinaryWriter w;
  db.Serialize(&w);
  BinaryReader r(w.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(loaded->replication_factor(), 3u);

  PpannsService built{ShardedCloudServer(std::move(db))};
  PpannsService reloaded{ShardedCloudServer(std::move(*loaded))};
  for (const QueryToken& token : MakeTokens(owner, ds, 62)) {
    auto a = built.Search(token, 5);
    auto b = reloaded.Search(token, 5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->ids, a->ids);
  }
  BinaryWriter w2;
  reloaded.SerializeDatabase(&w2);
  EXPECT_EQ(w2.buffer(), w.buffer());
}

// A replica payload that is not byte-equal to replica 0's is parsed, so a
// truncated one fails the load with IOError instead of being skipped.
TEST(ReplicatedBuildTest, TruncatedReplicaPayloadIsIOError) {
  const Dataset ds = MakeData(40, 0, /*seed=*/63);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 1, 1, 63));
  ShardedEncryptedDatabase db = owner.EncryptAndIndexSharded(ds.base);
  BinaryWriter payload;
  db.shards[0].Serialize(&payload);
  std::vector<std::uint8_t> truncated = payload.buffer();
  truncated.resize(truncated.size() / 2);

  BinaryWriter w;
  ShardedEncryptedDatabase::WriteEnvelopeHeader(&w, /*num_shards=*/1,
                                                /*num_replicas=*/2);
  db.shards[0].Serialize(&w);
  w.PutBytes(truncated.data(), truncated.size());
  db.manifest.Serialize(&w);

  BinaryReader r(w.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  EXPECT_EQ(loaded.status().code(), Status::Code::kIOError)
      << loaded.status().ToString();
}

// A shard applies each delete as an edit planned on replica 0, which needs
// byte-identical replicas. A package whose second replica drifted (here an
// HNSW graph built with another level seed, so node levels differ) loads
// with that replica re-stamped from replica 0, and deletes keep them equal.
TEST(ReplicatedBuildTest, DivergentReplicaIsRestampedFromReplicaZero) {
  const Dataset ds = MakeData(300, 0, /*seed=*/51);
  PpannsParams params = BaseParams(IndexKind::kHnsw, 1, 1, 51);
  ShardedEncryptedDatabase primary =
      MakeOwner(params).EncryptAndIndexSharded(ds.base);
  params.hnsw.seed = 52;
  ShardedEncryptedDatabase drifted =
      MakeOwner(params).EncryptAndIndexSharded(ds.base);

  BinaryWriter image0, image1;
  primary.shards[0].Serialize(&image0);
  drifted.shards[0].Serialize(&image1);
  ASSERT_NE(image0.buffer(), image1.buffer());
  BinaryWriter w;
  ShardedEncryptedDatabase::WriteEnvelopeHeader(&w, /*num_shards=*/1,
                                                /*num_replicas=*/2);
  primary.shards[0].Serialize(&w);
  drifted.shards[0].Serialize(&w);
  primary.manifest.Serialize(&w);

  BinaryReader r(w.buffer());
  auto loaded = ShardedEncryptedDatabase::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ShardedCloudServer cluster(std::move(*loaded));
  auto replica_bytes = [&cluster](std::size_t r) {
    BinaryWriter out;
    cluster.replica(0, r).SerializeDatabase(&out);
    return out.TakeBuffer();
  };
  EXPECT_EQ(replica_bytes(0), image0.buffer());
  EXPECT_EQ(replica_bytes(1), image0.buffer()) << "replica 1 not re-stamped";
  for (VectorId id = 0; id < 300; id += 7) {
    ASSERT_TRUE(cluster.Delete(id).ok()) << id;
  }
  EXPECT_EQ(replica_bytes(1), replica_bytes(0))
      << "replicas diverged after deletes";
}

// In process, the R replicas of a shard are R dispatch slots over one
// CloudServer: every slot serves the shard's one copy through writes,
// compaction and splits, while down flags and request counters stay per
// slot. Checked on an owner-built package and on one reloaded from bytes.
TEST(ReplicatedBuildTest, InProcessReplicasShareOneShard) {
  const Dataset ds = MakeData(180, 4, /*seed=*/71);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 3, 3, 71));
  ShardedEncryptedDatabase built = owner.EncryptAndIndexSharded(ds.base);
  BinaryWriter v2;
  built.Serialize(&v2);
  BinaryReader in(v2.buffer());
  auto reloaded = ShardedEncryptedDatabase::Deserialize(&in);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const Dataset extra = MakeData(20, 0, /*seed=*/72);
  std::vector<EncryptedVector> fresh;
  for (std::size_t i = 0; i < extra.base.size(); ++i) {
    fresh.push_back(owner.EncryptOne(extra.base.row(i)));
  }
  const std::vector<QueryToken> tokens = MakeTokens(owner, ds, 73);

  ShardedCloudServer owner_built(std::move(built));
  ShardedCloudServer loaded(std::move(*reloaded));
  for (ShardedCloudServer* cluster : {&owner_built, &loaded}) {
    auto expect_shared = [cluster](const char* when) {
      for (std::size_t s = 0; s < cluster->num_shards(); ++s) {
        for (std::size_t r = 0; r < cluster->replication_factor(); ++r) {
          EXPECT_EQ(&cluster->replica(s, r), &cluster->shard(s))
              << when << ": shard " << s << " replica " << r;
        }
      }
    };
    expect_shared("as built");
    for (const EncryptedVector& v : fresh) {
      ASSERT_TRUE(cluster->Insert(v).ok());
    }
    for (VectorId id = 0; id < 180; id += 9) {
      ASSERT_TRUE(cluster->Delete(id).ok()) << id;
    }
    expect_shared("after 20 inserts and 20 deletes");
    ASSERT_TRUE(cluster->CompactShard(0).ok());
    expect_shared("after CompactShard(0)");
    ASSERT_TRUE(cluster->SplitShard(1).ok());
    ASSERT_EQ(cluster->num_shards(), 4u);
    expect_shared("after SplitShard(1)");

    cluster->SetReplicaDown(1, 1, true);
    EXPECT_EQ(cluster->live_replicas(1), 2u);
    EXPECT_EQ(cluster->live_replicas(0), 3u);
    const std::size_t slot0 = cluster->replica_requests(1, 0);
    const std::size_t slot1 = cluster->replica_requests(1, 1);
    EXPECT_FALSE(cluster->Search(tokens[0], 5).partial);
    EXPECT_GT(cluster->replica_requests(1, 0), slot0);
    EXPECT_EQ(cluster->replica_requests(1, 1), slot1);
  }
}

/// SHA-256 of `bytes` as lowercase hex.
std::string Sha256Hex(const std::vector<std::uint8_t>& bytes) {
  std::string hex;
  for (std::uint8_t b : Sha256(bytes.data(), bytes.size())) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  return hex;
}

// The package bytes and the deployment byte count do not depend on how the
// server holds its replicas or how it rebuilds shards. The digests and counts
// below for an owner build (v2), the same after 20 inserts and 20 deletes
// (v2), and after one compaction (v3) were recorded when every in-process
// replica was its own deserialized copy of the shard; the one after a split
// of the other shard (v3) when compaction and split were separate code
// paths.
TEST(ReplicatedBuildTest, PackageBytesMatchParentFormat) {
  const Dataset ds = MakeData(200, 0, /*seed=*/61);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 2, 2, 61));
  ShardedEncryptedDatabase db = owner.EncryptAndIndexSharded(ds.base);
  BinaryWriter built;
  db.Serialize(&built);
  EXPECT_EQ(Sha256Hex(built.buffer()),
            "72472e394ec89b9a674ad30971556701ab9b10feb1baef94a3589f5c6aa35f51");

  ShardedCloudServer cluster(std::move(db));
  EXPECT_EQ(cluster.StorageBytes(), 661864u);
  const Dataset extra = MakeData(20, 0, /*seed=*/62);
  for (std::size_t i = 0; i < extra.base.size(); ++i) {
    ASSERT_TRUE(cluster.Insert(owner.EncryptOne(extra.base.row(i))).ok());
  }
  for (VectorId id = 0; id < 200; id += 10) {
    ASSERT_TRUE(cluster.Delete(id).ok()) << id;
  }
  BinaryWriter mutated;
  cluster.SerializeDatabase(&mutated);
  EXPECT_EQ(Sha256Hex(mutated.buffer()),
            "5fd4618ed564745db6651b0cabe14ac9f3174b8261a415b2bf59638d1afaeebf");
  EXPECT_EQ(cluster.StorageBytes(), 666832u);

  ASSERT_TRUE(cluster.CompactShard(0).ok());
  BinaryWriter compacted;
  cluster.SerializeDatabase(&compacted);
  EXPECT_EQ(Sha256Hex(compacted.buffer()),
            "c3d43a9c4ce314c1336eea77a0d505d0bdaac90c3179a57ad158ead0cb3930db");
  EXPECT_EQ(cluster.StorageBytes(), 662000u);

  ASSERT_TRUE(cluster.SplitShard(1).ok());
  BinaryWriter split;
  cluster.SerializeDatabase(&split);
  EXPECT_EQ(Sha256Hex(split.buffer()),
            "5888640f250a1cbfaf61e5ed27b51c739a6922d85551a1075e8b643b372f86ad");
  EXPECT_EQ(cluster.StorageBytes(), 661792u);
}

TEST(ReplicatedBuildTest, ZeroReplicasIsRejected) {
  auto owner =
      DataOwner::Create(kDim, BaseParams(IndexKind::kHnsw, 2, 0, 13));
  EXPECT_EQ(owner.status().code(), Status::Code::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Async equivalence + failure paths

class AsyncServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeData(240, 12, /*seed=*/21);
    owner_ = std::make_unique<DataOwner>(
        MakeOwner(BaseParams(IndexKind::kBruteForce, 4, 2, 21)));
    service_ = std::make_unique<PpannsService>(ShardedCloudServer(
        owner_->EncryptAndIndexSharded(ds_.base), faults_.Decorator()));
    tokens_ = MakeTokens(*owner_, ds_, 23);
  }

  /// Healthy-cluster sync baseline for every token.
  std::vector<std::vector<VectorId>> HealthyIds(std::size_t k) {
    std::vector<std::vector<VectorId>> ids;
    for (const QueryToken& token : tokens_) {
      auto r = service_->Search(token, k);
      PPANNS_CHECK(r.ok());
      ids.push_back(r->ids);
    }
    return ids;
  }

  Dataset ds_;
  std::unique_ptr<DataOwner> owner_;
  /// Injected faults of the served cluster's replica slots.
  FaultPlan faults_;
  std::unique_ptr<PpannsService> service_;
  std::vector<QueryToken> tokens_;
};

/// A remote replica served in-process: forwards to a local server's
/// FilterShard, the server side of the RPC boundary.
class InProcessTransport final : public ShardTransport {
 public:
  InProcessTransport(const ShardedCloudServer* backend, std::size_t shard)
      : backend_(backend), shard_(shard) {}
  Status Filter(const QueryToken& token, const ShardFilterOptions& options,
                SearchContext* ctx, ShardFilterResult* out) const override {
    return backend_->FilterShard(shard_, 0, token, options, ctx, out);
  }
  bool remote() const override { return true; }

 private:
  const ShardedCloudServer* backend_;
  std::size_t shard_;
};

/// One filter dispatch parked on replica slot (s, r) from its own thread —
/// inside an injected delay, so it counts as that slot's in-flight load —
/// until Release() (or destruction) cancels it.
class ParkedDispatch {
 public:
  ParkedDispatch(const ShardedCloudServer& cluster, std::size_t s,
                 std::size_t r, const QueryToken& token)
      : thread_([this, &cluster, s, r, &token] {
          SearchContext ctx;
          ctx.AddCancelFlag(&cancel_);
          ShardFilterOptions options;
          options.k_prime = 8;
          ShardFilterResult out;
          EXPECT_TRUE(
              cluster.FilterShard(s, r, token, options, &ctx, &out).ok());
        }) {}
  ~ParkedDispatch() { Release(); }

  void Release() {
    cancel_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> cancel_{false};
  std::thread thread_;
};

TEST_F(AsyncServingTest, AsyncMatchesSyncOnHealthyCluster) {
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);
  // A generous deadline makes "no hedge fired" deterministic: the cluster
  // answers in well under a second.
  const AsyncOptions async{.hedge_ms = 1000.0};
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    auto r = service_->SearchAsync(tokens_[i], k, {}, async);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, healthy[i]) << "query " << i;
    EXPECT_FALSE(r->partial);
    EXPECT_EQ(r->counters.hedged_requests, 0u);
    EXPECT_EQ(r->counters.replicas_skipped, 0u);
  }
}

TEST_F(AsyncServingTest, ReplicaLossFailsOverWithIdenticalIds) {
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);

  // Kill the primary replica of two shards: every path must serve the exact
  // healthy-cluster ids from the surviving replicas.
  ShardedCloudServer& cluster = service_->sharded_server_mutable();
  cluster.SetReplicaDown(0, 0, true);
  cluster.SetReplicaDown(2, 0, true);
  EXPECT_EQ(cluster.live_replicas(0), 1u);

  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    auto sync = service_->Search(tokens_[i], k);
    auto async = service_->SearchAsync(tokens_[i], k, {},
                                       AsyncOptions{.hedge_ms = 1000.0});
    ASSERT_TRUE(sync.ok());
    ASSERT_TRUE(async.ok()) << async.status().ToString();
    EXPECT_EQ(sync->ids, healthy[i]) << "sync failover diverged, query " << i;
    EXPECT_EQ(async->ids, healthy[i]) << "async failover diverged, query " << i;
    EXPECT_FALSE(sync->partial);
    EXPECT_EQ(sync->counters.replicas_skipped, 2u);
  }

  // Batch fan-out fails over identically.
  auto batch = service_->SearchBatch(tokens_, k);
  ASSERT_TRUE(batch.ok());
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    EXPECT_EQ(batch->results[i].ids, healthy[i]) << "batch query " << i;
  }
}

TEST_F(AsyncServingTest, AllReplicasDownDegradesGracefully) {
  const std::size_t k = 8;
  ShardedCloudServer& cluster = service_->sharded_server_mutable();
  cluster.SetReplicaDown(1, 0, true);
  cluster.SetReplicaDown(1, 1, true);
  ASSERT_EQ(cluster.live_replicas(1), 0u);

  // Partial results allowed: the other shards answer, the flag is set, and
  // no returned id lives on the dead shard.
  const ShardManifest& manifest = cluster.manifest();
  for (const QueryToken& token : tokens_) {
    auto r = service_->SearchAsync(token, k, {},
                                   AsyncOptions{.hedge_ms = 1000.0});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->partial);
    EXPECT_FALSE(r->ids.empty());
    for (VectorId id : r->ids) {
      EXPECT_NE(manifest.at(id).shard, 1u) << "id from a dead shard";
    }
  }
  // The sync path degrades the same way (flag, no Status surface).
  auto sync = service_->Search(tokens_[0], k);
  ASSERT_TRUE(sync.ok());
  EXPECT_TRUE(sync->partial);

  // Partial results forbidden: a Status, not UB and not silent truncation.
  auto strict = service_->SearchAsync(
      tokens_[0], k, {},
      AsyncOptions{.hedge_ms = 1000.0, .allow_partial = false});
  EXPECT_EQ(strict.status().code(), Status::Code::kFailedPrecondition);
}

TEST_F(AsyncServingTest, EveryShardDownIsAStatus) {
  ShardedCloudServer& cluster = service_->sharded_server_mutable();
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    for (std::size_t r = 0; r < cluster.replication_factor(); ++r) {
      cluster.SetReplicaDown(s, r, true);
    }
  }
  auto r = service_->SearchAsync(tokens_[0], 5);
  EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
}

TEST_F(AsyncServingTest, HedgedStragglerFinishesEarlyWithIdenticalIds) {
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);

  // One replica of shard 0 answers 400 ms late. The sync path eats the full
  // delay; the hedged async path re-dispatches to the healthy replica after
  // 10 ms and must return the identical ids in well under the delay.
  faults_.Cell(0, 0)->delay_ms = 400;

  Timer sync_timer;
  auto sync = service_->Search(tokens_[0], k);
  const double sync_seconds = sync_timer.ElapsedSeconds();
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(sync->ids, healthy[0]);
  EXPECT_GE(sync_seconds, 0.4) << "the straggler should stall the barrier";

  const AsyncOptions async{.hedge_ms = 10.0};
  std::size_t total_hedged = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    Timer async_timer;
    auto r = service_->SearchAsync(tokens_[i], k, {}, async);
    const double async_seconds = async_timer.ElapsedSeconds();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, healthy[i]) << "hedged result diverged, query " << i;
    // The first query must hedge off the straggler. Later queries may not
    // need to: load-aware dispatch sees the loser still occupying the slow
    // replica and routes straight to the idle one — either way every query
    // must beat the 400 ms barrier.
    if (i == 0) {
      EXPECT_GE(r->counters.hedged_requests, 1u);
    }
    total_hedged += r->counters.hedged_requests;
    EXPECT_LT(async_seconds, 0.35)
        << "hedging should beat the 400 ms straggler";
  }
  EXPECT_GE(total_hedged, 1u);
}

TEST_F(AsyncServingTest, MutationAfterHedgedSearchWaitsForLosers) {
  // A hedge loser can still be reading the indexes when SearchAsync
  // returns; Insert/Delete must drain it before mutating (under sanitizers
  // this is the use-after-free / data-race regression).
  faults_.Cell(0, 0)->delay_ms = 100;
  auto r = service_->SearchAsync(tokens_[0], 5, {},
                                 AsyncOptions{.hedge_ms = 5.0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto id = service_->Insert(owner_->EncryptOne(ds_.queries.row(0)));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(service_->Delete(*id).ok());
}

TEST_F(AsyncServingTest, FastPrimaryNeverHedges) {
  // The inverse of the straggler case: with a healthy cluster and a generous
  // deadline the hedge must never fire — a hedged request that was never
  // needed is wasted work the claim flag exists to avoid.
  const AsyncOptions async{.hedge_ms = 500.0};
  for (const QueryToken& token : tokens_) {
    auto r = service_->SearchAsync(token, 5, {}, async);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->counters.hedged_requests, 0u);
  }
}

TEST_F(AsyncServingTest, AsyncInsidePoolWorkerFallsBackInline) {
  // SearchAsync from a pool worker (e.g. user code batching its own calls)
  // must not deadlock waiting for workers: it runs the inline scatter and
  // still returns the same ids.
  const std::size_t k = 6;
  auto direct = service_->SearchAsync(tokens_[0], k);
  ASSERT_TRUE(direct.ok());
  std::future<Result<SearchResult>> from_worker =
      ThreadPool::Global().Async([this, k] {
        return service_->SearchAsync(tokens_[0], k);
      });
  auto nested = from_worker.get();
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(nested->ids, direct->ids);
}

// ---------------------------------------------------------------------------
// The cancellable pipeline at the serving tier: deadlines, load-aware
// dispatch, mid-scan loser abort, hedged batch scatter.

TEST_F(AsyncServingTest, DeadlineExpiredReturnsDeadlineExceeded) {
  // A deadline that is already unmeetable when the query starts must come
  // back as a Status on every serving path — never as truncated ids.
  const SearchSettings expired{.deadline_ms = 1e-6};
  auto sync = service_->Search(tokens_[0], 8, expired);
  EXPECT_EQ(sync.status().code(), Status::Code::kDeadlineExceeded);

  auto async = service_->SearchAsync(tokens_[0], 8, expired,
                                     AsyncOptions{.hedge_ms = 1000.0});
  EXPECT_EQ(async.status().code(), Status::Code::kDeadlineExceeded);

  auto batch = service_->SearchBatch(tokens_, 8, expired);
  EXPECT_EQ(batch.status().code(), Status::Code::kDeadlineExceeded);

  // A generous deadline changes nothing: same ids, no early exit.
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);
  const SearchSettings generous{.deadline_ms = 60'000.0};
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    auto r = service_->Search(tokens_[i], k, generous);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ids, healthy[i]);
    EXPECT_EQ(r->counters.early_exit, EarlyExit::kNone);
  }
}

TEST_F(AsyncServingTest, CountersReportSearchStats) {
  // Every result carries the query's work: rows scored (the exact backend
  // scans every live row of every shard once) and the DCE comparisons the
  // refine loop already counted.
  auto r = service_->Search(tokens_[0], 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->counters.nodes_visited, ds_.base.size());
  EXPECT_EQ(r->counters.distance_computations, ds_.base.size());
  EXPECT_GT(r->counters.dce_comparisons, 0u);
  EXPECT_EQ(r->counters.early_exit, EarlyExit::kNone);

  auto a = service_->SearchAsync(tokens_[0], 8, {},
                                 AsyncOptions{.hedge_ms = 1000.0});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->counters.nodes_visited, ds_.base.size());

  // Every path's counters are one copy of the query context's stats, and
  // the work counts do not depend on the path.
  const auto expect_work = [](const SearchStats& got, const SearchStats& want,
                              const std::string& path) {
    EXPECT_EQ(got.nodes_visited, want.nodes_visited) << path;
    EXPECT_EQ(got.distance_computations, want.distance_computations) << path;
    EXPECT_EQ(got.dce_comparisons, want.dce_comparisons) << path;
    EXPECT_EQ(got.filter_candidates, want.filter_candidates) << path;
    EXPECT_EQ(got.hedged_requests, want.hedged_requests) << path;
    EXPECT_EQ(got.replicas_skipped, want.replicas_skipped) << path;
  };
  const auto expect_copy = [&](const SearchStats& got, const SearchStats& want,
                               const std::string& path) {
    expect_work(got, want, path);
    EXPECT_EQ(got.filter_seconds, want.filter_seconds) << path;
    EXPECT_EQ(got.refine_seconds, want.refine_seconds) << path;
    EXPECT_EQ(got.scan_seconds, want.scan_seconds) << path;
    EXPECT_EQ(got.sq_rerank_seconds, want.sq_rerank_seconds) << path;
  };
  std::vector<SearchContext> sync_ctx(tokens_.size());
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    auto sync = service_->Search(tokens_[i], 8, {}, &sync_ctx[i]);
    ASSERT_TRUE(sync.ok());
    expect_copy(sync->counters, sync_ctx[i].stats, "Search");
    EXPECT_EQ(sync->counters.filter_candidates, 32u);
    EXPECT_GT(sync->counters.filter_seconds, 0.0);
    EXPECT_GT(sync->counters.refine_seconds, 0.0);
  }

  // A hedge that fires: shard 0's first replica straggles, the hedge wins.
  faults_.Cell(0, 0)->delay_ms = 200;
  SearchContext hedged_ctx;
  auto hedged = service_->SearchAsync(tokens_[0], 8, {},
                                      AsyncOptions{.hedge_ms = 5.0},
                                      &hedged_ctx);
  faults_.Cell(0, 0)->delay_ms = 0;
  ASSERT_TRUE(hedged.ok());
  expect_copy(hedged->counters, hedged_ctx.stats, "hedged SearchAsync");
  EXPECT_EQ(hedged->counters.hedged_requests, 1u);
  SearchStats want_hedged = sync_ctx[0].stats;
  want_hedged.hedged_requests = 1;
  expect_work(hedged->counters, want_hedged, "hedged SearchAsync");

  // SearchBatch, plain and hedged: each query reports what the same query
  // costs on its own, and the batch total is the sum of its results.
  for (const double hedge_ms : {0.0, 1000.0}) {
    const std::string path =
        hedge_ms > 0.0 ? "hedged SearchBatch" : "SearchBatch";
    auto batch = service_->SearchBatch(tokens_, 8, {},
                                       AsyncOptions{.hedge_ms = hedge_ms});
    ASSERT_TRUE(batch.ok());
    SearchStats sum;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      expect_work(batch->results[i].counters, sync_ctx[i].stats, path);
      sum.Merge(batch->results[i].counters);
    }
    expect_copy(batch->counters.total, sum, path + " total");
  }

  // The remote gather: candidates and their ciphertexts come back from the
  // shards, the work counts are the same.
  const ShardedCloudServer& backend = service_->sharded_server();
  ShardedCloudServer::RemoteTopology topology;
  topology.num_shards = backend.num_shards();
  topology.num_replicas = 1;
  topology.dim = backend.dim();
  topology.index_kind = backend.index_kind();
  topology.size = backend.size();
  topology.capacity = backend.capacity();
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(
      topology.num_shards);
  for (std::size_t s = 0; s < topology.num_shards; ++s) {
    transports[s].push_back(std::make_unique<InProcessTransport>(&backend, s));
  }
  PpannsService gather{ShardedCloudServer(topology, std::move(transports))};
  SearchContext remote_ctx;
  auto remote = gather.Search(tokens_[0], 8, {}, &remote_ctx);
  ASSERT_TRUE(remote.ok());
  expect_copy(remote->counters, remote_ctx.stats, "remote gather");
  expect_work(remote->counters, sync_ctx[0].stats, "remote gather");

  // A cache hit ran no filter or refine work.
  service_->EnableResultCache();
  ASSERT_TRUE(service_->Search(tokens_[0], 8).ok());
  auto hit = service_->Search(tokens_[0], 8);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->counters.cache_hit);
  expect_copy(hit->counters, SearchStats{}, "cache hit");
}

TEST_F(AsyncServingTest, LoadAwareDispatchPrefersIdleReplica) {
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);
  ShardedCloudServer& cluster = service_->sharded_server_mutable();

  // Park a delayed dispatch on shard 0's replica 0: while it is in flight,
  // every dispatch must pick the idle replica 1 — deterministically, no
  // timing.
  faults_.Cell(0, 0)->delay_ms = 60'000;
  ParkedDispatch parked(cluster, 0, 0, tokens_[0]);
  while (cluster.replica_inflight(0, 0) != 1) std::this_thread::yield();
  const std::size_t req00 = cluster.replica_requests(0, 0);
  const std::size_t req01 = cluster.replica_requests(0, 1);

  auto async = service_->SearchAsync(tokens_[0], k, {},
                                     AsyncOptions{.hedge_ms = 1000.0});
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async->ids, healthy[0]) << "replica choice must not change ids";
  EXPECT_EQ(cluster.replica_requests(0, 0), req00);
  EXPECT_EQ(cluster.replica_requests(0, 1), req01 + 1);

  auto sync = service_->Search(tokens_[1], k);
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(sync->ids, healthy[1]);
  EXPECT_EQ(cluster.replica_requests(0, 0), req00);
  EXPECT_EQ(cluster.replica_requests(0, 1), req01 + 2);

  // Parked dispatch cancelled (before it scanned) and the delay lifted:
  // ties resume the deterministic first-replica order.
  parked.Release();
  faults_.Cell(0, 0)->delay_ms = 0;
  auto tie = service_->Search(tokens_[2], k);
  ASSERT_TRUE(tie.ok());
  EXPECT_EQ(cluster.replica_requests(0, 0), req00 + 1);
}

TEST_F(AsyncServingTest, LosingHedgeAbortsMidScanAndIdsMatch) {
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);
  ShardedCloudServer& cluster = service_->sharded_server_mutable();
  faults_.Cell(0, 0)->delay_ms = 200;

  // Mid-scan cancellation: the loser wakes out of its injected delay at the
  // next probe after the winner claims, so it never scans — zero wasted
  // nodes, identical winner ids.
  const std::size_t wasted_before = cluster.CancelledWorkNodes();
  auto mid = service_->SearchAsync(tokens_[0], k, {},
                                   AsyncOptions{.hedge_ms = 5.0});
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(mid->ids, healthy[0]);
  EXPECT_GE(mid->counters.hedged_requests, 1u);
  const std::size_t wasted_mid =
      cluster.CancelledWorkNodes() - wasted_before;
  EXPECT_EQ(wasted_mid, 0u)
      << "a mid-scan-cancelled loser must not burn scan work";

  faults_.Cell(0, 0)->delay_ms = 0;
}

TEST_F(AsyncServingTest, CallerCancellationReturnsPartialNotHang) {
  // A caller-registered cancellation flag (no deadline) must come back as
  // a result with early_exit == kCancelled on both paths — in particular
  // the async gather must not wait forever on work items that walked away
  // cancelled.
  std::atomic<bool> cancel{true};  // raised before the query even starts
  SearchContext sync_ctx;
  sync_ctx.AddCancelFlag(&cancel);
  auto sync = service_->Search(tokens_[0], 8, {}, &sync_ctx);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  EXPECT_EQ(sync->counters.early_exit, EarlyExit::kCancelled);

  SearchContext async_ctx;
  async_ctx.AddCancelFlag(&cancel);
  auto async = service_->SearchAsync(tokens_[0], 8, {},
                                     AsyncOptions{.hedge_ms = 1000.0},
                                     &async_ctx);
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  EXPECT_EQ(async->counters.early_exit, EarlyExit::kCancelled);
}

TEST_F(AsyncServingTest, HedgedBatchMatchesSequentialIds) {
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);
  faults_.Cell(0, 0)->delay_ms = 50;

  auto batch = service_->SearchBatch(tokens_, k, {},
                                     AsyncOptions{.hedge_ms = 5.0});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), tokens_.size());
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    EXPECT_EQ(batch->results[i].ids, healthy[i]) << "hedged batch query " << i;
  }
  EXPECT_GE(batch->counters.total.hedged_requests, 1u);
  faults_.Cell(0, 0)->delay_ms = 0;

  // A healthy cluster: the hedged batch still matches, without hedges.
  auto calm = service_->SearchBatch(tokens_, k, {},
                                    AsyncOptions{.hedge_ms = 1000.0});
  ASSERT_TRUE(calm.ok());
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    EXPECT_EQ(calm->results[i].ids, healthy[i]);
  }
  EXPECT_EQ(calm->counters.total.hedged_requests, 0u);
}

// A hedged batch against a cluster with every replica down answers with
// partial results, and those never reach the cache: once the replicas are
// back, the same batch is served fresh with the healthy ids.
TEST_F(AsyncServingTest, HedgedBatchWithEveryReplicaDownIsPartialNotCached) {
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);
  service_->EnableResultCache();
  ShardedCloudServer& cluster = service_->sharded_server_mutable();
  const auto set_all_down = [&cluster](bool down) {
    for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
      for (std::size_t r = 0; r < cluster.replication_factor(); ++r) {
        cluster.SetReplicaDown(s, r, down);
      }
    }
  };
  const AsyncOptions hedged{.hedge_ms = 5.0};

  set_all_down(true);
  auto down = service_->SearchBatch(tokens_, k, {}, hedged);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  for (const SearchResult& r : down->results) {
    EXPECT_TRUE(r.partial);
    EXPECT_TRUE(r.ids.empty());
  }

  set_all_down(false);
  auto up = service_->SearchBatch(tokens_, k, {}, hedged);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    EXPECT_FALSE(up->results[i].counters.cache_hit) << "query " << i;
    EXPECT_FALSE(up->results[i].partial) << "query " << i;
    EXPECT_EQ(up->results[i].ids, healthy[i]) << "query " << i;
  }
}

// A shard whose dispatch fails did not answer: every serving path marks the
// query partial (so the facade never caches the truncated ids) and returns
// only ids from the shards that answered.
TEST_F(AsyncServingTest, FailedDispatchIsPartialOnEveryPath) {
  const std::size_t k = 8;
  const std::size_t failing_shard = 2;
  const ShardedCloudServer& backend = service_->sharded_server();
  ShardedCloudServer::RemoteTopology topology;
  topology.num_shards = backend.num_shards();
  topology.num_replicas = 1;
  topology.dim = backend.dim();
  topology.index_kind = backend.index_kind();
  topology.size = backend.size();
  topology.capacity = backend.capacity();
  FaultPlan faults;
  faults.Cell(failing_shard, 0)->fail = true;
  const TransportDecorator decorate = faults.Decorator();
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(
      topology.num_shards);
  for (std::size_t s = 0; s < topology.num_shards; ++s) {
    transports[s].push_back(
        decorate(s, 0, std::make_unique<InProcessTransport>(&backend, s)));
  }
  PpannsService gather{ShardedCloudServer(topology, std::move(transports))};
  gather.EnableResultCache();

  const ShardManifest& manifest = backend.manifest();
  const auto check = [&](const SearchResult& r, const char* path) {
    EXPECT_TRUE(r.partial) << path;
    EXPECT_FALSE(r.counters.cache_hit) << path;
    EXPECT_FALSE(r.ids.empty()) << path;
    for (VectorId id : r.ids) {
      EXPECT_NE(manifest.at(id).shard, failing_shard) << path;
    }
  };
  const AsyncOptions hedged{.hedge_ms = 1000.0};
  const std::span<const QueryToken> batch(tokens_.data(), 4);
  // Twice: a path that cached its truncated answer would replay it.
  for (int pass = 0; pass < 2; ++pass) {
    auto sync = gather.Search(tokens_[0], k);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    check(*sync, "Search");
    auto async = gather.SearchAsync(tokens_[1], k, {}, hedged);
    ASSERT_TRUE(async.ok()) << async.status().ToString();
    check(*async, "SearchAsync");
    auto plain = gather.SearchBatch(batch, k);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    for (const SearchResult& r : plain->results) check(r, "SearchBatch");
    auto hedged_batch = gather.SearchBatch(batch, k, {}, hedged);
    ASSERT_TRUE(hedged_batch.ok()) << hedged_batch.status().ToString();
    for (const SearchResult& r : hedged_batch->results) {
      check(r, "hedged SearchBatch");
    }
  }
}

// A failed dispatch fails over: with shard 2's replica 0 failing every
// dispatch and its replica 1 healthy, every serving path retries the item on
// replica 1 and answers in full, with the ids of a healthy gather.
TEST_F(AsyncServingTest, FailedDispatchFailsOverToTheNextReplica) {
  const std::size_t k = 8;
  const std::size_t failing_shard = 2;
  const ShardedCloudServer& backend = service_->sharded_server();
  const auto gather = [&](bool inject_failure) {
    ShardedCloudServer::RemoteTopology topology;
    topology.num_shards = backend.num_shards();
    topology.num_replicas = 2;
    topology.dim = backend.dim();
    topology.index_kind = backend.index_kind();
    topology.size = backend.size();
    topology.capacity = backend.capacity();
    FaultPlan faults;
    faults.Cell(failing_shard, 0)->fail = inject_failure;
    const TransportDecorator decorate = faults.Decorator();
    std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(
        topology.num_shards);
    for (std::size_t s = 0; s < topology.num_shards; ++s) {
      for (std::size_t r = 0; r < topology.num_replicas; ++r) {
        transports[s].push_back(
            decorate(s, r, std::make_unique<InProcessTransport>(&backend, s)));
      }
    }
    return PpannsService{ShardedCloudServer(topology, std::move(transports))};
  };
  const PpannsService healthy = gather(false);
  const PpannsService failing = gather(true);

  std::vector<std::vector<VectorId>> want;
  for (const QueryToken& token : tokens_) {
    auto r = healthy.Search(token, k);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->partial);
    want.push_back(r->ids);
  }
  const AsyncOptions hedged{.hedge_ms = 1000.0};
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    auto sync = failing.Search(tokens_[i], k);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    EXPECT_FALSE(sync->partial) << "Search, query " << i;
    EXPECT_EQ(sync->ids, want[i]) << "Search, query " << i;
    auto async = failing.SearchAsync(tokens_[i], k, {}, hedged);
    ASSERT_TRUE(async.ok()) << async.status().ToString();
    EXPECT_FALSE(async->partial) << "SearchAsync, query " << i;
    EXPECT_EQ(async->ids, want[i]) << "SearchAsync, query " << i;
  }
  auto plain = failing.SearchBatch(tokens_, k);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto hedged_batch = failing.SearchBatch(tokens_, k, {}, hedged);
  ASSERT_TRUE(hedged_batch.ok()) << hedged_batch.status().ToString();
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    EXPECT_FALSE(plain->results[i].partial) << "SearchBatch, query " << i;
    EXPECT_EQ(plain->results[i].ids, want[i]) << "SearchBatch, query " << i;
    EXPECT_FALSE(hedged_batch->results[i].partial)
        << "hedged SearchBatch, query " << i;
    EXPECT_EQ(hedged_batch->results[i].ids, want[i])
        << "hedged SearchBatch, query " << i;
  }
}

// A failed hedge does not cut off a slower healthy dispatch: shard 2's
// replica 0 is 50 ms slow, the hedge to its replica 1 fails at once, and the
// item still gets replica 0's answer instead of coming back partial.
TEST_F(AsyncServingTest, FailedHedgeLeavesTheSlowReplicaToAnswer) {
  const std::size_t k = 8;
  const std::size_t slow_shard = 2;
  const ShardedCloudServer& backend = service_->sharded_server();
  ShardedCloudServer::RemoteTopology topology;
  topology.num_shards = backend.num_shards();
  topology.num_replicas = 2;
  topology.dim = backend.dim();
  topology.index_kind = backend.index_kind();
  topology.size = backend.size();
  topology.capacity = backend.capacity();
  FaultPlan faults;
  faults.Cell(slow_shard, 0)->delay_ms = 50;
  faults.Cell(slow_shard, 1)->fail = true;
  const TransportDecorator decorate = faults.Decorator();
  std::vector<std::vector<std::unique_ptr<ShardTransport>>> transports(
      topology.num_shards);
  for (std::size_t s = 0; s < topology.num_shards; ++s) {
    for (std::size_t r = 0; r < topology.num_replicas; ++r) {
      transports[s].push_back(
          decorate(s, r, std::make_unique<InProcessTransport>(&backend, s)));
    }
  }
  const PpannsService gather{
      ShardedCloudServer(topology, std::move(transports))};
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);

  auto r = gather.SearchAsync(tokens_[0], k, {}, AsyncOptions{.hedge_ms = 5.0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->counters.hedged_requests, 1u);
  EXPECT_FALSE(r->partial);
  EXPECT_EQ(r->ids, healthy[0]);
}

// A deadline that expires while the hedged gather waits abandons the
// shards still out, and the query comes back DeadlineExceeded — also with
// partial results disabled, where a shard that did not answer for any other
// reason is a FailedPrecondition.
TEST_F(AsyncServingTest, ExpiredDeadlineWithoutPartialIsDeadlineExceeded) {
  faults_.Cell(0, 0)->delay_ms = 200;
  faults_.Cell(0, 1)->delay_ms = 200;
  const SearchSettings tight{.deadline_ms = 20.0};
  auto r = service_->SearchAsync(
      tokens_[0], 8, tight,
      AsyncOptions{.hedge_ms = 1000.0, .allow_partial = false});
  EXPECT_EQ(r.status().code(), Status::Code::kDeadlineExceeded)
      << r.status().ToString();
  faults_.Cell(0, 0)->delay_ms = 0;
  faults_.Cell(0, 1)->delay_ms = 0;
}

// replicas_skipped describes one query on every path: with the primaries of
// shards 0 and 2 down, each query passes over exactly two replicas — a
// batch does not report its batch-wide sum on every result.
TEST_F(AsyncServingTest, ReplicasSkippedIsPerQueryOnEveryPath) {
  const std::size_t k = 8;
  ShardedCloudServer& cluster = service_->sharded_server_mutable();
  cluster.SetReplicaDown(0, 0, true);
  cluster.SetReplicaDown(2, 0, true);
  const AsyncOptions hedged{.hedge_ms = 1000.0};

  for (const QueryToken& token : tokens_) {
    auto sync = service_->Search(token, k);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    EXPECT_EQ(sync->counters.replicas_skipped, 2u);
    auto async = service_->SearchAsync(token, k, {}, hedged);
    ASSERT_TRUE(async.ok()) << async.status().ToString();
    EXPECT_EQ(async->counters.replicas_skipped, 2u);
  }
  auto plain = service_->SearchBatch(tokens_, k);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  for (const SearchResult& r : plain->results) {
    EXPECT_EQ(r.counters.replicas_skipped, 2u) << "SearchBatch";
  }
  auto hedged_batch = service_->SearchBatch(tokens_, k, {}, hedged);
  ASSERT_TRUE(hedged_batch.ok()) << hedged_batch.status().ToString();
  for (const SearchResult& r : hedged_batch->results) {
    EXPECT_EQ(r.counters.replicas_skipped, 2u) << "hedged SearchBatch";
  }
}

// A slot whose every dispatch fails while it still looks healthy fails over
// in process too: with replica (0,0) failing, every serving path retries
// shard 0's items on replica 1 and answers in full with the healthy ids.
TEST_F(AsyncServingTest, FailingInProcessSlotFailsOverOnEveryPath) {
  const std::size_t k = 8;
  const std::vector<std::vector<VectorId>> healthy = HealthyIds(k);
  faults_.Cell(0, 0)->fail = true;
  ASSERT_EQ(service_->sharded_server().live_replicas(0), 2u);
  const AsyncOptions hedged{.hedge_ms = 1000.0};

  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    auto sync = service_->Search(tokens_[i], k);
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    EXPECT_FALSE(sync->partial) << "Search, query " << i;
    EXPECT_EQ(sync->ids, healthy[i]) << "Search, query " << i;
    auto async = service_->SearchAsync(tokens_[i], k, {}, hedged);
    ASSERT_TRUE(async.ok()) << async.status().ToString();
    EXPECT_FALSE(async->partial) << "SearchAsync, query " << i;
    EXPECT_EQ(async->ids, healthy[i]) << "SearchAsync, query " << i;
  }
  auto plain = service_->SearchBatch(tokens_, k);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto hedged_batch = service_->SearchBatch(tokens_, k, {}, hedged);
  ASSERT_TRUE(hedged_batch.ok()) << hedged_batch.status().ToString();
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    EXPECT_FALSE(plain->results[i].partial) << "SearchBatch, query " << i;
    EXPECT_EQ(plain->results[i].ids, healthy[i]) << "SearchBatch, query " << i;
    EXPECT_FALSE(hedged_batch->results[i].partial)
        << "hedged SearchBatch, query " << i;
    EXPECT_EQ(hedged_batch->results[i].ids, healthy[i])
        << "hedged SearchBatch, query " << i;
  }
}

// Faults belong to slots, not to transport objects: a delay on (0,0) still
// applies after CompactShard(0) rebuilt the shard's slots, and the shard a
// split appends starts without one.
TEST_F(AsyncServingTest, InjectedDelaySurvivesCompactionNotSplit) {
  ShardedCloudServer& cluster = service_->sharded_server_mutable();
  const auto filter_seconds = [&](std::size_t s) {
    ShardFilterOptions options;
    options.k_prime = 8;
    SearchContext ctx;
    ShardFilterResult out;
    Timer timer;
    EXPECT_TRUE(
        cluster.FilterShard(s, 0, tokens_[0], options, &ctx, &out).ok());
    EXPECT_TRUE(out.scanned) << "shard " << s;
    return timer.ElapsedSeconds();
  };
  faults_.Cell(0, 0)->delay_ms = 300;

  ASSERT_TRUE(cluster.CompactShard(0).ok());
  EXPECT_GE(filter_seconds(0), 0.3) << "compaction dropped the delay";
  const std::size_t appended = cluster.num_shards();
  ASSERT_TRUE(cluster.SplitShard(0).ok());
  ASSERT_EQ(cluster.num_shards(), appended + 1);
  EXPECT_GE(filter_seconds(0), 0.3) << "the split dropped shard 0's delay";
  EXPECT_LT(filter_seconds(appended), 0.15)
      << "the appended shard inherited a delay";
}

// A caller cancel raised while the query's dispatches sit in injected delays
// wakes them at the next 1 ms slice: the query returns promptly, cancelled,
// having scanned nothing.
TEST_F(AsyncServingTest, CancelMidInjectedDelayReturnsPromptly) {
  ShardedCloudServer& cluster = service_->sharded_server_mutable();
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    for (std::size_t r = 0; r < cluster.replication_factor(); ++r) {
      faults_.Cell(s, r)->delay_ms = 60'000;
    }
  }
  std::atomic<bool> cancel{false};
  SearchContext ctx;
  ctx.AddCancelFlag(&cancel);
  SearchResult result;
  std::thread query([&] { result = cluster.Search(tokens_[0], 8, {}, &ctx); });
  while (cluster.replica_inflight(0, 0) == 0) std::this_thread::yield();
  Timer since_cancel;
  cancel.store(true, std::memory_order_release);
  query.join();
  const double seconds = since_cancel.ElapsedSeconds();

  EXPECT_EQ(result.counters.early_exit, EarlyExit::kCancelled);
  EXPECT_EQ(result.counters.nodes_visited, 0u);
  EXPECT_LT(seconds, 0.1) << "the cancel did not cut the delay short";
}

// ---------------------------------------------------------------------------
// Maintenance on a replicated cluster

TEST(ReplicatedMaintenanceTest, InsertAndDeleteKeepReplicasInLockstep) {
  const Dataset ds = MakeData(90, 6, /*seed=*/31);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 3, 2, 31));
  PpannsService service{
      ShardedCloudServer(owner.EncryptAndIndexSharded(ds.base))};

  ASSERT_TRUE(service.Delete(4).ok());
  auto inserted = service.Insert(owner.EncryptOne(ds.queries.row(0)));
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  // After mutations, every replica still serializes to its primary's bytes.
  const ShardedCloudServer& cluster = service.sharded_server();
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    BinaryWriter primary;
    cluster.replica(s, 0).SerializeDatabase(&primary);
    for (std::size_t r = 1; r < cluster.replication_factor(); ++r) {
      BinaryWriter replica;
      cluster.replica(s, r).SerializeDatabase(&replica);
      EXPECT_EQ(replica.buffer(), primary.buffer())
          << "shard " << s << " replica " << r << " diverged after mutation";
    }
  }

  // Failover sees the mutations: with every primary down, the inserted
  // vector is found and the deleted id never resurfaces.
  ShardedCloudServer& mutable_cluster = service.sharded_server_mutable();
  for (std::size_t s = 0; s < mutable_cluster.num_shards(); ++s) {
    mutable_cluster.SetReplicaDown(s, 0, true);
  }
  QueryClient client(owner.ShareKeys(), 37);
  auto r = service.Search(client.EncryptQuery(ds.queries.row(0)), 90,
                          SearchSettings{.k_prime = 120});
  ASSERT_TRUE(r.ok());
  bool found_inserted = false;
  for (VectorId id : r->ids) {
    EXPECT_NE(id, 4u) << "deleted id resurfaced on a replica";
    found_inserted |= id == *inserted;
  }
  EXPECT_TRUE(found_inserted);
}

// Each delete is planned once on the shard's primary and the same edit is
// applied to every replica, so replicas match their primary byte for byte
// after any sequence of inserts, deletes and compaction. The plan is
// deterministic, so replaying the WAL on the last checkpoint reproduces the
// live package byte for byte as well.
TEST(ReplicatedDeterminismTest, ReplicasAndWalReplayMatchLiveBytes) {
  namespace fs = std::filesystem;
  const std::size_t n = 2000;
  const Dataset ds = MakeData(n, 64, /*seed=*/41);
  DataOwner owner = MakeOwner(BaseParams(IndexKind::kHnsw, 2, 2, 41));
  BinaryWriter base;
  owner.EncryptAndIndexSharded(ds.base).Serialize(&base);

  auto load = [](const std::vector<std::uint8_t>& bytes) {
    BinaryReader r(bytes);
    auto db = ShardedEncryptedDatabase::Deserialize(&r);
    PPANNS_CHECK(db.ok());
    return PpannsService{ShardedCloudServer(std::move(*db))};
  };
  auto package_bytes = [](const PpannsService& service) {
    BinaryWriter w;
    service.sharded_server().SerializeDatabase(&w);
    return w.TakeBuffer();
  };
  auto expect_replicas_match = [](const PpannsService& service,
                                  const std::string& when) {
    const ShardedCloudServer& cluster = service.sharded_server();
    for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
      BinaryWriter primary;
      cluster.replica(s, 0).SerializeDatabase(&primary);
      for (std::size_t r = 1; r < cluster.replication_factor(); ++r) {
        BinaryWriter replica;
        cluster.replica(s, r).SerializeDatabase(&replica);
        EXPECT_EQ(replica.buffer(), primary.buffer())
            << "shard " << s << " replica " << r << " diverged " << when;
      }
    }
  };

  const fs::path root = fs::temp_directory_path() / "ppanns_replica_determinism";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string wal_dir = (root / "wal").string();
  const std::string snapshot = (root / "checkpoint.ppanns").string();

  PpannsService live = load(base.buffer());
  ASSERT_TRUE(live.AttachWal(wal_dir).ok());
  Rng rng(43);
  std::vector<char> deleted(n, 0);
  std::size_t next_query = 0;
  auto churn = [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      if (rng.UniformInt(0, 2) == 0) {
        const auto& row = ds.queries.row(next_query++ % ds.queries.size());
        ASSERT_TRUE(live.Insert(owner.EncryptOne(row)).ok());
        continue;
      }
      VectorId id = 0;
      do {
        id = static_cast<VectorId>(rng.UniformInt(0, n - 1));
      } while (deleted[id]);
      deleted[id] = 1;
      ASSERT_TRUE(live.Delete(id).ok());
    }
  };

  churn(90);
  expect_replicas_match(live, "after the first churn");
  {
    PpannsService replayed = load(base.buffer());
    auto applied = replayed.ReplayWal(wal_dir);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(*applied, 90u);
    EXPECT_EQ(package_bytes(replayed), package_bytes(live))
        << "replay of the first churn diverged";
  }

  // Compaction is not logged, so the checkpoint after it carries it.
  ShardedCloudServer::MaintenanceOptions compact;
  compact.compact_threshold = 0.0;
  compact.build_threads = 2;
  auto swept = live.sharded_server_mutable().MaybeCompact(compact);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_GT(*swept, 0u);
  ASSERT_TRUE(live.Checkpoint(snapshot).ok());

  churn(90);
  expect_replicas_match(live, "after compaction and the second churn");
  auto checkpoint = ReadFile(snapshot);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  PpannsService replayed = load(*checkpoint);
  auto applied = replayed.ReplayWal(wal_dir);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 90u);
  EXPECT_EQ(package_bytes(replayed), package_bytes(live))
      << "replay after the checkpoint diverged";
  fs::remove_all(root);
}

// The property behind replication, failover and recovery, over seeded random
// mutation sequences at several shapes (shards x replicas). Each sequence
// mixes inserts and deletes with an occasional compaction sweep or shard
// split. Compaction and split are not WAL records, so each one is followed by
// a checkpoint: replay reproduces the live package only from a checkpoint
// taken after the last structural change. Every sequence runs twice, once
// from the calling thread (the delete planner fans out across the global
// pool) and once inside a pool task (ParallelFor runs inline, so the pool is
// one wide). Three things must hold: every replica serializes to its
// primary's bytes, both runs end in equal package bytes, and replaying the
// WAL on a fresh service loaded from the last checkpoint reproduces the live
// package.
TEST(ReplicatedDeterminismTest, RandomMutationSequencesMatchEverywhere) {
  namespace fs = std::filesystem;
  struct Shape {
    std::uint32_t shards;
    std::uint32_t replicas;
  };
  const std::size_t n = 600, num_ops = 80;
  const fs::path root = fs::temp_directory_path() / "ppanns_mutation_property";
  fs::remove_all(root);

  auto load = [](const std::vector<std::uint8_t>& bytes) {
    BinaryReader r(bytes);
    auto db = ShardedEncryptedDatabase::Deserialize(&r);
    PPANNS_CHECK(db.ok());
    return PpannsService{ShardedCloudServer(std::move(*db))};
  };
  auto package_bytes = [](const PpannsService& service) {
    BinaryWriter w;
    service.sharded_server().SerializeDatabase(&w);
    return w.TakeBuffer();
  };

  for (const Shape shape : {Shape{1, 3}, Shape{2, 2}, Shape{3, 2}}) {
    for (const std::uint64_t seed : {51u, 52u, 53u}) {
      const std::string label = std::to_string(shape.shards) + "x" +
                                std::to_string(shape.replicas) + " seed " +
                                std::to_string(seed);
      const Dataset ds = MakeData(n, num_ops, seed);
      DataOwner owner = MakeOwner(
          BaseParams(IndexKind::kHnsw, shape.shards, shape.replicas, seed));
      BinaryWriter base;
      owner.EncryptAndIndexSharded(ds.base).Serialize(&base);
      // Encrypted once, so both runs insert the same ciphertexts.
      std::vector<EncryptedVector> fresh;
      for (std::size_t i = 0; i < ds.queries.size(); ++i) {
        fresh.push_back(owner.EncryptOne(ds.queries.row(i)));
      }

      // One run of the sequence in `dir`; returns the live package bytes.
      auto run = [&](const fs::path& dir) {
        fs::create_directories(dir);
        const std::string wal_dir = (dir / "wal").string();
        const std::string snapshot = (dir / "checkpoint.ppanns").string();
        std::vector<std::uint8_t> restart = base.buffer();
        PpannsService live = load(restart);
        PPANNS_CHECK(live.AttachWal(wal_dir).ok());
        Rng rng(seed * 7919);
        std::vector<char> deleted(n, 0);
        std::size_t next_insert = 0;
        for (std::size_t op = 0; op < num_ops; ++op) {
          const std::uint64_t pick = rng.UniformInt(0, 19);
          if (pick == 0) {
            ShardedCloudServer& cluster = live.sharded_server_mutable();
            if (rng.UniformInt(0, 1) == 0) {
              ShardedCloudServer::MaintenanceOptions compact;
              compact.compact_threshold = 0.0;
              compact.build_threads = 2;
              EXPECT_TRUE(cluster.MaybeCompact(compact).ok()) << label;
            } else {
              const auto s = static_cast<std::size_t>(
                  rng.UniformInt(0, cluster.num_shards() - 1));
              EXPECT_TRUE(cluster.SplitShard(s).ok()) << label;
            }
            PPANNS_CHECK(live.Checkpoint(snapshot).ok());
            auto saved = ReadFile(snapshot);
            PPANNS_CHECK(saved.ok());
            restart = std::move(*saved);
          } else if (pick < 9) {
            auto id = live.Insert(fresh[next_insert++ % fresh.size()]);
            EXPECT_TRUE(id.ok()) << label;
            deleted.push_back(0);
          } else {
            VectorId id = 0;
            do {
              id = static_cast<VectorId>(rng.UniformInt(0, deleted.size() - 1));
            } while (deleted[id]);
            deleted[id] = 1;
            EXPECT_TRUE(live.Delete(id).ok()) << label;
          }
        }

        const ShardedCloudServer& cluster = live.sharded_server();
        for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
          BinaryWriter primary;
          cluster.replica(s, 0).SerializeDatabase(&primary);
          for (std::size_t r = 1; r < cluster.replication_factor(); ++r) {
            BinaryWriter replica;
            cluster.replica(s, r).SerializeDatabase(&replica);
            EXPECT_EQ(replica.buffer(), primary.buffer())
                << label << ": shard " << s << " replica " << r << " diverged";
          }
        }
        const std::vector<std::uint8_t> bytes = package_bytes(live);
        PpannsService replayed = load(restart);
        EXPECT_TRUE(replayed.ReplayWal(wal_dir).ok()) << label;
        EXPECT_EQ(package_bytes(replayed), bytes)
            << label << ": WAL replay diverged from the live package";
        return bytes;
      };

      const std::vector<std::uint8_t> calling = run(root / "calling");
      const std::vector<std::uint8_t> pooled =
          ThreadPool::Global().Async([&] { return run(root / "pooled"); }).get();
      EXPECT_EQ(calling, pooled)
          << label << ": the pool-task run diverged from the calling thread";
      fs::remove_all(root);
    }
  }
}

// ---------------------------------------------------------------------------
// ThreadPool futures

TEST(ThreadPoolAsyncTest, FutureDeliversValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.Async([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolAsyncTest, ManyFuturesAllComplete) {
  ThreadPool pool(3);
  std::vector<std::future<std::size_t>> futures;
  futures.reserve(64);
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(pool.Async([i] { return i * i; }));
  }
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolAsyncTest, InWorkerDistinguishesPools) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.InWorker());
  std::future<bool> own = pool.Async([&pool] { return pool.InWorker(); });
  EXPECT_TRUE(own.get());
  ThreadPool other(1);
  std::future<bool> foreign = pool.Async([&other] { return other.InWorker(); });
  EXPECT_FALSE(foreign.get());
}

}  // namespace
}  // namespace ppanns
