// perfbench — the repository benchmark binary.
//
// One run executes one named workload end to end against the public API of
// the library and prints one JSON object as its last line of stdout:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
// Phases of a run, in order:
//   1. set-up, repeated `setup_repeats` times and reported as the median
//      (`setup_s`): key generation, database encryption, index build and
//      serving start-up (for remote workloads: ShardServer::Start plus
//      ConnectCluster). Dataset generation and ground truth are the
//      benchmark's own work and are not timed;
//   2. batch throughput: one caller thread issues fixed-size
//      PpannsService::SearchBatch calls back to back (closed loop);
//   3. online latency: an open loop of Poisson arrivals at a fixed rate,
//      timed from each request's scheduled send time;
//   4. checks: recall@10 against exact plaintext ground truth, remote ids
//      against in-process ids (over a loopback ShardServer when the workload
//      is in-process) and, with the cache on, cached ids against uncached;
//      any mismatch makes the run incorrect and the exit code non-zero;
//   5. with --trace 1, instead of the end-to-end metrics: a ladder of calls
//      into each layer's public entry points over a query sample, recorded as
//      spans, from which every per-layer metric is derived.
//
// Every size, share and rate is a command-line argument; run.py supplies
// them from perfbench/workloads.json. See run.py for the full contract.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/sharded_cloud_server.h"
#include "crypto/dce.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "harness.h"
#include "index/brute_force.h"
#include "index/sq8.h"
#include "linalg/kernels.h"
#include "net/frame.h"
#include "net/remote_shard.h"
#include "net/shard_server.h"
#include "net/wire.h"

namespace perfbench {
namespace {

using namespace ppanns;
using Clock = std::chrono::steady_clock;

// Fixed for every workload: results are the top k = 10 (recall_at_10), the
// filter phase keeps k' = 4k candidates and every backend searches at its
// default breadth; the SAP noise bound is half the mean 10-NN distance, the
// paper's tuning (Section VII-A); HNSW is built with m = 16 and
// efConstruction = 100, IVF with 64 lists per shard.
constexpr std::size_t kK = 10;
constexpr std::size_t kKPrime = 4 * kK;
constexpr double kBetaFraction = 0.5;
constexpr std::size_t kHnswM = 16;
constexpr std::size_t kEfConstruction = 100;
constexpr std::size_t kIvfLists = 64;
/// Popularity of the pre-encrypted pool tokens.
constexpr double kZipfSkew = 1.1;
/// Share of --seconds spent in the batch phase; the online phase gets the rest.
constexpr double kBatchShare = 0.3;
/// A run whose recall@10 falls below this is incorrect.
constexpr double kRecallFloor = 0.9;
/// Minimum samples per window of the windowed latency summaries.
constexpr std::size_t kWindowSamples = 1000;
/// Minimum batches (and encryptions) per window of the batch phase.
constexpr std::size_t kBatchWindowSamples = 50;
/// Minimum inserts (or deletes) per window of the write latencies.
constexpr std::size_t kWriteWindowSamples = 500;
/// PP-RPC streams per endpoint of every gather facade.
constexpr std::size_t kPoolSize = 2;
/// Queries whose ids are compared across paths: remote against in-process,
/// cached against uncached, replica against replica.
constexpr std::size_t kCheckQueries = 64;
/// A run whose open-loop generator dispatched later than this at p99 is
/// invalid: its latencies no longer follow the schedule.
constexpr double kLagLimitMs = 200.0;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Require(bool ok, const std::string& what) {
  if (!ok) Die(what);
}

void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "perfbench: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

// ---- Configuration ----------------------------------------------------------

/// One workload's parameters. Every field is set from the command line
/// (`--name value`); run.py passes them from perfbench/workloads.json.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span CSV path (traced runs); empty = none
  std::string tmp_dir;    ///< temporary root for the WAL; removed by the caller

  // Data.
  std::string kind = "sift";       ///< sift | gist (src/datagen)
  std::size_t n = 20000;           ///< base vectors loaded at set-up
  std::size_t query_pool = 1024;   ///< distinct query vectors
  std::size_t insert_pool = 256;   ///< extra vectors for inserts

  // Index and topology.
  std::string index = "hnsw";      ///< hnsw | ivf
  bool sq = false;                 ///< int8 SQ filter tier (flat backends)
  std::size_t build_threads = 1;
  std::size_t shards = 2;
  std::size_t replicas = 1;
  bool remote = false;             ///< serve shards over loopback PP-RPC
  std::size_t cache_capacity = 0;  ///< result cache entries; 0 = off
  bool wal = false;

  // Traffic.
  std::size_t token_pool = 0;   ///< pre-encrypted, re-sent byte-identical
  double resend_share = 0.0;    ///< share of searches drawn from the pool
  std::size_t batch_size = 32;
  double online_rate = 100.0;   ///< Poisson arrivals per second
  double write_share = 0.0;     ///< online share of writes, half inserts
  std::size_t compact_every = 0;     ///< MaybeCompact after this many deletes
  double compact_threshold = 0.3;    ///< MaintenanceOptions::compact_threshold
  std::size_t compact_build_threads = 1;  ///< MaintenanceOptions::build_threads
  std::size_t write_probe = 0;  ///< closed-loop writes after the read phases

  // Measurement.
  std::size_t setup_repeats = 3;
  std::size_t recall_queries = 200;
  std::size_t trace_queries = 200;
};

Config ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      Die("expected --name value pairs, got '" + arg + "'");
    }
    kv[arg.substr(2)] = argv[++i];
  }
  Config c;
  auto take = [&kv](const char* name, auto* field) {
    auto it = kv.find(name);
    if (it == kv.end()) return;
    using T = std::remove_pointer_t<decltype(field)>;
    const std::string& v = it->second;
    if constexpr (std::is_same_v<T, std::string>) {
      *field = v;
    } else {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !std::isfinite(d) || d < 0) {
        Die(std::string("bad value for --") + name + ": '" + v + "'");
      }
      *field = static_cast<T>(d);
    }
    kv.erase(it);
  };
  take("workload", &c.workload);
  take("seed", &c.seed);
  take("seconds", &c.seconds);
  take("trace", &c.trace);
  take("trace-out", &c.trace_out);
  take("tmp-dir", &c.tmp_dir);
  take("kind", &c.kind);
  take("n", &c.n);
  take("query_pool", &c.query_pool);
  take("insert_pool", &c.insert_pool);
  take("index", &c.index);
  take("sq", &c.sq);
  take("build_threads", &c.build_threads);
  take("shards", &c.shards);
  take("replicas", &c.replicas);
  take("remote", &c.remote);
  take("cache_capacity", &c.cache_capacity);
  take("wal", &c.wal);
  take("token_pool", &c.token_pool);
  take("resend_share", &c.resend_share);
  take("batch_size", &c.batch_size);
  take("online_rate", &c.online_rate);
  take("write_share", &c.write_share);
  take("compact_every", &c.compact_every);
  take("compact_threshold", &c.compact_threshold);
  take("compact_build_threads", &c.compact_build_threads);
  take("write_probe", &c.write_probe);
  take("setup_repeats", &c.setup_repeats);
  take("recall_queries", &c.recall_queries);
  take("trace_queries", &c.trace_queries);
  if (!kv.empty()) Die("unknown argument --" + kv.begin()->first);

  if (c.workload.empty()) Die("--workload is required");
  if (c.kind != "sift" && c.kind != "gist") Die("--kind must be sift or gist");
  if (c.index != "hnsw" && c.index != "ivf") Die("--index must be hnsw or ivf");
  Require(c.n >= 1000, "--n must be at least 1000");
  Require(c.shards >= 1 && c.replicas >= 1, "shards and replicas must be >= 1");
  Require(c.batch_size >= 1 && c.setup_repeats >= 1, "sizes must be >= 1");
  Require(c.query_pool >= std::max(c.recall_queries, c.trace_queries),
          "query_pool must cover recall_queries and trace_queries");
  Require(c.token_pool <= c.query_pool, "token_pool must be <= query_pool");
  Require(c.resend_share <= 0.0 || c.token_pool > 0,
          "resend_share needs a token_pool");
  Require(c.write_share < 1.0, "write_share must be below 1");
  Require(!c.wal || !c.tmp_dir.empty(), "a WAL needs --tmp-dir");
  return c;
}

// ---- Data -------------------------------------------------------------------

struct Data {
  FloatMatrix base;     ///< rows 0..n-1 = global ids 0..n-1 after set-up
  FloatMatrix extra;    ///< insert pool
  FloatMatrix queries;  ///< query pool
  /// Exact top-k over `base` for the first recall_queries queries.
  std::vector<std::vector<Neighbor>> gt;
  double beta = 0.0;
  double scale_hint = 1.0;
};

FloatMatrix Rows(const FloatMatrix& m, std::size_t begin, std::size_t end) {
  FloatMatrix out(end - begin, m.dim());
  std::copy(m.row(begin), m.row(begin) + (end - begin) * m.dim(),
            out.row(0));
  return out;
}

Data MakeData(const Config& c) {
  const SyntheticKind kind =
      c.kind == "gist" ? SyntheticKind::kGistLike : SyntheticKind::kSiftLike;
  Dataset ds = MakeDataset(kind, c.n + c.insert_pool, c.query_pool, 0,
                           c.seed * 0x9E3779B97F4A7C15ull + 11);
  Data d;
  d.base = Rows(ds.base, 0, c.n);
  d.extra = Rows(ds.base, c.n, c.n + c.insert_pool);
  d.queries = std::move(ds.queries);
  d.gt = BruteForceKnnBatch(d.base, Rows(d.queries, 0, c.recall_queries), kK);
  double knn = 0.0;
  for (const auto& g : d.gt) knn += std::sqrt(static_cast<double>(g.back().distance));
  d.beta = kBetaFraction * knn / static_cast<double>(d.gt.size());
  Rng stat_rng(c.seed + 17);
  d.scale_hint = std::max(ComputeStats(d.base, stat_rng).mean_norm, 1e-3);
  return d;
}

// ---- The system under test --------------------------------------------------

/// A package served over PP-RPC: a ShardServer on an ephemeral 127.0.0.1
/// port and a gather facade connected to it. The gather is destroyed first.
struct Wire {
  std::unique_ptr<ShardServer> server;
  std::unique_ptr<PpannsService> gather;
};

/// One deployment. Members are destroyed in reverse order: the wire first,
/// then the package it serves.
struct System {
  std::unique_ptr<DataOwner> owner;
  std::unique_ptr<PpannsService> local;  ///< the package, in-process
  Wire wire;                             ///< remote workloads only
  double keygen_s = 0.0;         ///< DataOwner::Create
  double encrypt_index_s = 0.0;  ///< EncryptAndIndexSharded

  /// The facade the workload's clients talk to.
  PpannsService& front() const { return wire.gather ? *wire.gather : *local; }

  /// Tears the deployment down in dependency order.
  void Reset() {
    wire.gather.reset();
    wire.server.reset();
    local.reset();
    owner.reset();
  }
};

PpannsParams MakeParams(const Config& c, const Data& d) {
  PpannsParams p;
  p.dcpe_beta = d.beta;
  p.dce_scale_hint = d.scale_hint;
  auto kind = ParseIndexKind(c.index);
  Require(kind.ok(), "bad --index " + c.index);
  p.index_kind = *kind;
  p.hnsw.m = kHnswM;
  p.hnsw.ef_construction = kEfConstruction;
  p.hnsw.seed = c.seed + 101;
  p.ivf.num_lists = kIvfLists;
  p.sq.enabled = c.sq;
  p.num_shards = static_cast<std::uint32_t>(c.shards);
  p.num_replicas = static_cast<std::uint32_t>(c.replicas);
  p.build_threads = static_cast<std::uint32_t>(c.build_threads);
  p.seed = c.seed + 103;
  return p;
}

/// Starts a ShardServer over `service` on an ephemeral 127.0.0.1 port and
/// connects a gather facade to it.
Wire ServeRemotely(PpannsService* service) {
  Wire wire;
  wire.server =
      std::make_unique<ShardServer>(service, std::vector<std::uint32_t>{});
  const Status st = wire.server->Start(0);
  Require(st.ok(), "ShardServer::Start: " + st.ToString());
  ConnectOptions options;
  options.pool_size = kPoolSize;
  auto cluster = ConnectCluster(
      {"127.0.0.1:" + std::to_string(wire.server->port())}, options);
  Require(cluster.ok(), "ConnectCluster: " + cluster.status().ToString());
  wire.gather = std::make_unique<PpannsService>(std::move(cluster->server));
  return wire;
}

/// The facade over PP-RPC for `sys`: the workload's own gather when it is
/// remote, otherwise a gather over a loopback server that `loopback` keeps.
PpannsService& RemoteFront(System& sys, Wire* loopback) {
  if (sys.wire.gather) return *sys.wire.gather;
  *loopback = ServeRemotely(sys.local.get());
  return *loopback->gather;
}

/// The timed set-up: keys, encryption, index build, serving start-up.
System SetUp(const Config& c, const Data& d, const std::string& wal_dir) {
  System sys;
  const auto t0 = Clock::now();
  auto owner = DataOwner::Create(d.base.dim(), MakeParams(c, d));
  Require(owner.ok(), "DataOwner::Create: " + owner.status().ToString());
  sys.owner = std::make_unique<DataOwner>(std::move(*owner));
  const auto t1 = Clock::now();
  sys.local = std::make_unique<PpannsService>(
      ShardedCloudServer(sys.owner->EncryptAndIndexSharded(d.base)));
  sys.keygen_s = std::chrono::duration<double>(t1 - t0).count();
  sys.encrypt_index_s = std::chrono::duration<double>(Clock::now() - t1).count();
  if (c.wal) {
    const Status st = sys.local->AttachWal(wal_dir);
    Require(st.ok(), "AttachWal: " + st.ToString());
  }
  if (c.remote) sys.wire = ServeRemotely(sys.local.get());
  if (c.cache_capacity > 0) {
    sys.front().EnableResultCache({.capacity = c.cache_capacity});
  }
  return sys;
}

// ---- Traffic ----------------------------------------------------------------

/// Where a search's token comes from: the pre-encrypted pool (re-sent
/// byte-identical, so the result cache can answer it) or a fresh encryption
/// of a pool query vector inside the timed path.
class TokenSource {
 public:
  TokenSource(const Config& c, const Data& d, SecretKeysPtr keys,
              const std::vector<QueryToken>* pool, std::uint64_t seed)
      : c_(c), d_(d), pool_(pool), client_(std::move(keys), seed),
        zipf_(std::max<std::size_t>(c.token_pool, 1), kZipfSkew),
        rng_(seed ^ 0x5bd1e995ull) {}

  /// Draws the next search: true = pool token `*index`, false = fresh
  /// encryption of query vector `*index`.
  bool Draw(std::mt19937_64& rng, std::size_t* index) const {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (!pool_->empty() && u(rng) < c_.resend_share) {
      *index = zipf_.Pick(rng);
      return true;
    }
    std::uniform_int_distribution<std::size_t> q(0, d_.queries.size() - 1);
    *index = q(rng);
    return false;
  }

  QueryToken Fresh(std::size_t query) {
    return client_.EncryptQuery(d_.queries.row(query));
  }

  /// The next token, drawn from this source's own stream.
  QueryToken Next() {
    std::size_t index = 0;
    return Draw(rng_, &index) ? (*pool_)[index] : Fresh(index);
  }

 private:
  const Config& c_;
  const Data& d_;
  const std::vector<QueryToken>* pool_;
  QueryClient client_;
  ZipfSampler zipf_;
  std::mt19937_64 rng_;
};

double MsSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct BatchOutcome {
  double qps = 0.0;             ///< batch_size / median batch wall time
  double overall_qps = 0.0;     ///< queries / phase wall time (logged only)
  std::vector<double> batch_us_per_query;
  std::vector<double> encrypt_us;  ///< one EncryptQuery between batches
};

/// Closed loop: one caller thread, fixed-size SearchBatch calls back to back.
/// Throughput is taken from windows of kBatchWindowSamples batches
/// (SummarizeWindows), so interference from other processes on the host
/// moves it less than it moves the phase total. Between batches, outside
/// their timing, one extra EncryptQuery is timed: user-side cost sampled
/// across the whole phase rather than in one burst.
BatchOutcome RunBatchPhase(const Config& c, const Data& d, const System& sys,
                           const std::vector<QueryToken>& pool, double seconds,
                           Counts* counts) {
  TokenSource source(c, d, sys.owner->ShareKeys(), &pool, c.seed * 31 + 1);
  const SearchSettings settings{.k_prime = kKPrime};
  std::vector<QueryToken> batch(c.batch_size);
  BatchOutcome out;
  std::size_t done = 0;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  QueryClient sampler(sys.owner->ShareKeys(), c.seed * 61 + 4);
  while (Clock::now() < deadline) {
    const auto e0 = Clock::now();
    (void)sampler.EncryptQuery(
        d.queries.row(out.encrypt_us.size() % d.queries.size()));
    out.encrypt_us.push_back(MsSince(e0, Clock::now()) * 1e3);
    const auto t0 = Clock::now();
    for (QueryToken& token : batch) token = source.Next();
    auto r = sys.front().SearchBatch(batch, kK, settings);
    counts->attempted += batch.size();
    if (!r.ok()) {
      counts->failed += batch.size();
    } else {
      for (const SearchResult& res : r->results) counts->failed += res.partial;
    }
    done += batch.size();
    out.batch_us_per_query.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
        static_cast<double>(batch.size()));
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  out.overall_qps = static_cast<double>(done) / elapsed;
  out.qps =
      1e6 / SummarizeWindows(out.batch_us_per_query, kBatchWindowSamples).median;
  return out;
}

enum class OpKind : std::uint8_t { kSearch, kInsert, kDelete };

struct Op {
  double at = 0.0;  ///< scheduled send time, seconds from the phase start
  OpKind kind = OpKind::kSearch;
  bool pooled = false;    ///< searches: pool token vs fresh encryption
  std::size_t arg = 0;    ///< pool/query index, insert-pool row, victim slot
};

/// The whole online schedule, drawn from the seed: Poisson send times, and
/// for each request its kind and argument. Thread timing never changes it.
/// Writes are spaced evenly (request i is a write when the running write
/// count floor((i + 1) * write_share) steps) and alternate insert, delete, so
/// every run of a given length makes the same number of each — and so crosses
/// the count-triggered compaction the same number of times.
std::vector<Op> MakeSchedule(const Config& c, const TokenSource& source,
                             double seconds, std::size_t victims,
                             std::uint64_t seed) {
  const std::vector<double> times = PoissonSchedule(c.online_rate, seconds, seed);
  std::mt19937_64 rng(seed ^ 0xa0761d6478bd642full);
  std::vector<Op> ops;
  ops.reserve(times.size());
  std::size_t inserts = 0, deletes = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    Op op;
    op.at = times[i];
    const bool write = std::floor(static_cast<double>(i + 1) * c.write_share) >
                       std::floor(static_cast<double>(i) * c.write_share);
    const bool insert = inserts <= deletes;
    if (write && insert && inserts < c.insert_pool) {
      op.kind = OpKind::kInsert;
      op.arg = inserts++;
    } else if (write && !insert && deletes < victims) {
      op.kind = OpKind::kDelete;
      op.arg = deletes++;
    } else {
      op.pooled = source.Draw(rng, &op.arg);
    }
    ops.push_back(op);
  }
  return ops;
}

/// Searches hold it shared; the single writer holds it exclusive, with
/// priority (glibc's shared_mutex prefers readers, and an open-loop reader
/// stream would otherwise starve the writer). This is the facade contract:
/// callers serialize Insert/Delete against their own searches.
struct WriteGate {
  std::shared_mutex mu;
  std::atomic<bool> pending{false};
};

struct WriteLog {
  std::vector<double> latency_ms;  ///< from scheduled send to completion
  std::vector<double> insert_ms;   ///< the inserts among latency_ms
  std::vector<double> delete_ms;   ///< the deletes among latency_ms
  std::vector<double> insert_us;   ///< around PpannsService::Insert
  std::vector<double> delete_us;   ///< around PpannsService::Delete
  std::vector<double> compact_ms;  ///< around MaybeCompact
  std::size_t compactions = 0;
  std::vector<VectorId> inserted;      ///< global ids, by insert-pool row
  std::vector<VectorId> deleted;       ///< victims actually removed
  std::uint64_t attempted = 0;  ///< writes and maintenance sweeps
  std::uint64_t failed = 0;

  /// One write's latency, as its caller measures it.
  void Record(OpKind kind, double ms) {
    latency_ms.push_back(ms);
    (kind == OpKind::kInsert ? insert_ms : delete_ms).push_back(ms);
  }
};

/// Applies one write through the facade: insert-pool row `op.arg` or victim
/// `op.arg`. Times the call into `w` and counts it there.
void ApplyWrite(PpannsService& svc, const Op& op,
                const std::vector<EncryptedVector>& inserts,
                const std::vector<VectorId>& victims, WriteLog* w) {
  const auto s = Clock::now();
  bool ok = false;
  if (op.kind == OpKind::kInsert) {
    auto r = svc.Insert(inserts[op.arg]);
    w->insert_us.push_back(MsSince(s, Clock::now()) * 1e3);
    ok = r.ok();
    if (ok) w->inserted[op.arg] = *r;
  } else {
    const Status st = svc.Delete(victims[op.arg]);
    w->delete_us.push_back(MsSince(s, Clock::now()) * 1e3);
    ok = st.ok();
    if (ok) w->deleted.push_back(victims[op.arg]);
  }
  ++w->attempted;
  w->failed += ok ? 0 : 1;
}

/// One maintenance sweep (MaybeCompact), timed into `w` and counted there.
void Compact(const Config& c, PpannsService& svc, WriteLog* w) {
  ShardedCloudServer::MaintenanceOptions maintenance;
  maintenance.compact_threshold = c.compact_threshold;
  maintenance.build_threads = c.compact_build_threads;
  const auto s = Clock::now();
  auto swept = svc.sharded_server_mutable().MaybeCompact(maintenance);
  w->compact_ms.push_back(MsSince(s, Clock::now()));
  ++w->attempted;
  if (swept.ok()) {
    w->compactions += *swept;
  } else {
    ++w->failed;
  }
}

struct OnlineOutcome {
  std::vector<double> search_ms;  ///< send order; scheduled send to completion
  std::vector<double> lag_ms;     ///< how late the generator dispatched
  WriteLog writes;
};

/// Schedule indices handed from the generator to the workers of one class.
class WorkQueue {
 public:
  void Push(std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(i);
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks for the next index; false once closed and drained.
  bool Pop(std::size_t* i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || head_ < items_.size(); });
    if (head_ == items_.size()) return false;
    *i = items_[head_++];
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> items_;
  std::size_t head_ = 0;
  bool closed_ = false;
};

/// Open loop. The calling thread is the generator: it sleeps until each
/// request's scheduled send time and hands it to a worker queue, never
/// waiting for a reply. With the generator, nproc client threads in all:
/// searches run on nproc - 1 workers (one fewer when the schedule has writes:
/// a single writer applies writes in schedule order and runs the
/// count-triggered compaction). Latency is timed from the scheduled
/// send time, so time spent queued behind busy workers counts; the
/// generator's own lateness is reported separately as lag.
OnlineOutcome RunOnlinePhase(const Config& c, const Data& d, System& sys,
                             const std::vector<QueryToken>& pool,
                             const std::vector<EncryptedVector>& inserts,
                             const std::vector<VectorId>& victims,
                             double seconds, Counts* counts) {
  TokenSource planner(c, d, sys.owner->ShareKeys(), &pool, c.seed * 37 + 5);
  const std::vector<Op> ops =
      MakeSchedule(c, planner, seconds, victims.size(), c.seed * 41 + 7);
  const bool has_writes =
      std::any_of(ops.begin(), ops.end(),
                  [](const Op& op) { return op.kind != OpKind::kSearch; });
  const std::size_t workers = std::max(2u, std::thread::hardware_concurrency()) - 1;
  const std::size_t readers =
      has_writes ? std::max<std::size_t>(workers - 1, 1) : workers;
  const SearchSettings settings{.k_prime = kKPrime};
  WriteGate gate;
  WorkQueue read_queue, write_queue;
  PpannsService& svc = sys.front();

  struct SenderLog {
    Counts counts;
  };
  std::vector<SenderLog> logs(readers);
  // Indexed by schedule position, so the sample stays in send order.
  std::vector<double> latency_ms(ops.size(), std::nan(""));
  OnlineOutcome out;
  out.writes.inserted.assign(inserts.size(), 0);

  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](const Op& op) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(op.at));
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      TokenSource source(c, d, sys.owner->ShareKeys(), &pool,
                         c.seed * 1000 + 7919 * (t + 1));
      SenderLog& log = logs[t];
      std::size_t i = 0;
      while (read_queue.Pop(&i)) {
        const Op& op = ops[i];
        bool ok = false;
        {
          QueryToken fresh;
          if (!op.pooled) fresh = source.Fresh(op.arg);
          const QueryToken& token = op.pooled ? pool[op.arg] : fresh;
          std::shared_lock<std::shared_mutex> lock(gate.mu, std::defer_lock);
          if (has_writes) {
            while (gate.pending.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
            lock.lock();
          }
          auto r = svc.Search(token, kK, settings);
          ok = r.ok() && !r->partial;
        }
        latency_ms[i] = MsSince(due(op), Clock::now());
        ++log.counts.attempted;
        log.counts.failed += ok ? 0 : 1;
      }
    });
  }

  if (has_writes) {
    threads.emplace_back([&] {
      WriteLog& w = out.writes;
      std::size_t deletes = 0;
      std::size_t i = 0;
      while (write_queue.Pop(&i)) {
        const Op& op = ops[i];
        {
          gate.pending.store(true, std::memory_order_release);
          std::unique_lock<std::shared_mutex> lock(gate.mu);
          gate.pending.store(false, std::memory_order_release);
          ApplyWrite(svc, op, inserts, victims, &w);
        }
        w.Record(op.kind, MsSince(due(op), Clock::now()));
        // Count-triggered maintenance, outside the gate: compaction swaps
        // epochs and never blocks searches; later writes queue behind it.
        if (op.kind == OpKind::kDelete && c.compact_every > 0 &&
            ++deletes % c.compact_every == 0) {
          Compact(c, svc, &w);
        }
      }
    });
  }

  // The generator.
  out.lag_ms.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto scheduled = due(ops[i]);
    std::this_thread::sleep_until(scheduled);
    out.lag_ms.push_back(MsSince(scheduled, Clock::now()));
    (ops[i].kind == OpKind::kSearch ? read_queue : write_queue).Push(i);
  }
  read_queue.Close();
  write_queue.Close();
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kSearch) out.search_ms.push_back(latency_ms[i]);
  }
  for (const SenderLog& log : logs) {
    counts->attempted += log.counts.attempted;
    counts->failed += log.counts.failed;
  }
  return out;
}

/// Closed-loop writes after the read phases (workloads whose traffic has no
/// writes): alternating inserts and deletes, then one maintenance sweep.
/// Latency is the call's own duration.
void RunWriteProbe(const Config& c, System& sys,
                   const std::vector<EncryptedVector>& inserts,
                   const std::vector<VectorId>& victims, WriteLog* w) {
  PpannsService& svc = sys.front();
  std::size_t ins = 0, del = 0;
  for (std::size_t i = 0; i < c.write_probe; ++i) {
    Op op;
    if (i % 2 == 0 && ins < inserts.size()) {
      op.kind = OpKind::kInsert;
      op.arg = ins++;
    } else if (del < victims.size()) {
      op.kind = OpKind::kDelete;
      op.arg = del++;
    } else {
      continue;
    }
    const auto s = Clock::now();
    ApplyWrite(svc, op, inserts, victims, w);
    w->Record(op.kind, MsSince(s, Clock::now()));
  }
  Compact(c, svc, w);
}

// ---- Checks -----------------------------------------------------------------

struct Checks {
  double recall = 0.0;
  std::size_t replica_mismatch = 0;
  std::vector<std::string> problems;
};

/// Exact top-k over the live set (global ids), for recall after churn.
std::vector<std::vector<Neighbor>> LiveGroundTruth(const Config& c,
                                                   const Data& d,
                                                   const WriteLog& w) {
  std::vector<char> dead(c.n, 0);
  for (VectorId id : w.deleted) dead[id] = 1;
  std::vector<VectorId> ids;
  FloatMatrix live(0, d.base.dim());
  for (std::size_t i = 0; i < c.n; ++i) {
    if (dead[i]) continue;
    live.Append(d.base.row(i));
    ids.push_back(static_cast<VectorId>(i));
  }
  for (std::size_t r = 0; r < w.inserted.size(); ++r) {
    if (w.inserted[r] == 0) continue;  // never inserted (id 0 is a base row)
    live.Append(d.extra.row(r));
    ids.push_back(w.inserted[r]);
  }
  auto gt = BruteForceKnnBatch(live, Rows(d.queries, 0, c.recall_queries), kK);
  for (auto& row : gt) {
    for (Neighbor& nb : row) nb.id = ids[nb.id];
  }
  return gt;
}

Checks RunChecks(const Config& c, const Data& d, System& sys,
                 const std::vector<QueryToken>& pool, const WriteLog& churn) {
  Checks out;
  const SearchSettings settings{.k_prime = kKPrime};
  QueryClient client(sys.owner->ShareKeys(), c.seed * 43 + 3);
  const auto gt = churn.latency_ms.empty() ? d.gt : LiveGroundTruth(c, d, churn);

  std::vector<QueryToken> tokens;
  double recall = 0.0;
  for (std::size_t i = 0; i < c.recall_queries; ++i) {
    tokens.push_back(client.EncryptQuery(d.queries.row(i)));
    auto r = sys.front().Search(tokens.back(), kK, settings);
    if (!r.ok()) {
      out.problems.push_back("recall search failed: " + r.status().ToString());
      continue;
    }
    recall += RecallAtK(r->ids, gt[i], kK);
  }
  out.recall = recall / static_cast<double>(c.recall_queries);
  if (out.recall < kRecallFloor) {
    out.problems.push_back("recall_at_10 " + std::to_string(out.recall) +
                           " below floor " + std::to_string(kRecallFloor));
  }

  const std::size_t checks = std::min(kCheckQueries, tokens.size());
  {
    // The same tokens through PP-RPC and in-process must give the same ids.
    Wire loopback;
    PpannsService& remote = RemoteFront(sys, &loopback);
    for (std::size_t i = 0; i < checks; ++i) {
      auto r = remote.Search(tokens[i], kK, settings);
      auto l = sys.local->Search(tokens[i], kK, settings);
      if (!r.ok() || !l.ok() || r->ids != l->ids) {
        out.problems.push_back("remote ids differ from in-process ids");
        break;
      }
    }
  }
  if (c.cache_capacity > 0 && !pool.empty()) {
    // Replayed pool tokens: the cached answer must equal a fresh search.
    const ShardedCloudServer& plain = sys.local->sharded_server();
    std::size_t hits = 0;
    for (std::size_t i = 0; i < std::min(checks, pool.size()); ++i) {
      auto first = sys.front().Search(pool[i], kK, settings);
      auto replay = sys.front().Search(pool[i], kK, settings);
      const SearchResult fresh = plain.Search(pool[i], kK, settings);
      if (!first.ok() || !replay.ok() || replay->ids != fresh.ids ||
          first->ids != fresh.ids) {
        out.problems.push_back("cached ids differ from uncached ids");
        break;
      }
      hits += replay->counters.cache_hit;
    }
    if (hits == 0) out.problems.push_back("no replayed token hit the cache");
  }
  if (c.replicas > 1) {
    // Reported, not gated: do the replicas of a shard still agree?
    const ShardedCloudServer& sharded = sys.local->sharded_server();
    for (std::size_t i = 0; i < checks; ++i) {
      bool differ = false;
      for (std::size_t s = 0; s < sharded.num_shards() && !differ; ++s) {
        const SearchResult a = sharded.replica(s, 0).Search(tokens[i], kK, settings);
        for (std::size_t r = 1; r < sharded.replication_factor(); ++r) {
          if (sharded.replica(s, r).Search(tokens[i], kK, settings).ids != a.ids) {
            differ = true;
            break;
          }
        }
      }
      out.replica_mismatch += differ;
    }
  }
  return out;
}

// ---- Trace ladder -----------------------------------------------------------

enum Layer : std::uint16_t {
  kEncrypt,
  kL2,
  kL2Int8,
  kDceCompare,
  kIndexScan,
  kShardFilter,
  kShardSearch,
  kShardedFilter,
  kSharded,
  kFacade,
  kCacheHit,
  kRemote,
  kServerFilter,
  kEncode,
  kDecode,
  kBatch,
  kNumLayers,
};

const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> names = {
      "crypto.encrypt_query", "linalg.l2_batch", "linalg.l2_batch_int8",
      "crypto.dce_compare", "index.scan", "core.shard_filter_only",
      "core.shard_search", "core.sharded_filter_only", "core.sharded_search",
      "core.facade_search", "core.cache_hit", "net.remote_search",
      "net.server_filter", "net.encode", "net.decode", "core.search_batch"};
  return names;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Ladder {
  SpanLog log;
  std::vector<double> nodes_visited, distance_computations, dce_comparisons;
  std::vector<double> response_bytes;
  std::size_t rows = 0, dce_pairs = 0;
  std::vector<std::size_t> batch_sizes;
};

FilterResponseMessage ToResponse(const ShardFilterResult& r) {
  FilterResponseMessage m;
  m.scanned = r.scanned ? 1 : 0;
  m.candidates = r.candidates;
  if (!r.dce.empty()) {
    m.dce_block = r.dce.front().block;
    for (const DceCiphertext& ct : r.dce) {
      m.dce_data.insert(m.dce_data.end(), ct.data.begin(), ct.data.end());
    }
  }
  return m;
}

/// The cumulative ladder over `trace_queries` sample queries: encrypt ->
/// kernels -> per-shard index scan -> CloudServer::Search ->
/// ShardedCloudServer::Search -> PpannsService::Search -> remote
/// PpannsService::Search, plus the wire encode/decode of the shard responses
/// and SearchBatch. Every call is one span; a layer's marginal cost is the
/// per-query difference between adjacent rungs.
Ladder RunLadder(const Config& c, const Data& d, System& sys) {
  Ladder L;
  SpanLog& log = L.log;
  const SearchSettings settings{.k_prime = kKPrime};
  SearchSettings filter_only = settings;
  filter_only.refine = false;
  const std::size_t nq = c.trace_queries;
  PpannsService& local = *sys.local;
  local.DisableResultCache();
  const ShardedCloudServer& sharded = local.sharded_server();
  const std::size_t shards = sharded.num_shards();

  // A loopback server for the remote rung when the workload is in-process.
  Wire loopback;
  PpannsService& remote = RemoteFront(sys, &loopback);
  remote.DisableResultCache();

  // 1. EncryptQuery.
  QueryClient client(sys.owner->ShareKeys(), c.seed * 47 + 9);
  std::vector<QueryToken> tokens(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    tokens[i] = log.Time(i, 0, kEncrypt,
                         [&] { return client.EncryptQuery(d.queries.row(i)); });
  }

  // Kernels and DCE comparisons, over shard 0's stored ciphertexts.
  const CloudServer& shard0 = sharded.replica(0, 0);
  const FloatMatrix& sap = shard0.index().data();
  const std::size_t dim = sap.dim();
  L.rows = std::min<std::size_t>(1024, sap.size());
  std::vector<const float*> rows(L.rows);
  for (std::size_t j = 0; j < L.rows; ++j) rows[j] = sap.row(j);
  Sq8Quantizer quantizer;
  quantizer.Train(RowView(sap.row(0), L.rows, dim, dim));
  std::vector<std::int8_t> codes(L.rows * dim), qcode(dim);
  std::vector<const std::int8_t*> code_rows(L.rows);
  for (std::size_t j = 0; j < L.rows; ++j) {
    quantizer.Encode(sap.row(j), codes.data() + j * dim);
    code_rows[j] = codes.data() + j * dim;
  }
  // Deleted rows keep their slot but not their DCE payload: compare live ones.
  std::vector<const DceCiphertext*> dce;
  for (const DceCiphertext& ct : shard0.dce_ciphertexts()) {
    if (!ct.data.empty()) dce.push_back(&ct);
    if (dce.size() == 128) break;
  }
  L.dce_pairs = dce.size() / 2;
  std::vector<float> dist(L.rows);
  std::vector<std::int32_t> idist(L.rows);
  double sink = 0.0;
  for (std::size_t i = 0; i < nq; ++i) {
    log.Time(i, 0, kL2, [&] {
      L2Batch(tokens[i].sap.data(), rows.data(), L.rows, dim, dist.data());
    });
    sink += dist[i % L.rows];
    quantizer.Encode(tokens[i].sap.data(), qcode.data());
    log.Time(i, 0, kL2Int8, [&] {
      L2BatchInt8(qcode.data(), code_rows.data(), L.rows, dim, idist.data());
    });
    sink += idist[i % L.rows];
    log.Time(i, 0, kDceCompare, [&] {
      for (std::size_t p = 0; p < L.dce_pairs; ++p) {
        sink += DceScheme::DistanceComp(*dce[2 * p], *dce[2 * p + 1],
                                        tokens[i].trapdoor);
      }
    });
  }

  // 2. Per-shard index scan.
  for (std::size_t i = 0; i < nq; ++i) {
    for (std::size_t s = 0; s < shards; ++s) {
      SearchContext ctx;
      const SecureFilterIndex& index = sharded.replica(s, 0).index();
      auto found = log.Time(i, s, kIndexScan, [&] {
        return index.Search(tokens[i].sap.data(), kKPrime, 0, &ctx);
      });
      sink += static_cast<double>(found.size());
      L.nodes_visited.push_back(static_cast<double>(ctx.stats.nodes_visited));
      L.distance_computations.push_back(
          static_cast<double>(ctx.stats.distance_computations));
    }
  }

  // 3. CloudServer::Search per shard, filter-only and full. Rungs whose
  // times are subtracted run back to back per query after one untimed
  // warm-up call, in alternating order, so drift and cache state fall alike
  // on both sides of the difference.
  for (std::size_t i = 0; i < nq; ++i) {
    for (std::size_t s = 0; s < shards; ++s) {
      const CloudServer& one = sharded.replica(s, 0);
      (void)one.Search(tokens[i], kK, settings);
      auto filter = [&] {
        log.Time(i, s, kShardFilter,
                 [&] { return one.Search(tokens[i], kK, filter_only); });
      };
      auto full = [&] {
        const SearchResult r = log.Time(
            i, s, kShardSearch, [&] { return one.Search(tokens[i], kK, settings); });
        L.dce_comparisons.push_back(
            static_cast<double>(r.counters.dce_comparisons));
      };
      if ((i + s) % 2 == 0) {
        filter();
        full();
      } else {
        full();
        filter();
      }
    }
  }

  // 4-6. ShardedCloudServer::Search (filter-only and full), PpannsService::
  // Search with the cache off, and the remote PpannsService::Search, in an
  // order rotated per query.
  const std::vector<std::function<void(std::size_t)>> rungs = {
      [&](std::size_t i) {
        log.Time(i, 0, kShardedFilter,
                 [&] { return sharded.Search(tokens[i], kK, filter_only); });
      },
      [&](std::size_t i) {
        log.Time(i, 0, kSharded,
                 [&] { return sharded.Search(tokens[i], kK, settings); });
      },
      [&](std::size_t i) {
        log.Time(i, 0, kFacade,
                 [&] { return local.Search(tokens[i], kK, settings); });
      },
      [&](std::size_t i) {
        log.Time(i, 0, kRemote,
                 [&] { return remote.Search(tokens[i], kK, settings); });
      },
  };
  for (std::size_t i = 0; i < nq; ++i) {
    (void)sharded.Search(tokens[i], kK, settings);
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      rungs[(i + r) % rungs.size()](i);
    }
  }

  // A cache hit: the second of two identical searches with the cache on.
  local.EnableResultCache({.capacity = std::max<std::size_t>(2 * nq, 64)});
  for (std::size_t i = 0; i < nq; ++i) {
    (void)local.Search(tokens[i], kK, settings);
    log.Time(i, 0, kCacheHit,
             [&] { return local.Search(tokens[i], kK, settings); });
  }
  local.DisableResultCache();

  // The server side of the wire: FilterShard with want_dce, and the encode /
  // decode of each shard's response frame.
  ShardFilterOptions options;
  options.k_prime = kKPrime;
  options.want_dce = true;
  for (std::size_t i = 0; i < nq; ++i) {
    double bytes = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      SearchContext ctx;
      ShardFilterResult result;
      const Status st = log.Time(i, s, kServerFilter, [&] {
        return sharded.FilterShard(s, 0, tokens[i], options, &ctx, &result);
      });
      Require(st.ok(), "FilterShard: " + st.ToString());
      const FilterResponseMessage message = ToResponse(result);
      bytes += static_cast<double>(message.ByteSize());
      BinaryWriter wire;
      log.Time(i, s, kEncode, [&] {
        BinaryWriter payload;
        message.Serialize(&payload);
        Frame frame;
        frame.type = FrameType::kFilterResponse;
        frame.request_id = i;
        frame.payload = payload.buffer();
        EncodeFrame(frame, &wire);
      });
      const std::vector<std::uint8_t>& encoded = wire.buffer();
      const bool decoded = log.Time(i, s, kDecode, [&] {
        Frame frame;
        if (!DecodeFrame(encoded.data(), encoded.size(), &frame).ok()) return false;
        BinaryReader reader(frame.payload);
        return FilterResponseMessage::Deserialize(&reader).ok();
      });
      Require(decoded, "a FilterResponse frame did not decode");
    }
    L.response_bytes.push_back(bytes);
  }

  // SearchBatch over the same tokens, cache off, a few passes so the
  // per-batch sample is not tiny.
  std::uint32_t batch_id = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t begin = 0; begin < nq; begin += c.batch_size) {
      const std::size_t len = std::min(c.batch_size, nq - begin);
      std::span<const QueryToken> batch(tokens.data() + begin, len);
      auto r = log.Time(batch_id++, 0, kBatch,
                        [&] { return local.SearchBatch(batch, kK, settings); });
      Require(r.ok(), "SearchBatch: " + r.status().ToString());
      L.batch_sizes.push_back(len);
    }
  }
  if (sink == 42.0) Log("sink");  // keeps the timed kernels observable
  return L;
}

void AddTiming(std::vector<Metric>* out, const std::string& name,
               const std::vector<double>& samples, const char* unit) {
  const Summary s = Summarize(samples);
  out->push_back({name, s.median, unit});
  out->push_back({name + ".p99", s.tail, unit});
  out->push_back({name + ".n", static_cast<double>(s.n), "count"});
}

std::vector<double> Scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

double Median(const std::vector<double>& v) { return Summarize(v).median; }

// ---- Reporting --------------------------------------------------------------

/// Keeps every CPU busy with idle-priority (SCHED_IDLE) spinners for the
/// lifetime of the object. On a virtualized host a CPU that halts between
/// requests can take up to milliseconds to resume, and that wake-up, not the
/// system under test, then dominates low-load latency; an idle-priority
/// spinner keeps the CPUs awake (like booting with idle=poll) while any
/// runnable benchmark or library thread preempts it at once.
class KeepWarm {
 public:
  KeepWarm() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned t = 0; t < cpus; ++t) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#else
          std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
        }
      });
    }
  }
  ~KeepWarm() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  KeepWarm(const KeepWarm&) = delete;
  KeepWarm& operator=(const KeepWarm&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set of this process (Linux reports ru_maxrss in KiB).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintResult(bool correct, const Counts& counts,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(counts.attempted);
  json += ", \"failed\": " + std::to_string(counts.failed);
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Config& c) {
  const KeepWarm warm;
  Log("workload %s seed %llu seconds %.1f trace %d", c.workload.c_str(),
      static_cast<unsigned long long>(c.seed), c.seconds, c.trace ? 1 : 0);
  const Data d = MakeData(c);
  Log("data ready: n=%zu dim=%zu beta=%.3f", d.base.size(), d.base.dim(),
      d.beta);

  // 1. Set-up, repeated; the last deployment serves the run.
  namespace fs = std::filesystem;
  std::vector<double> setup_s;
  System sys;
  std::string wal_dir;
  const std::size_t repeats = c.trace ? 1 : c.setup_repeats;
  for (std::size_t r = 0; r < repeats; ++r) {
    sys.Reset();  // release the previous deployment before timing anew
    if (c.wal) {
      if (!wal_dir.empty()) fs::remove_all(wal_dir);
      wal_dir = (fs::path(c.tmp_dir) / ("wal-" + std::to_string(r))).string();
    }
    const auto s = Clock::now();
    sys = SetUp(c, d, wal_dir);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - s).count());
    Log("setup %zu: %.3f s (keygen %.3f s, encrypt + index %.3f s)", r,
        setup_s.back(), sys.keygen_s, sys.encrypt_index_s);
  }

  // Client-side material prepared outside any timed path.
  QueryClient pool_client(sys.owner->ShareKeys(), c.seed * 53 + 1);
  std::vector<QueryToken> pool;
  for (std::size_t i = 0; i < c.token_pool; ++i) {
    pool.push_back(pool_client.EncryptQuery(d.queries.row(i)));
  }
  std::vector<EncryptedVector> inserts;
  for (std::size_t i = 0; i < c.insert_pool; ++i) {
    inserts.push_back(sys.owner->EncryptOne(d.extra.row(i)));
  }
  std::vector<VectorId> victims;
  {
    Rng rng(c.seed * 59 + 2);
    for (std::uint32_t v : rng.Sample(c.n, std::min<std::size_t>(c.n / 4, 4096))) {
      victims.push_back(v);
    }
  }

  Counts counts;
  const auto cache_before = c.cache_capacity > 0
                                ? sys.front().result_cache_stats()
                                : ResultCacheStats{};
  const std::size_t wal_before = c.wal ? sys.local->wal_stats().bytes : 0;

  // 2. Batch throughput, closed loop.
  const BatchOutcome batch = RunBatchPhase(c, d, sys, pool,
                                           c.seconds * kBatchShare, &counts);
  Log("batch: %.1f qps (windowed), %.1f qps overall", batch.qps,
      batch.overall_qps);

  // 3. Online latency, open loop.
  const auto online_start = Clock::now();
  OnlineOutcome online =
      RunOnlinePhase(c, d, sys, pool, inserts, victims,
                     c.seconds * (1.0 - kBatchShare), &counts);
  const double online_wall = MsSince(online_start, Clock::now()) / 1e3;
  const Summary search = SummarizeWindows(online.search_ms, kWindowSamples);
  // The gated tail is p90: on a shared host, stalls from outside the process
  // hit about 1% of requests and swing p99 by 2x between identical runs. The
  // p99s are still reported, ungated, in the traced run (tail.*).
  const Summary search_p90 =
      SummarizeWindows(online.search_ms, kWindowSamples, 64, 90.0);
  const Summary lag = Summarize(online.lag_ms);
  Log("online: %zu searches in %.2f s, p50 %.3f ms p99 %.3f ms, %zu writes "
      "p50 %.3f ms, lag p99 %.3f ms",
      search.n, online_wall, search.median, search.tail,
      online.writes.latency_ms.size(), Summarize(online.writes.latency_ms).median,
      lag.tail);
  const ResultCacheStats cache_after = c.cache_capacity > 0
                                           ? sys.front().result_cache_stats()
                                           : ResultCacheStats{};
  const std::size_t online_writes = online.writes.latency_ms.size();
  const std::size_t wal_bytes =
      c.wal ? sys.local->wal_stats().bytes - wal_before : 0;

  // 4. Checks, then the closed-loop write probe for read-only traffic.
  Checks checks = RunChecks(c, d, sys, pool, online.writes);
  WriteLog& writes = online.writes;
  if (writes.latency_ms.empty() && c.write_probe > 0) {
    std::vector<VectorId> probe_victims(victims.end() - std::min<std::size_t>(
                                                            victims.size(),
                                                            c.write_probe),
                                        victims.end());
    RunWriteProbe(c, sys, inserts, probe_victims, &writes);
  }
  counts.attempted += writes.attempted;
  counts.failed += writes.failed;
  if (lag.tail > kLagLimitMs) {
    checks.problems.push_back("open-loop generator fell behind: lag p99 " +
                              std::to_string(lag.tail) + " ms");
  }
  const bool correct = checks.problems.empty();
  for (const std::string& p : checks.problems) Log("CHECK FAILED: %s", p.c_str());

  std::vector<Metric> metrics;
  if (!c.trace) {
    QueryClient client(sys.owner->ShareKeys(), c.seed * 67 + 4);
    const std::size_t token_bytes = client.EncryptQuery(d.queries.row(0)).ByteSize();
    const double ok_frac =
        static_cast<double>(counts.attempted - counts.failed) /
        static_cast<double>(std::max<std::uint64_t>(counts.attempted, 1));
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_qps", batch.qps, "1/s"},
        {"latency_p50_ms", search.median, "ms"},
        {"latency_p90_ms", search_p90.tail, "ms"},
        {"insert_p50_ms",
         SummarizeWindows(writes.insert_ms, kWriteWindowSamples).median, "ms"},
        {"delete_p50_ms",
         SummarizeWindows(writes.delete_ms, kWriteWindowSamples).median, "ms"},
        {"user_encrypt_us",
         SummarizeWindows(batch.encrypt_us, kBatchWindowSamples).median, "us"},
        {"comm_bytes_per_query",
         static_cast<double>(token_bytes + sizeof(VectorId) * kK), "bytes"},
        {"recall_at_10", checks.recall, "ratio"},
        {"ok_frac", ok_frac, "ratio"},
        {"storage_bytes_per_vector",
         static_cast<double>(sys.local->StorageBytes()) /
             static_cast<double>(std::max<std::size_t>(sys.local->size(), 1)),
         "bytes"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    Ladder L = RunLadder(c, d, sys);
    const std::size_t nq = c.trace_queries;
    const std::size_t shards = sys.local->num_shards();
    const SpanLog& log = L.log;
    AddTiming(&metrics, "crypto.encrypt_query_us", log.All(kEncrypt), "us");
    AddTiming(&metrics, "crypto.dce_compare_ns",
              Scaled(log.All(kDceCompare), 1e3 / std::max<double>(L.dce_pairs, 1)),
              "ns");
    AddTiming(&metrics, "linalg.l2_ns_per_row",
              Scaled(log.All(kL2), 1e3 / static_cast<double>(L.rows)), "ns");
    AddTiming(&metrics, "linalg.l2_int8_ns_per_row",
              Scaled(log.All(kL2Int8), 1e3 / static_cast<double>(L.rows)),
              "ns");
    AddTiming(&metrics, "index.scan_us", log.All(kIndexScan), "us");
    AddTiming(&metrics, "core.shard_search_us", log.All(kShardSearch), "us");
    AddTiming(&metrics, "core.refine_us",
              Marginal(log.PerPart(kShardSearch, nq, shards),
                       log.PerPart(kShardFilter, nq, shards)),
              "us");
    // Sharded search minus the slowest shard's filter-only scan minus the
    // refine (sharded full minus sharded filter-only) = sharded filter-only
    // minus the slowest shard's filter-only scan.
    AddTiming(&metrics, "core.gather_self_us",
              Marginal(log.PerQuery(kShardedFilter, nq),
                       log.PerQuery(kShardFilter, nq, SpanLog::Reduce::kMax)),
              "us");
    std::vector<double> per_query_batch;
    const std::vector<double> batch_spans = log.All(kBatch);
    for (std::size_t b = 0; b < batch_spans.size(); ++b) {
      per_query_batch.push_back(batch_spans[b] /
                                static_cast<double>(L.batch_sizes[b]));
    }
    AddTiming(&metrics, "core.batch_us_per_query", per_query_batch, "us");
    AddTiming(&metrics, "core.cache_hit_us", log.All(kCacheHit), "us");
    AddTiming(&metrics, "core.facade_self_us",
              Marginal(log.PerQuery(kFacade, nq), log.PerQuery(kSharded, nq)),
              "us");
    AddTiming(&metrics, "core.insert_us", writes.insert_us, "us");
    AddTiming(&metrics, "core.delete_us", writes.delete_us, "us");
    AddTiming(&metrics, "core.compact_ms", writes.compact_ms, "ms");
    AddTiming(&metrics, "net.rpc_self_us",
              Marginal(log.PerQuery(kRemote, nq), log.PerQuery(kFacade, nq)),
              "us");
    AddTiming(&metrics, "net.server_filter_us", log.All(kServerFilter), "us");
    AddTiming(&metrics, "net.encode_us", log.All(kEncode), "us");
    AddTiming(&metrics, "net.decode_us", log.All(kDecode), "us");

    const std::uint64_t hits = cache_after.hits - cache_before.hits;
    const std::uint64_t misses = cache_after.misses - cache_before.misses;
    metrics.push_back({"index.nodes_visited", Median(L.nodes_visited), "count"});
    metrics.push_back({"index.distance_computations",
                       Median(L.distance_computations), "count"});
    metrics.push_back({"core.dce_comparisons", Median(L.dce_comparisons), "count"});
    metrics.push_back({"core.cache_hit_rate",
                       hits + misses > 0 ? static_cast<double>(hits) /
                                               static_cast<double>(hits + misses)
                                         : 0.0,
                       "ratio"});
    metrics.push_back({"core.cache_stale_evictions",
                       static_cast<double>(cache_after.stale_evictions -
                                           cache_before.stale_evictions),
                       "count"});
    metrics.push_back({"core.compactions",
                       static_cast<double>(writes.compactions), "count"});
    metrics.push_back({"core.replica_mismatch",
                       static_cast<double>(checks.replica_mismatch), "count"});
    metrics.push_back({"wal.bytes_per_write",
                       online_writes > 0 ? static_cast<double>(wal_bytes) /
                                               static_cast<double>(online_writes)
                                         : 0.0,
                       "bytes"});
    metrics.push_back({"net.response_bytes_per_query", Median(L.response_bytes),
                       "bytes"});
    metrics.push_back({"harness.gen_lag_p99_ms", lag.tail, "ms"});
    metrics.push_back({"tail.latency_p99_ms", search.tail, "ms"});
    metrics.push_back({"tail.write_p99_ms",
                       SummarizeWindows(writes.latency_ms, kWindowSamples).tail,
                       "ms"});
    metrics.push_back({"crypto.keygen_s", sys.keygen_s, "s"});
    metrics.push_back({"core.encrypt_index_s", sys.encrypt_index_s, "s"});
    if (!c.trace_out.empty() && !log.WriteCsv(c.trace_out, LayerNames())) {
      Log("could not write spans to %s", c.trace_out.c_str());
    }
  }

  PrintResult(correct, counts, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Config config = perfbench::ParseArgs(argc, argv);
  return perfbench::Run(config);
}
