// ppanns_cli — command-line front end for the PP-ANNS library.
//
// Typical flow (mirrors Fig. 1 of the paper):
//   ppanns_cli synth   --kind sift --n 20000 --out base.fvecs
//   ppanns_cli keygen  --dim 128 --beta 120 --scale 1600 --out keys.bin
//   ppanns_cli encrypt --keys keys.bin --input base.fvecs --out db.ppanns \
//                      --index hnsw
//   ppanns_cli search  --keys keys.bin --db db.ppanns --queries q.fvecs \
//                      --k 10 --kprime 80 --ef 160 --batch
//   ppanns_cli info    --db db.ppanns
//
// keys.bin is the owner/user secret (never give it to the cloud);
// db.ppanns is the outsourced package (safe to hand to the cloud).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "common/timer.h"
#include "common/wal.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/sharded_database.h"
#include "datagen/synthetic.h"
#include "index/secure_filter_index.h"
#include "net/auth.h"
#include "net/remote_shard.h"

namespace {

using namespace ppanns;

/// Minimal --flag parser; flags may appear in any order. `--key value` binds
/// the value; a `--key` followed by another flag (or by nothing — trailing
/// flags are kept, not dropped) is a boolean. Numeric accessors reject
/// malformed input with exit(2) rather than silently reading 0.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "stray argument '%s' (flags are --key [value])\n",
                     argv[i]);
        std::exit(2);
      }
      const char* key = argv[i] + 2;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  std::string GetString(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool GetBool(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return false;
    return it->second.empty() || it->second == "1" || it->second == "true";
  }
  std::size_t GetSize(const std::string& key, std::size_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (it->second.empty() || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "invalid numeric value for --%s: '%s'\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "invalid numeric value for --%s: '%s'\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    return v;
  }
  bool Require(const std::string& key) const {
    if (values_.count(key) > 0) return true;
    std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
    return false;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: ppanns_cli <command> [flags]\n"
               "  synth   --kind sift|gist|glove|deep --n N --out F.fvecs "
               "[--queries Q --qout FQ.fvecs] [--seed S]\n"
               "  keygen  --dim D --out keys.bin [--beta B] [--s S] "
               "[--scale NORM] [--seed S]\n"
               "  encrypt --keys keys.bin --input base.fvecs --out db.ppanns "
               "[--index hnsw|ivf|lsh|brute] [--shards S] [--replicas R]\n"
               "          [--build-threads B] [--m M] [--efc E] [--lists L] "
               "[--tables T] [--hashes H] [--width W] [--sq] [--sq-refine F]\n"
               "  search  --keys keys.bin --db db.ppanns --queries q.fvecs "
               "[--k K] [--kprime KP] [--ef EF]\n"
               "          [--batch] [--hedge-ms MS] [--deadline-ms MS] "
               "[--admission-ms MS] [--index KIND] [--out results.txt]\n"
               "          [--connect HOST:PORT,...] [--pool-size P] "
               "[--auth-key-file F] [--down S:R,...] [--json F.json]\n"
               "          [--cache N] [--repeat R] [--repeat-delay-ms MS] "
               "[--wal-dir DIR [--replay]] [--compact-threshold T]\n"
               "  mutate  --keys keys.bin (--db db.ppanns --out db2.ppanns | "
               "--connect HOST:PORT,...)\n"
               "          [--insert F.fvecs] [--delete ID,...] "
               "[--compact-threshold T] [--pool-size P] [--auth-key-file F]\n"
               "  info    --db db.ppanns [--wal-dir DIR]\n"
               "  info    --connect HOST:PORT,... [--json] [--pool-size P] "
               "[--auth-key-file F]\n"
               "search serves from --db in-process, or — with --connect — "
               "acts as the\ngather node over ppanns_shard_server endpoints "
               "(--db is then unused).\n"
               "--wal-dir --replay re-applies a crashed process's surviving "
               "log before\nserving; --compact-threshold runs one tombstone-"
               "compaction sweep first.\n"
               "mutate applies inserts/deletes/compaction to a local package "
               "(rewritten\nto --out) or broadcasts them to every --connect "
               "endpoint; info --connect\nsnapshots each endpoint's state "
               "version, tombstones, WAL and pool health.\n"
               "--auth-key-file holds the shared HMAC key a keyed "
               "ppanns_shard_server\nexpects during its challenge-response "
               "handshake.\n");
  return 2;
}

int CmdSynth(const Args& args) {
  if (!args.Require("kind") || !args.Require("n") || !args.Require("out")) return 2;
  const std::string kind_name = args.GetString("kind");
  SyntheticKind kind;
  if (kind_name == "sift") {
    kind = SyntheticKind::kSiftLike;
  } else if (kind_name == "gist") {
    kind = SyntheticKind::kGistLike;
  } else if (kind_name == "glove") {
    kind = SyntheticKind::kGloveLike;
  } else if (kind_name == "deep") {
    kind = SyntheticKind::kDeepLike;
  } else {
    std::fprintf(stderr, "unknown kind '%s'\n", kind_name.c_str());
    return 2;
  }
  const std::size_t n = args.GetSize("n", 1000);
  const std::size_t nq = args.GetSize("queries", 0);
  Dataset ds = MakeDataset(kind, n, nq, 0, args.GetSize("seed", 42));
  Status st = WriteFvecs(args.GetString("out"), ds.base);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu x %zu base vectors to %s\n", ds.base.size(),
              ds.base.dim(), args.GetString("out").c_str());
  if (nq > 0) {
    const std::string qout = args.GetString("qout", "queries.fvecs");
    st = WriteFvecs(qout, ds.queries);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu query vectors to %s\n", ds.queries.size(), qout.c_str());
  }
  return 0;
}

int CmdKeygen(const Args& args) {
  if (!args.Require("dim") || !args.Require("out")) return 2;
  const std::size_t dim = args.GetSize("dim", 0);
  Rng rng(args.GetSize("seed", 0xC0FFEE));
  auto dce = DceScheme::KeyGen(dim, rng, args.GetDouble("scale", 1.0));
  auto dcpe = DcpeScheme::Create(dim, args.GetDouble("s", 1024.0),
                                 args.GetDouble("beta", 0.0));
  if (!dce.ok() || !dcpe.ok()) {
    std::fprintf(stderr, "keygen failed: %s\n",
                 (!dce.ok() ? dce.status() : dcpe.status()).ToString().c_str());
    return 1;
  }
  SecretKeys keys(std::move(*dce), std::move(*dcpe));
  BinaryWriter w;
  SerializeSecretKeys(keys, &w);
  Status st = WriteFile(args.GetString("out"), w.buffer());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote secret keys (dim=%zu, beta=%.3f) to %s — keep off the "
              "cloud\n", dim, args.GetDouble("beta", 0.0),
              args.GetString("out").c_str());
  return 0;
}

Result<SecretKeysPtr> LoadKeys(const std::string& path) {
  auto blob = ReadFile(path);
  if (!blob.ok()) return blob.status();
  BinaryReader r(*blob);
  return DeserializeSecretKeys(&r);
}

int CmdEncrypt(const Args& args) {
  if (!args.Require("keys") || !args.Require("input") || !args.Require("out")) return 2;
  auto keys = LoadKeys(args.GetString("keys"));
  if (!keys.ok()) {
    std::fprintf(stderr, "keys: %s\n", keys.status().ToString().c_str());
    return 1;
  }
  auto data = ReadFvecs(args.GetString("input"));
  if (!data.ok()) {
    std::fprintf(stderr, "input: %s\n", data.status().ToString().c_str());
    return 1;
  }
  if (data->dim() != (*keys)->dce.dim()) {
    std::fprintf(stderr, "dimension mismatch: keys=%zu data=%zu\n",
                 (*keys)->dce.dim(), data->dim());
    return 1;
  }

  // Build the outsourced package: DCPE+DCE layers + the chosen filter index
  // over the SAP side. The backend kind is serialized with the database.
  auto kind = ParseIndexKind(args.GetString("index", "hnsw"));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  const std::uint64_t seed = args.GetSize("seed", 7);
  const std::size_t num_shards = args.GetSize("shards", 1);
  const std::size_t num_replicas = args.GetSize("replicas", 1);
  PpannsParams params;
  params.dcpe_s = (*keys)->dcpe.key().s;
  params.index_kind = *kind;
  params.hnsw = HnswParams{.m = args.GetSize("m", 16),
                           .ef_construction = args.GetSize("efc", 200),
                           .seed = seed};
  params.ivf.num_lists = args.GetSize("lists", 64);
  params.lsh.num_tables = args.GetSize("tables", 8);
  params.lsh.num_hashes = args.GetSize("hashes", 8);
  params.lsh.bucket_width = args.GetDouble("width", 4.0);  // plaintext units
  // --sq enables the int8 scalar-quantized filter tier on the flat backends
  // (ivf, brute): scans run over a one-byte code mirror and an oversampled
  // shortlist is re-ranked exactly. Bumps the backend's serialized version.
  params.sq.enabled = args.GetBool("sq");
  params.sq.refine_factor = args.GetSize("sq-refine", params.sq.refine_factor);
  params.num_shards = static_cast<std::uint32_t>(num_shards);
  params.num_replicas = static_cast<std::uint32_t>(num_replicas);
  // Intra-shard parallel HNSW build: a sharded encrypt uses up to
  // shards x build-threads cores. 1 (default) keeps the byte-deterministic
  // sequential graph build.
  const std::size_t build_threads = args.GetSize("build-threads", 1);
  params.build_threads = static_cast<std::uint32_t>(build_threads > 0 ? build_threads : 1);
  params.seed = seed;

  auto owner = DataOwner::FromKeys(*keys, data->dim(), params);
  if (!owner.ok()) {
    std::fprintf(stderr, "%s\n", owner.status().ToString().c_str());
    return 1;
  }

  BinaryWriter w;
  Timer t;
  if (num_shards > 1 || num_replicas > 1) {
    // Sharded package: per-shard graphs build in parallel on the pool;
    // replication needs the sharded envelope even at one shard.
    ShardedEncryptedDatabase db = owner->EncryptAndIndexSharded(*data);
    db.Serialize(&w);
  } else {
    EncryptedDatabase db = owner->EncryptAndIndex(*data);
    db.Serialize(&w);
  }
  const double secs = t.ElapsedSeconds();
  Status st = WriteFile(args.GetString("out"), w.buffer());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("encrypted + indexed %zu vectors (%s, %zu shard%s x %zu "
              "replica%s) in %.1fs -> %s (%.1f MB)\n",
              data->size(), IndexKindName(*kind), num_shards,
              num_shards == 1 ? "" : "s", num_replicas,
              num_replicas == 1 ? "" : "s", secs,
              args.GetString("out").c_str(), w.buffer().size() / 1e6);
  return 0;
}

/// Loads either on-disk format behind the serving facade: a single-index
/// package is read as the 1x1 sharded package it is.
Result<PpannsService> LoadService(const std::vector<std::uint8_t>& blob) {
  BinaryReader r(blob);
  auto db = ShardedEncryptedDatabase::Deserialize(&r);
  if (!db.ok()) return db.status();
  return PpannsService{ShardedCloudServer(std::move(*db))};
}

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// `--auth-key-file F`: loads the shared HMAC key a keyed shard server
/// expects. Only meaningful with --connect (a local package has no
/// handshake). Returns 0 on success, an exit code otherwise.
int LoadConnectAuthKey(const Args& args, bool have_connect,
                       std::vector<std::uint8_t>* key) {
  const std::string path = args.GetString("auth-key-file");
  if (path.empty()) return 0;
  if (!have_connect) {
    std::fprintf(stderr, "--auth-key-file requires --connect\n");
    return 2;
  }
  auto loaded = LoadAuthKey(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "auth key: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  *key = std::move(*loaded);
  return 0;
}

int CmdSearch(const Args& args) {
  const std::string connect = args.GetString("connect");
  if (!args.Require("keys") || !args.Require("queries")) return 2;
  if (connect.empty() && !args.Require("db")) return 2;
  auto keys = LoadKeys(args.GetString("keys"));
  if (!keys.ok()) {
    std::fprintf(stderr, "keys: %s\n", keys.status().ToString().c_str());
    return 1;
  }
  // --pool-size P opens P TCP streams per --connect endpoint; calls ride
  // the least-loaded stream, so concurrent scatters stop serializing their
  // response bytes behind one socket.
  const std::size_t pool_size = args.GetSize("pool-size", 1);
  if (pool_size != 1 && connect.empty()) {
    std::fprintf(stderr, "--pool-size requires --connect\n");
    return 2;
  }
  std::vector<std::uint8_t> auth_key;
  if (int rc = LoadConnectAuthKey(args, !connect.empty(), &auth_key); rc != 0) {
    return rc;
  }
  // --connect makes this process the gather node of a distributed topology:
  // every endpoint is a ppanns_shard_server and the filter phase crosses the
  // wire. Without it the package is loaded and served in-process. The
  // connected pools self-heal: health pings flip down flags and dead
  // streams are re-dialed with backoff, so a bounced server rejoins
  // mid-run without a gather restart.
  auto service_or = [&]() -> Result<PpannsService> {
    if (!connect.empty()) {
      ConnectOptions copts;
      copts.pool_size = pool_size;
      copts.auth_key = auth_key;
      copts.health_interval_ms = 200;
      auto cluster = ConnectCluster(SplitComma(connect), copts);
      if (!cluster.ok()) return cluster.status();
      return PpannsService{std::move(cluster->server)};
    }
    auto blob = ReadFile(args.GetString("db"));
    if (!blob.ok()) return blob.status();
    return LoadService(*blob);
  }();
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s: %s\n", connect.empty() ? "db" : "connect",
                 service_or.status().ToString().c_str());
    return 1;
  }
  PpannsService service = std::move(*service_or);

  // --cache N serves repeated trapdoors from an N-entry result cache keyed
  // on the token bytes + search settings; entries are invalidated on any
  // mutation, so answers stay id-identical to a fresh search. Trapdoor
  // encryption is randomized — only a literally re-presented token hits,
  // which is what --repeat demonstrates (pass 2+ replays pass 1's tokens).
  const std::size_t cache_capacity = args.GetSize("cache", 0);
  if (cache_capacity > 0) {
    service.EnableResultCache({.capacity = cache_capacity});
  }

  // --down S:R,... marks gather-side replicas down before any query runs —
  // the failover/hedging machinery then routes around them, in-process and
  // remote alike (failover is a gather-node decision).
  const std::string down = args.GetString("down");
  if (!down.empty()) {
    for (const std::string& item : SplitComma(down)) {
      std::size_t s = 0, r = 0;
      if (std::sscanf(item.c_str(), "%zu:%zu", &s, &r) != 2 ||
          s >= service.num_shards() || r >= service.num_replicas()) {
        std::fprintf(stderr, "--down: bad replica '%s'\n", item.c_str());
        return 2;
      }
      service.sharded_server_mutable().SetReplicaDown(s, r, true);
    }
  }

  // --wal-dir [--replay]: crash recovery before serving. --replay applies
  // the surviving log records against the loaded package (last checkpoint +
  // log = the crashed process's state); attaching afterwards means any
  // future mutation through this process is logged too. Both are in-process
  // concerns — a --connect gather node's mutations live on the shard
  // servers.
  const std::string wal_dir = args.GetString("wal-dir");
  if (args.GetBool("replay") && wal_dir.empty()) {
    std::fprintf(stderr, "--replay requires --wal-dir\n");
    return 2;
  }
  if (!wal_dir.empty()) {
    if (!connect.empty()) {
      std::fprintf(stderr, "--wal-dir does not apply to a --connect gather "
                   "node\n");
      return 2;
    }
    if (args.GetBool("replay")) {
      auto replayed = service.ReplayWal(wal_dir);
      if (!replayed.ok()) {
        std::fprintf(stderr, "replay: %s\n",
                     replayed.status().ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "replayed %zu WAL record(s) from %s\n", *replayed,
                   wal_dir.c_str());
    }
    Status st = service.AttachWal(wal_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "wal: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // --compact-threshold T: one synchronous compaction sweep before serving —
  // every shard whose tombstone ratio exceeds T is rebuilt without its dead
  // rows (searches concurrent with the sweep would keep serving the old
  // graphs; here it simply runs before the first query).
  const double compact_threshold = args.GetDouble("compact-threshold", -1.0);
  if (compact_threshold >= 0.0) {
    if (!connect.empty()) {
      std::fprintf(stderr, "--compact-threshold requires a local --db "
                   "package\n");
      return 2;
    }
    ShardedCloudServer::MaintenanceOptions mopts;
    mopts.compact_threshold = compact_threshold;
    auto ops = service.sharded_server_mutable().MaybeCompact(mopts);
    if (!ops.ok()) {
      std::fprintf(stderr, "compact: %s\n", ops.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "compaction sweep at threshold %.2f: %zu shard(s) "
                 "rebuilt\n", compact_threshold, *ops);
  }

  auto queries = ReadFvecs(args.GetString("queries"));
  if (!queries.ok()) {
    std::fprintf(stderr, "queries: %s\n", queries.status().ToString().c_str());
    return 1;
  }
  // Validate before encrypting: QueryClient reads keys->dim() floats per row.
  if (queries->dim() != (*keys)->dce.dim()) {
    std::fprintf(stderr, "dimension mismatch: keys=%zu queries=%zu\n",
                 (*keys)->dce.dim(), queries->dim());
    return 1;
  }

  // --index on search is an assertion: fail fast if the package was built
  // with a different backend than the caller expects.
  const std::string want_kind = args.GetString("index");
  if (!want_kind.empty()) {
    auto kind = ParseIndexKind(want_kind);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    if (*kind != service.index_kind()) {
      std::fprintf(stderr, "database is backed by '%s', not '%s'\n",
                   IndexKindName(service.index_kind()), want_kind.c_str());
      return 1;
    }
  }

  QueryClient client(*keys, args.GetSize("seed", 99));
  const std::size_t k = args.GetSize("k", 10);
  SearchSettings settings{.k_prime = args.GetSize("kprime", 4 * k),
                          .ef_search = args.GetSize("ef", 0),
                          // --deadline-ms bounds every query's wall time;
                          // an expired deadline comes back as a
                          // DEADLINE_EXCEEDED error, not truncated ids.
                          .deadline_ms = args.GetDouble("deadline-ms", 0.0),
                          // --admission-ms sheds queries whose remaining
                          // deadline budget is below the floor with
                          // RESOURCE_EXHAUSTED before any shard work starts.
                          .admission_ms = args.GetDouble("admission-ms", 0.0)};
  // --hedge-ms switches serving to the hedged path: work items missing the
  // deadline are re-dispatched onto the shard's next-best replica. Applies
  // to per-query serving and, since the hedged batch scatter, to --batch.
  const double hedge_ms = args.GetDouble("hedge-ms", 0.0);
  AsyncOptions async{.hedge_ms = hedge_ms};

  std::FILE* out = stdout;
  const std::string out_path = args.GetString("out");
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
  }

  auto print_result = [out](std::size_t i, const SearchResult& result) {
    std::fprintf(out, "query %zu:", i);
    for (VectorId id : result.ids) std::fprintf(out, " %u", id);
    std::fprintf(out, "\n");
  };

  // --repeat R serves the whole query file R times; every pass past the
  // first replays pass 1's exact tokens, so with --cache on it measures the
  // cache's hit path (ids are printed once — repeats are id-identical by
  // the cache contract).
  const std::size_t repeat = std::max<std::size_t>(args.GetSize("repeat", 1), 1);
  // --repeat-delay-ms pauses between passes — the window the kill/restart
  // smoke leg uses to bounce a shard server mid-run and watch the pool
  // re-dial it before the next pass.
  const std::size_t repeat_delay_ms = args.GetSize("repeat-delay-ms", 0);
  auto pass_delay = [repeat_delay_ms](std::size_t rep) {
    if (rep > 0 && repeat_delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(repeat_delay_ms));
    }
  };
  int exit_code = 0;
  Timer t;
  if (args.GetBool("batch")) {
    // One validated batch call per pass, fanned across the thread pool; with
    // --hedge-ms the (query, shard) work items go through the hedged
    // claim-flag scatter (identical ids, lower tail latency).
    std::vector<QueryToken> tokens;
    tokens.reserve(queries->size());
    for (std::size_t i = 0; i < queries->size(); ++i) {
      tokens.push_back(client.EncryptQuery(queries->row(i)));
    }
    for (std::size_t rep = 0; rep < repeat && exit_code == 0; ++rep) {
      pass_delay(rep);
      auto batch = hedge_ms > 0.0
                       ? service.SearchBatch(tokens, k, settings, async)
                       : service.SearchBatch(tokens, k, settings);
      if (!batch.ok()) {
        std::fprintf(stderr, "search: %s\n", batch.status().ToString().c_str());
        exit_code = 1;
      } else {
        if (rep == 0) {
          for (std::size_t i = 0; i < batch->results.size(); ++i) {
            print_result(i, batch->results[i]);
          }
        }
        std::fprintf(stderr,
                     "batch: %zu queries over %zu shard(s) x %zu replica(s), "
                     "%.3fs wall "
                     "(%.1f QPS), %zu filter candidates, %zu DCE comparisons, "
                     "%zu nodes visited, %zu distance computations, %zu "
                     "hedged, %zu cache hit(s)\n",
                     batch->counters.num_queries, service.num_shards(),
                     service.num_replicas(),
                     batch->counters.wall_seconds,
                     batch->counters.num_queries / batch->counters.wall_seconds,
                     batch->counters.total.filter_candidates,
                     batch->counters.total.dce_comparisons,
                     batch->counters.total.nodes_visited,
                     batch->counters.total.distance_computations,
                     batch->counters.total.hedged_requests,
                     batch->counters.cache_hits);
      }
    }
  } else {
    std::size_t hedged = 0;
    // Hedge losers' scored rows, read as a delta of the server's lifetime
    // counter (which also catches losers finishing after their query).
    const std::size_t wasted_before =
        service.sharded_server().CancelledWorkNodes();
    std::vector<double> latencies_ms;
    latencies_ms.reserve(queries->size() * repeat);
    std::vector<QueryToken> tokens;
    tokens.reserve(queries->size());
    // Pass 1's ids, kept so later passes can be verified against them —
    // repeats are an id-equality gate, not just a latency loop. The smoke
    // script leans on this: a pass served while a bounced server is still
    // being re-dialed would come back partial or diverged and fail here.
    std::vector<std::vector<VectorId>> first_pass_ids;
    first_pass_ids.reserve(queries->size());
    for (std::size_t rep = 0; rep < repeat && exit_code == 0; ++rep) {
      pass_delay(rep);
      for (std::size_t i = 0; i < queries->size(); ++i) {
        if (rep == 0) tokens.push_back(client.EncryptQuery(queries->row(i)));
        Timer per_query;
        auto result = hedge_ms > 0.0
                          ? service.SearchAsync(tokens[i], k, settings, async)
                          : service.Search(tokens[i], k, settings);
        latencies_ms.push_back(per_query.ElapsedSeconds() * 1e3);
        if (!result.ok()) {
          std::fprintf(stderr, "search: %s\n",
                       result.status().ToString().c_str());
          exit_code = 1;
          break;
        }
        hedged += result->counters.hedged_requests;
        if (rep > 0) {  // repeats: collect latency + verify, skip the output
          if (result->partial) {
            std::fprintf(stderr, "repeat: pass %zu query %zu came back "
                         "PARTIAL (a shard had no live replica)\n", rep + 1, i);
            exit_code = 1;
            break;
          }
          if (result->ids != first_pass_ids[i]) {
            std::fprintf(stderr, "repeat: pass %zu query %zu ids diverged "
                         "from pass 1\n", rep + 1, i);
            exit_code = 1;
            break;
          }
          continue;
        }
        first_pass_ids.push_back(result->ids);
        if (result->partial) {
          std::fprintf(stderr, "query %zu: PARTIAL result (a shard had no "
                       "live replica)\n", i);
        }
        // The per-query SearchStats line: what the query actually cost.
        const SearchCounters& c = result->counters;
        std::fprintf(stderr,
                     "query %zu stats: %zu nodes visited, %zu distance "
                     "computations, %zu DCE comparisons, exit=%s\n",
                     i, c.nodes_visited, c.distance_computations,
                     c.dce_comparisons, EarlyExitName(c.early_exit));
        print_result(i, *result);
      }
    }
    const double secs = t.ElapsedSeconds();
    if (exit_code == 0) {
      std::fprintf(stderr, "%zu queries in %.3fs (%.1f QPS incl. client-side "
                   "encryption)\n", queries->size() * repeat, secs,
                   queries->size() * repeat / secs);
      if (hedge_ms > 0.0) {
        std::fprintf(stderr, "async: hedge deadline %.1f ms, %zu hedged "
                     "request(s)\n", hedge_ms, hedged);
      }
    }
    // --json: the fig11-style latency artifact (works identically in-process
    // and over --connect, which is exactly what the multi-process smoke run
    // diffs).
    const std::string json_path = args.GetString("json");
    if (exit_code == 0 && !json_path.empty()) {
      std::vector<double> sorted = latencies_ms;
      std::sort(sorted.begin(), sorted.end());
      auto pct = [&sorted](double p) {
        if (sorted.empty()) return 0.0;
        const std::size_t idx = static_cast<std::size_t>(
            p * static_cast<double>(sorted.size() - 1) + 0.5);
        return sorted[std::min(idx, sorted.size() - 1)];
      };
      std::FILE* jf = std::fopen(json_path.c_str(), "w");
      if (jf == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        exit_code = 1;
      } else {
        const ResultCacheStats cache_stats =
            service.result_cache_enabled() ? service.result_cache_stats()
                                           : ResultCacheStats{};
        std::fprintf(jf,
                     "{\n  \"mode\": \"%s\",\n  \"hedge_ms\": %.3f,\n"
                     "  \"queries\": %zu,\n  \"repeat\": %zu,\n"
                     "  \"p50_ms\": %.3f,\n"
                     "  \"p99_ms\": %.3f,\n  \"hedged_requests\": %zu,\n"
                     "  \"hedge_wasted_nodes\": %zu,\n"
                     "  \"cache_hits\": %zu,\n  \"cache_misses\": %zu,\n"
                     "  \"latencies_ms\": [",
                     connect.empty() ? "local" : "remote", hedge_ms,
                     latencies_ms.size(), repeat, pct(0.50), pct(0.99),
                     hedged,
                     service.sharded_server().CancelledWorkNodes() -
                         wasted_before,
                     cache_stats.hits,
                     cache_stats.misses);
        for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
          std::fprintf(jf, "%s%.3f", i == 0 ? "" : ", ", latencies_ms[i]);
        }
        std::fprintf(jf, "]\n}\n");
        std::fclose(jf);
      }
    }
  }
  // The serving-cache summary: what fraction of the run was replayed.
  if (exit_code == 0 && service.result_cache_enabled()) {
    const ResultCacheStats cs = service.result_cache_stats();
    std::fprintf(stderr,
                 "cache: %zu hit(s) / %zu miss(es), %zu entr(ies) of %zu, "
                 "%zu eviction(s), %zu stale\n",
                 cs.hits, cs.misses, cs.entries, cache_capacity, cs.evictions,
                 cs.stale_evictions);
  }
  if (out != stdout) std::fclose(out);
  return exit_code;
}

/// `mutate` — the owner-side mutation front end. --insert rows are
/// encrypted with the secret keys before anything leaves this process (the
/// cloud never sees plaintext); deletes and the optional compaction sweep
/// follow. Against --db the mutated package is rewritten to --out; against
/// --connect every mutation broadcasts to all endpoints through the v2
/// mutation frames, keeping their full-package replicas byte-identical.
int CmdMutate(const Args& args) {
  const std::string connect = args.GetString("connect");
  if (!args.Require("keys")) return 2;
  if (connect.empty() && (!args.Require("db") || !args.Require("out"))) {
    return 2;
  }
  if (!connect.empty() && !args.GetString("out").empty()) {
    std::fprintf(stderr, "--out applies to a local --db package; a --connect "
                 "mutation persists on the shard servers (see their "
                 "--wal-dir)\n");
    return 2;
  }
  auto keys = LoadKeys(args.GetString("keys"));
  if (!keys.ok()) {
    std::fprintf(stderr, "keys: %s\n", keys.status().ToString().c_str());
    return 1;
  }
  const std::size_t pool_size = args.GetSize("pool-size", 1);
  std::vector<std::uint8_t> auth_key;
  if (int rc = LoadConnectAuthKey(args, !connect.empty(), &auth_key); rc != 0) {
    return rc;
  }
  auto service_or = [&]() -> Result<PpannsService> {
    if (!connect.empty()) {
      ConnectOptions copts;
      copts.pool_size = pool_size;
      copts.auth_key = auth_key;
      auto cluster = ConnectCluster(SplitComma(connect), copts);
      if (!cluster.ok()) return cluster.status();
      return PpannsService{std::move(cluster->server)};
    }
    auto blob = ReadFile(args.GetString("db"));
    if (!blob.ok()) return blob.status();
    return LoadService(*blob);
  }();
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s: %s\n", connect.empty() ? "db" : "connect",
                 service_or.status().ToString().c_str());
    return 1;
  }
  PpannsService service = std::move(*service_or);

  std::size_t inserted = 0;
  const std::string insert_path = args.GetString("insert");
  if (!insert_path.empty()) {
    auto rows = ReadFvecs(insert_path);
    if (!rows.ok()) {
      std::fprintf(stderr, "insert: %s\n", rows.status().ToString().c_str());
      return 1;
    }
    if (rows->dim() != (*keys)->dce.dim()) {
      std::fprintf(stderr, "dimension mismatch: keys=%zu insert=%zu\n",
                   (*keys)->dce.dim(), rows->dim());
      return 1;
    }
    PpannsParams params;
    params.dcpe_s = (*keys)->dcpe.key().s;
    auto owner = DataOwner::FromKeys(*keys, rows->dim(), params);
    if (!owner.ok()) {
      std::fprintf(stderr, "%s\n", owner.status().ToString().c_str());
      return 1;
    }
    for (std::size_t i = 0; i < rows->size(); ++i) {
      auto id = service.Insert(owner->EncryptOne(rows->row(i)));
      if (!id.ok()) {
        std::fprintf(stderr, "insert row %zu: %s\n", i,
                     id.status().ToString().c_str());
        return 1;
      }
      ++inserted;
    }
  }

  std::size_t deleted = 0;
  for (const std::string& item : SplitComma(args.GetString("delete"))) {
    char* end = nullptr;
    const unsigned long long id = std::strtoull(item.c_str(), &end, 10);
    if (item.empty() || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "--delete: bad id '%s'\n", item.c_str());
      return 2;
    }
    Status st = service.Delete(static_cast<VectorId>(id));
    if (!st.ok()) {
      std::fprintf(stderr, "delete %llu: %s\n", id, st.ToString().c_str());
      return 1;
    }
    ++deleted;
  }

  std::size_t compacted = 0;
  const double compact_threshold = args.GetDouble("compact-threshold", -1.0);
  if (compact_threshold >= 0.0) {
    ShardedCloudServer::MaintenanceOptions mopts;
    mopts.compact_threshold = compact_threshold;
    auto ops = service.sharded_server_mutable().MaybeCompact(mopts);
    if (!ops.ok()) {
      std::fprintf(stderr, "compact: %s\n", ops.status().ToString().c_str());
      return 1;
    }
    compacted = *ops;
  }

  if (connect.empty()) {
    BinaryWriter w;
    service.SerializeDatabase(&w);
    Status st = WriteFile(args.GetString("out"), w.buffer());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  const std::uint64_t state_version = service.sharded_server().state_version();
  std::printf("mutate: %zu inserted, %zu deleted, %zu shard(s) compacted — "
              "%zu vectors live, state version %llu%s%s\n",
              inserted, deleted, compacted, service.size(),
              static_cast<unsigned long long>(state_version),
              connect.empty() ? ", wrote " : "",
              connect.empty() ? args.GetString("out").c_str() : "");
  return 0;
}

/// `info --connect` — the remote observability surface: one InfoRequest per
/// endpoint (state version, live/deleted counts, WAL, per-shard tombstones)
/// plus the client-side pool health, as text or (--json) a machine-readable
/// document for the smoke scripts.
int CmdInfoConnect(const Args& args, const std::string& connect) {
  std::vector<std::uint8_t> auth_key;
  if (int rc = LoadConnectAuthKey(args, true, &auth_key); rc != 0) return rc;
  ConnectOptions copts;
  copts.pool_size = args.GetSize("pool-size", 1);
  copts.auth_key = auth_key;
  auto cluster = ConnectCluster(SplitComma(connect), copts);
  if (!cluster.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 cluster.status().ToString().c_str());
    return 1;
  }
  const bool json = args.GetBool("json");
  if (json) {
    std::printf("{\n  \"endpoints\": [");
  } else {
    std::printf("remote cluster: %zu endpoint(s), %zu shard(s) x %zu "
                "replica(s), state version %llu\n",
                cluster->endpoints.size(), cluster->server.num_shards(),
                cluster->server.replication_factor(),
                static_cast<unsigned long long>(
                    cluster->server.state_version()));
  }
  for (std::size_t e = 0; e < cluster->pools.size(); ++e) {
    const auto& pool = cluster->pools[e];
    RemoteMutationClient client(pool);
    auto info = client.Info();
    if (!info.ok()) {
      std::fprintf(stderr, "info: endpoint %s: %s\n", pool->endpoint().c_str(),
                   info.status().ToString().c_str());
      return 1;
    }
    if (json) {
      std::printf("%s\n    {\"endpoint\": \"%s\", \"protocol_version\": %u, "
                  "\"pool_live_streams\": %zu, \"pool_size\": %zu, "
                  "\"state_version\": %llu, \"size\": %llu, \"capacity\": "
                  "%llu, \"storage_bytes\": %llu, \"wal_attached\": %s, "
                  "\"wal_segments\": %llu, \"wal_bytes\": %llu, \"shards\": [",
                  e == 0 ? "" : ",", pool->endpoint().c_str(),
                  pool->server_info().version, pool->live_streams(),
                  pool->size(),
                  static_cast<unsigned long long>(info->state_version),
                  static_cast<unsigned long long>(info->size),
                  static_cast<unsigned long long>(info->capacity),
                  static_cast<unsigned long long>(info->storage_bytes),
                  info->wal_attached != 0 ? "true" : "false",
                  static_cast<unsigned long long>(info->wal_segments),
                  static_cast<unsigned long long>(info->wal_bytes));
      for (std::size_t s = 0; s < info->served_shards.size(); ++s) {
        std::printf("%s{\"shard\": %u, \"tombstone_ratio\": %.6f, "
                    "\"last_compaction_epoch\": %llu}",
                    s == 0 ? "" : ", ", info->served_shards[s],
                    info->tombstone_ratios[s],
                    static_cast<unsigned long long>(
                        info->compaction_epochs[s]));
      }
      std::printf("]}");
    } else {
      std::printf("endpoint %s: protocol v%u, pool %zu/%zu stream(s) live\n",
                  pool->endpoint().c_str(), pool->server_info().version,
                  pool->live_streams(), pool->size());
      std::printf("  state version:  %llu\n",
                  static_cast<unsigned long long>(info->state_version));
      std::printf("  vectors:        %llu live (%llu deleted)\n",
                  static_cast<unsigned long long>(info->size),
                  static_cast<unsigned long long>(info->capacity -
                                                  info->size));
      std::printf("  storage:        %.1f MB\n", info->storage_bytes / 1e6);
      if (info->wal_attached != 0) {
        std::printf("  WAL:            attached, %llu segment(s), %llu "
                    "bytes\n",
                    static_cast<unsigned long long>(info->wal_segments),
                    static_cast<unsigned long long>(info->wal_bytes));
      } else {
        std::printf("  WAL:            not attached\n");
      }
      for (std::size_t s = 0; s < info->served_shards.size(); ++s) {
        std::printf("  shard %u: tombstones %.1f%% (last compaction epoch "
                    "%llu)\n",
                    info->served_shards[s], 100.0 * info->tombstone_ratios[s],
                    static_cast<unsigned long long>(
                        info->compaction_epochs[s]));
      }
    }
  }
  if (json) {
    std::printf("\n  ],\n  \"state_version\": %llu\n}\n",
                static_cast<unsigned long long>(
                    cluster->server.state_version()));
  }
  return 0;
}

void PrintIndexInfo(const SecureFilterIndex& index, double dce_mb,
                    const char* pad) {
  std::printf("%sindex backend:  %s\n", pad, IndexKindName(index.kind()));
  std::printf("%svectors:        %zu live (%zu deleted)\n", pad, index.size(),
              index.capacity() - index.size());
  std::printf("%sdimension:      %zu\n", pad, index.dim());
  if (const HnswIndex* hnsw = index.AsHnsw()) {
    const HnswStats stats = hnsw->ComputeStats();
    std::printf("%sgraph:          m=%zu efc=%zu, max level %d, avg degree "
                "%.1f\n", pad, hnsw->params().m, hnsw->params().ef_construction,
                stats.max_level, stats.avg_out_degree_level0);
  }
  std::printf("%sSAP layer:      %.1f MB\n", pad,
              index.data().data().size() * sizeof(float) / 1e6);
  std::printf("%sindex total:    %.1f MB\n", pad, index.StorageBytes() / 1e6);
  std::printf("%sDCE layer:      %.1f MB\n", pad, dce_mb);
}

/// `info --wal-dir`: the log-side observability surface — segment count,
/// byte total and the lsn the next append would get, read without opening a
/// writer (safe while another process owns the log).
void PrintWalInfo(const std::string& wal_dir) {
  if (wal_dir.empty()) return;
  auto stats = ReadWalStats(wal_dir);
  if (!stats.ok()) {
    std::fprintf(stderr, "wal: %s\n", stats.status().ToString().c_str());
    return;
  }
  std::printf("  WAL:            %zu segment(s), %zu bytes, next lsn %llu\n",
              stats->segments, stats->bytes,
              static_cast<unsigned long long>(stats->next_lsn));
}

int CmdInfo(const Args& args) {
  // --connect inspects a live cluster instead of an on-disk package.
  const std::string connect = args.GetString("connect");
  if (!connect.empty()) return CmdInfoConnect(args, connect);
  if (!args.Require("db")) return 2;
  auto blob = ReadFile(args.GetString("db"));
  if (!blob.ok()) {
    std::fprintf(stderr, "db: %s\n", blob.status().ToString().c_str());
    return 1;
  }
  BinaryReader r(*blob);
  auto db = ShardedEncryptedDatabase::Deserialize(&r);
  if (!db.ok()) {
    std::fprintf(stderr, "db: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::size_t live = 0, total = 0;
  for (const EncryptedDatabase& shard : db->shards) {
    live += shard.index->size();
    total += shard.index->capacity();
  }
  std::printf("encrypted database: %s\n", args.GetString("db").c_str());
  std::printf("  shards:         %zu\n", db->num_shards());
  std::printf("  replicas/shard: %zu\n", db->replication_factor());
  std::printf("  vectors:        %zu live (%zu deleted)\n", live, total - live);
  // state version 0 = a single-index package or a v1/v2 envelope that no
  // structural maintenance has ever touched; > 0 = the checksummed v3
  // envelope.
  std::printf("  state version:  %llu\n",
              static_cast<unsigned long long>(db->state_version));
  PrintWalInfo(args.GetString("wal-dir"));
  for (std::size_t s = 0; s < db->shards.size(); ++s) {
    const EncryptedDatabase& shard = db->shards[s];
    const std::size_t cap = shard.index->capacity();
    const double ratio =
        cap == 0 ? 0.0
                 : static_cast<double>(cap - shard.index->size()) /
                       static_cast<double>(cap);
    const std::uint64_t epoch =
        s < db->compaction_epochs.size() ? db->compaction_epochs[s] : 0;
    std::printf("  shard %zu:\n", s);
    std::printf("    tombstones:     %.1f%% (last compaction epoch %llu)\n",
                100.0 * ratio, static_cast<unsigned long long>(epoch));
    PrintIndexInfo(*shard.index, shard.DceBytes() / 1e6, "    ");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  if (cmd == "synth") return CmdSynth(args);
  if (cmd == "keygen") return CmdKeygen(args);
  if (cmd == "encrypt") return CmdEncrypt(args);
  if (cmd == "search") return CmdSearch(args);
  if (cmd == "mutate") return CmdMutate(args);
  if (cmd == "info") return CmdInfo(args);
  return Usage();
}
