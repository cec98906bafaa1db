// ppanns_shard_server — hosts the shard replicas of an encrypted package
// (sharded, or single-index as one shard) behind the PP-RPC protocol
// (docs/rpc-protocol.md), so a gather node (`ppanns_cli search --connect
// host:port,...`) can scatter filter work to it across a real socket.
//
// Typical two-process topology (both servers load the same package):
//   ppanns_shard_server --db db.ppanns --port 7001 --shards 0
//   ppanns_shard_server --db db.ppanns --port 7002 --shards 1
//   ppanns_cli search --connect 127.0.0.1:7001,127.0.0.1:7002 ...
//
// The server holds only ciphertexts — the same trust boundary as the
// in-process cloud server; no key material ever reaches this binary.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/io.h"
#include "core/ppanns_service.h"
#include "core/sharded_database.h"
#include "net/auth.h"
#include "net/fault_injecting_transport.h"
#include "net/shard_server.h"

namespace {

using namespace ppanns;

/// Minimal --flag parser (same contract as ppanns_cli's).
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
        values_[key] = "";
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
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
  bool Require(const std::string& key) const {
    if (values_.count(key) > 0) return true;
    std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
    return false;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: ppanns_shard_server --db db.ppanns [--port P]\n"
      "         [--shards 0,1,...] [--delay S:R:MS,...]\n"
      "         [--wal-dir DIR] [--auth-key-file FILE]\n"
      "  --db      encrypted package (a single-index one serves as shard 0)\n"
      "  --port    TCP port to listen on (default 0 = ephemeral; the chosen\n"
      "            port is printed as 'listening on port N')\n"
      "  --shards  comma-separated shard ids this endpoint serves\n"
      "            (default: all shards in the package)\n"
      "  --delay   straggler injection: replica (S,R) sleeps MS ms per scan\n"
      "            (cancellable mid-sleep by CANCEL frames and deadlines)\n"
      "  --wal-dir write-ahead log directory: surviving records are replayed\n"
      "            against the package on startup, then every remote\n"
      "            Insert/Delete appends before it applies — a kill -9'd\n"
      "            server restarts into its pre-crash state\n"
      "  --auth-key-file  shared-key file (HMAC-SHA256 challenge-response);\n"
      "            peers without the key are torn down before any frame is\n"
      "            served\n");
  return 2;
}

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Parses "S:R" or "S:R:MS" into its colon-separated numeric fields; exits
/// with a usage error on anything malformed.
std::vector<std::size_t> ParseColonTuple(const std::string& item,
                                         std::size_t expected_fields,
                                         const char* flag) {
  std::vector<std::size_t> fields;
  std::size_t start = 0;
  while (start <= item.size()) {
    const std::size_t colon = item.find(':', start);
    const std::string part =
        item.substr(start, colon == std::string::npos ? std::string::npos
                                                      : colon - start);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(part.c_str(), &end, 10);
    if (part.empty() || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "--%s: malformed entry '%s'\n", flag, item.c_str());
      std::exit(2);
    }
    fields.push_back(static_cast<std::size_t>(v));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (fields.size() != expected_fields) {
    std::fprintf(stderr, "--%s: expected %zu ':'-separated fields in '%s'\n",
                 flag, expected_fields, item.c_str());
    std::exit(2);
  }
  return fields;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, 1);
  if (!args.Require("db")) return Usage();

  auto blob = ReadFile(args.GetString("db"));
  if (!blob.ok()) {
    std::fprintf(stderr, "db: %s\n", blob.status().ToString().c_str());
    return 1;
  }
  BinaryReader reader(*blob);
  auto db = ShardedEncryptedDatabase::Deserialize(&reader);
  if (!db.ok()) {
    std::fprintf(stderr, "db: %s\n", db.status().ToString().c_str());
    return 1;
  }
  // Straggler injection: every --delay entry decorates its replica slot's
  // transport, so the delay runs inside each scan on that slot (cancellable
  // by CANCEL frames and the rebased deadline) from the first request on.
  FaultPlan faults;
  const std::vector<std::string> delays = SplitComma(args.GetString("delay"));
  for (const std::string& item : delays) {
    auto f = ParseColonTuple(item, 3, "delay");
    if (f[0] >= db->num_shards() || f[1] >= db->replication_factor()) {
      std::fprintf(stderr, "--delay: replica (%zu,%zu) out of range\n", f[0],
                   f[1]);
      return 2;
    }
    faults.Cell(f[0], f[1])->delay_ms = static_cast<int>(f[2]);
  }
  // The facade wraps the sharded server so remote mutations get validation
  // and (with --wal-dir) append-before-apply durability, exactly like a
  // local caller's.
  PpannsService service(ShardedCloudServer(
      std::move(*db),
      delays.empty() ? TransportDecorator{} : faults.Decorator()));

  std::vector<std::uint32_t> served;
  for (const std::string& item : SplitComma(args.GetString("shards"))) {
    auto f = ParseColonTuple(item, 1, "shards");
    if (f[0] >= service.num_shards()) {
      std::fprintf(stderr, "--shards: shard %zu out of range (package has %zu)\n",
                   f[0], service.num_shards());
      return 2;
    }
    served.push_back(static_cast<std::uint32_t>(f[0]));
  }

  // Durability: replay whatever survived a previous run FIRST (records not
  // yet in a checkpoint), then attach so new mutations append to the log.
  const std::string wal_dir = args.GetString("wal-dir");
  if (!wal_dir.empty()) {
    auto replayed = service.ReplayWal(wal_dir);
    if (!replayed.ok()) {
      std::fprintf(stderr, "wal replay: %s\n",
                   replayed.status().ToString().c_str());
      return 1;
    }
    Status attached = service.AttachWal(wal_dir);
    if (!attached.ok()) {
      std::fprintf(stderr, "wal attach: %s\n", attached.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wal: replayed %zu record(s) from %s\n", *replayed,
                 wal_dir.c_str());
  }

  ShardServer::Options server_options;
  const std::string auth_key_file = args.GetString("auth-key-file");
  if (!auth_key_file.empty()) {
    auto key = LoadAuthKey(auth_key_file);
    if (!key.ok()) {
      std::fprintf(stderr, "auth key: %s\n", key.status().ToString().c_str());
      return 1;
    }
    server_options.auth_key = std::move(*key);
  }

  ShardServer server(&service, std::move(served), std::move(server_options));
  Status st = server.Start(static_cast<std::uint16_t>(args.GetSize("port", 0)));
  if (!st.ok()) {
    std::fprintf(stderr, "listen: %s\n", st.ToString().c_str());
    return 1;
  }
  // The smoke scripts parse this line to learn the ephemeral port; flush so a
  // piped parent sees it immediately.
  std::printf("listening on port %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  std::fprintf(stderr,
               "serving %zu shard(s) x %zu replica(s), %zu vectors — "
               "ctrl-c to stop\n",
               service.num_shards(), service.num_replicas(), service.size());

  // Park until SIGINT/SIGTERM; the ShardServer's own threads do the work.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  int got = 0;
  sigwait(&signals, &got);
  std::fprintf(stderr, "signal %d: shutting down\n", got);
  server.Stop();
  return 0;
}
