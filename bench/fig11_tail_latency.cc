// Fig. 11 (ours, beyond the paper): tail latency of the serving tier with a
// straggling shard, and what hedged replication buys back.
//
// Setup: a sharded, replicated package (default 4 shards x 2 replicas) with
// an injected fixed delay (default 50 ms) on one replica of one shard — the
// classic straggler. Three serving modes run the same query stream:
//
//   sync          — the barrier gather (ShardedCloudServer::Search): every
//                   query waits for the slow replica, so p50 == the injected
//                   delay.
//   async-hedged  — SearchAsync with a hedging deadline: the straggling
//                   shard misses the deadline, the work is re-dispatched to
//                   its healthy replica, the first answer wins and the loser
//                   aborts mid-scan through the cancellation token in its
//                   SearchContext. p99 should sit near hedge_ms + healthy
//                   latency, far below the injected delay.
//   failover      — the slow replica is marked down instead of slow: the
//                   scatter never touches it. The floor the hedge aims for,
//                   and a check that failover ids match the healthy run.
//
// A healthy baseline (no delay) calibrates. Recall is identical across all
// modes by construction (replicas are byte-identical; the merge spends the
// same candidate budget) — printed to prove it, pinned by
// tests/core/async_serving_test.cc.
//
// Every measured point is emitted as one JSON line into
// BENCH_fig11_tail_latency.json (override with PPANNS_BENCH_JSON) so the
// tail-latency trajectory is machine-readable across PRs. The wasted-work
// fields (wasted_nodes, wasted_scans: loser work observed by the cluster's
// cumulative cancellation counters across the mode's run, plus
// nodes_visited: winner work summed over queries) keep the hedge losers'
// wasted work, ~0 with mid-scan abort, in the BENCH_* trajectory.
//
// Knobs: PPANNS_BENCH_N / PPANNS_BENCH_Q (bench_util), PPANNS_BENCH_DELAY_MS
// (injected straggler delay), PPANNS_BENCH_HEDGE_MS (hedging deadline).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/ppanns_service.h"
#include "core/sharded_cloud_server.h"
#include "eval/metrics.h"
#include "net/fault_injecting_transport.h"

namespace {

using namespace ppanns;
using namespace ppanns::bench;

struct TailPoint {
  std::string mode;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double recall = 0.0;
  std::size_t hedged = 0;
  std::size_t partial = 0;
  std::size_t nodes_visited = 0;  ///< winner scans, summed over queries
  std::size_t wasted_nodes = 0;   ///< loser scans (cumulative-counter delta)
  std::size_t wasted_scans = 0;
  std::vector<std::vector<VectorId>> ids;  ///< for winner-id equality checks
};

/// Runs the query stream one-at-a-time (per-query latency is the object of
/// study; batching would hide the straggler behind other queries' work).
/// Wasted loser work is attributed by deltas of the cluster's cumulative
/// cancellation counters (which drain in-flight losers before reading, so a
/// mode never bleeds into the next).
TailPoint MeasureMode(const std::string& mode, const PpannsService& service,
                      const std::vector<QueryToken>& tokens,
                      const Dataset& ds, std::size_t k,
                      const SearchSettings& settings, bool use_async,
                      const AsyncOptions& async) {
  TailPoint point;
  point.mode = mode;
  const ShardedCloudServer& cluster = service.sharded_server();
  const std::size_t nodes_before = cluster.CancelledWorkNodes();
  const std::size_t scans_before = cluster.CancelledScans();
  std::vector<double> latencies_ms;
  latencies_ms.reserve(tokens.size());
  point.ids.reserve(tokens.size());
  double total_ms = 0.0;
  for (const QueryToken& token : tokens) {
    Timer t;
    Result<SearchResult> r = use_async
                                 ? service.SearchAsync(token, k, settings, async)
                                 : service.Search(token, k, settings);
    const double ms = t.ElapsedMillis();
    PPANNS_CHECK(r.ok());
    latencies_ms.push_back(ms);
    total_ms += ms;
    point.hedged += r->counters.hedged_requests;
    point.partial += r->partial ? 1 : 0;
    point.nodes_visited += r->counters.nodes_visited;
    point.ids.push_back(r->ids);
  }
  point.wasted_nodes = cluster.CancelledWorkNodes() - nodes_before;
  point.wasted_scans = cluster.CancelledScans() - scans_before;
  point.p50_ms = Percentile(latencies_ms, 50.0);
  point.p99_ms = Percentile(latencies_ms, 99.0);
  point.mean_ms = total_ms / static_cast<double>(tokens.size());
  point.recall = MeanRecallAtK(point.ids, ds.ground_truth, k);
  return point;
}

void EmitJson(std::FILE* json, const TailPoint& p, std::size_t n,
              std::size_t num_shards, std::size_t num_replicas,
              double delay_ms, double hedge_ms, std::size_t k) {
  if (json == nullptr) return;
  std::fprintf(json,
               "{\"bench\":\"fig11_tail_latency\",\"mode\":\"%s\","
               "\"n\":%zu,\"num_shards\":%zu,\"num_replicas\":%zu,"
               "\"delay_ms\":%.1f,\"hedge_ms\":%.1f,\"k\":%zu,"
               "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"mean_ms\":%.3f,"
               "\"recall_at_k\":%.4f,\"hedged_requests\":%zu,"
               "\"partial_results\":%zu,\"nodes_visited\":%zu,"
               "\"wasted_nodes\":%zu,\"wasted_scans\":%zu}\n",
               p.mode.c_str(), n, num_shards, num_replicas, delay_ms, hedge_ms,
               k, p.p50_ms, p.p99_ms, p.mean_ms, p.recall, p.hedged,
               p.partial, p.nodes_visited, p.wasted_nodes, p.wasted_scans);
  std::fflush(json);
}

}  // namespace

int main() {
  PrintBanner("Fig. 11: tail latency with a straggling shard replica",
              "async scatter-gather + per-shard replication (beyond the "
              "paper; ROADMAP serving north-star)");

  const std::size_t k = 10;
  const std::size_t n = EnvSize("PPANNS_BENCH_N", 10'000);
  const std::size_t nq = DefaultQ();
  const std::size_t num_shards = 4, num_replicas = 2;
  const double delay_ms =
      static_cast<double>(EnvSize("PPANNS_BENCH_DELAY_MS", 50));
  const double hedge_ms =
      static_cast<double>(EnvSize("PPANNS_BENCH_HEDGE_MS", 5));
  const SearchSettings settings{.k_prime = 8 * k, .ef_search = 128};
  std::FILE* json = OpenBenchJson("fig11_tail_latency");

  Dataset dataset =
      MakeOrLoadDataset(SyntheticKind::kSiftLike, n, nq, k, /*seed=*/808);
  Rng stat_rng(808 + 17);
  const DatasetStats stats = ComputeStats(dataset.base, stat_rng);

  PpannsParams params;
  params.dcpe_beta = ChooseBeta(dataset, k, 0.5);
  params.dce_scale_hint = std::max(stats.mean_norm, 1e-3);
  params.hnsw = DefaultHnsw(808);
  params.num_shards = num_shards;
  params.num_replicas = num_replicas;
  params.seed = 808;

  auto owner = DataOwner::Create(dataset.base.dim(), params);
  PPANNS_CHECK(owner.ok());
  // The straggler is injected through the slot transports: replica (0,0)'s
  // fault cell, set below.
  FaultPlan faults;
  PpannsService service{ShardedCloudServer(
      owner->EncryptAndIndexSharded(dataset.base), faults.Decorator())};
  QueryClient client(owner->ShareKeys(), 808 + 23);
  const std::vector<QueryToken> tokens = EncryptQueries(client, dataset.queries);

  const AsyncOptions async{.hedge_ms = hedge_ms};
  ShardedCloudServer& cluster = service.sharded_server_mutable();

  std::printf("cluster: %zu shards x %zu replicas, n=%zu, %zu queries; "
              "straggler: shard 0 replica 0 +%.0f ms; hedge %.1f ms\n\n",
              num_shards, num_replicas, n, tokens.size(), delay_ms, hedge_ms);
  std::printf("%-22s %9s %9s %9s %7s %7s %8s %10s %8s\n", "mode", "p50(ms)",
              "p99(ms)", "mean(ms)", "recall", "hedged", "partial",
              "wasted-nd", "w-scans");

  auto run = [&](const std::string& mode, bool use_async,
                 const AsyncOptions& opts) {
    TailPoint p = MeasureMode(mode, service, tokens, dataset, k, settings,
                              use_async, opts);
    std::printf("%-22s %9.2f %9.2f %9.2f %7.3f %7zu %8zu %10zu %8zu\n",
                p.mode.c_str(), p.p50_ms, p.p99_ms, p.mean_ms, p.recall,
                p.hedged, p.partial, p.wasted_nodes, p.wasted_scans);
    EmitJson(json, p, n, num_shards, num_replicas, delay_ms, hedge_ms, k);
    return p;
  };

  // Healthy cluster: both paths at their floor.
  run("healthy-sync", false, async);
  run("healthy-async", true, async);

  // Inject the straggler: one replica of shard 0 answers late. The hedged
  // run must return the barrier's winner ids.
  faults.Cell(0, 0)->delay_ms = static_cast<int>(delay_ms);
  const TailPoint sync_point = run("straggler-sync", false, async);
  const TailPoint hedged_point = run("straggler-async", true, async);
  PPANNS_CHECK(sync_point.ids == hedged_point.ids);  // identical winner ids

  // Replica loss instead of slowness: the scatter never touches the dead
  // replica, so this is the latency floor hedging converges to.
  faults.Cell(0, 0)->delay_ms = 0;
  cluster.SetReplicaDown(0, 0, true);
  run("failover", false, async);
  cluster.SetReplicaDown(0, 0, false);

  std::printf(
      "\nexpected shape: straggler-sync p50/p99 ~= %.0f ms (every query waits "
      "for the slow replica); straggler-async p99 well below it (the hedge "
      "re-dispatches after %.1f ms and the healthy replica wins) at "
      "identical winner ids, with straggler-async wasted_nodes ~= 0 (the "
      "loser aborts mid-scan instead of finishing a scan nobody reads); "
      "failover matches the healthy floor; recall "
      "identical everywhere (replicas are byte-identical, the merge budget "
      "is unchanged).\n",
      delay_ms, hedge_ms);
  if (json != nullptr) std::fclose(json);
  return 0;
}
