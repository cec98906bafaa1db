// Quickstart: the full PP-ANNS lifecycle in one file.
//
//   1. The data owner generates keys, encrypts a vector database
//      (DCPE/SAP layer + DCE layer) and builds the privacy-preserving
//      filter indexes over the SAP ciphertexts — here as a 2-shard,
//      2-replica serving package (PpannsParams::num_shards/num_replicas).
//   2. The package is serialized to disk — this is what gets outsourced.
//   3. The cloud server loads the package. It never sees plaintexts.
//   4. A query user encrypts queries into (C_q^SAP, T_q) tokens and the
//      PpannsService facade answers k-ANNS with the filter-and-refine
//      search of Algorithm 2 — one batched call fanned across the thread
//      pool, then one hedged async call, then a replica-failover demo
//      showing the ids never change.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "common/io.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"

using namespace ppanns;

int main() {
  // ---- Synthetic database: 5000 x 64 clustered vectors + 5 queries.
  const std::size_t n = 5000, dim = 64, num_queries = 5, k = 10;
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, n, num_queries,
                           /*gt_k=*/k, /*seed=*/42, dim);
  std::printf("database: %zu vectors, %zu dims\n", ds.base.size(), ds.base.dim());

  // ---- Data owner: keys + encryption + indexes (Fig. 1, steps 0-1).
  Rng stat_rng(1);
  const DatasetStats stats = ComputeStats(ds.base, stat_rng);
  PpannsParams params;
  params.dcpe_beta = 2.0;                    // privacy/accuracy dial (Fig. 4)
  params.dce_scale_hint = stats.mean_norm;   // sizes DCE blinding scalars
  params.index_kind = IndexKind::kHnsw;      // or kIvf / kLsh / kBruteForce
  params.hnsw = HnswParams{.m = 16, .ef_construction = 200, .seed = 42};
  params.num_shards = 2;                     // partitions; graphs build in parallel
  params.num_replicas = 2;                   // copies per shard: failover + hedging
  params.seed = 42;

  auto owner = DataOwner::Create(dim, params);
  if (!owner.ok()) {
    std::fprintf(stderr, "owner setup failed: %s\n",
                 owner.status().ToString().c_str());
    return 1;
  }
  ShardedEncryptedDatabase package = owner->EncryptAndIndexSharded(ds.base);
  std::printf("encrypted package: %zu shards x %zu replicas (%s indexes over "
              "SAP + DCE layers)\n", package.num_shards(),
              package.replication_factor(),
              IndexKindName(package.shards[0].index->kind()));

  // ---- Outsource: serialize to disk, reload as "the cloud server".
  BinaryWriter writer;
  package.Serialize(&writer);
  const std::string path = "/tmp/ppanns_quickstart.db";
  if (!WriteFile(path, writer.buffer()).ok()) return 1;
  auto blob = ReadFile(path);
  BinaryReader reader(*blob);
  auto loaded = ShardedEncryptedDatabase::Deserialize(&reader);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  PpannsService service{ShardedCloudServer(std::move(*loaded))};
  std::printf("service loaded %zu encrypted vectors from %s\n", service.size(),
              path.c_str());

  // ---- Query user: encrypt queries, ask the service in one batched call
  // (Fig. 1, steps 2-3). The (query, shard) work items fan across the pool.
  QueryClient client(owner->ShareKeys(), /*seed=*/7);
  std::vector<QueryToken> tokens;
  for (std::size_t i = 0; i < num_queries; ++i) {
    tokens.push_back(client.EncryptQuery(ds.queries.row(i)));
  }
  const SearchSettings settings{.k_prime = 8 * k, .ef_search = 128};
  auto batch = service.SearchBatch(tokens, k, settings);
  if (!batch.ok()) {
    std::fprintf(stderr, "search failed: %s\n", batch.status().ToString().c_str());
    return 1;
  }
  for (std::size_t i = 0; i < batch->results.size(); ++i) {
    const SearchResult& result = batch->results[i];
    const double recall = RecallAtK(result.ids, ds.ground_truth[i], k);
    std::printf("query %zu: recall@%zu = %.2f, %zu DCE comparisons, ids:", i,
                k, recall, result.counters.dce_comparisons);
    for (VectorId id : result.ids) std::printf(" %u", id);
    std::printf("\n");
  }
  std::printf("batch: %zu queries in %.1f ms wall, %zu DCE comparisons "
              "total\n", batch->counters.num_queries,
              batch->counters.wall_seconds * 1e3,
              batch->counters.total.dce_comparisons);

  // ---- The async serving path: hedge shards that miss a 5 ms deadline
  // onto their next replica — same ids, hidden stragglers.
  auto hedged = service.SearchAsync(tokens[0], k, settings,
                                    AsyncOptions{.hedge_ms = 5.0});
  if (!hedged.ok()) return 1;
  std::printf("async search: %zu ids, %zu hedged request(s)\n",
              hedged->ids.size(), hedged->counters.hedged_requests);

  // ---- Replica failover: kill every primary; results do not change,
  // because replicas are byte-identical.
  service.sharded_server_mutable().SetReplicaDown(0, 0, true);
  service.sharded_server_mutable().SetReplicaDown(1, 0, true);
  auto failover = service.Search(tokens[0], k, settings);
  if (!failover.ok()) return 1;
  std::printf("failover search (all primaries down): ids %s\n",
              failover->ids == hedged->ids ? "IDENTICAL" : "DIVERGED");

  std::printf("\nNote: the server handled only ciphertexts and comparison "
              "signs;\nplaintext vectors and distances never left the owner "
              "and user.\n");
  return failover->ids == hedged->ids ? 0 : 1;
}
