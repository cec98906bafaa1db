// Secure embedding retrieval for RAG — the retrieval-augmented-generation
// scenario from the paper's introduction: a company outsources document
// embeddings; user prompts are embedded client-side and matched in the
// cloud without revealing either the corpus or the queries.
//
// Demonstrates: serving through the validated PpannsService facade, tuning
// the accuracy/efficiency trade-off (Ratio_k sweep à la Fig. 5) for a
// recall SLO with batched measurement, and the non-interactive protocol
// cost accounting of Section V-C.
//
// Build & run:  ./build/examples/secure_embedding_rag

#include <cstdio>
#include <vector>

#include "common/timer.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "eval/runner.h"

using namespace ppanns;

int main() {
  const std::size_t n = 10000, num_queries = 30, k = 10;
  const std::size_t dim = 100;  // GloVe-style embedding width

  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, n, num_queries, k,
                           /*seed=*/77, dim);
  Rng rng(1);
  const DatasetStats stats = ComputeStats(ds.base, rng);

  PpannsParams params;
  params.dcpe_beta = 3.0;
  params.dce_scale_hint = stats.mean_norm;
  params.hnsw = HnswParams{.m = 16, .ef_construction = 200, .seed = 5};
  params.seed = 5;

  auto owner = DataOwner::Create(dim, params);
  if (!owner.ok()) return 1;
  // The validated serving facade — malformed tokens come back as Status,
  // batches fan across the thread pool.
  PpannsService service{CloudServer(owner->EncryptAndIndex(ds.base))};
  QueryClient client(owner->ShareKeys(), /*seed=*/21);
  std::vector<QueryToken> tokens = EncryptQueries(client, ds.queries);

  // ---- Pick the cheapest Ratio_k meeting a recall SLO (grid search, as
  // the paper recommends in Section V-B), measured through one batched
  // service call per operating point.
  const double recall_slo = 0.95;
  std::printf("tuning Ratio_k for recall@%zu >= %.2f:\n", k, recall_slo);
  std::printf("%s\n", FormatHeader().c_str());

  std::size_t chosen_ratio = 0;
  for (std::size_t ratio : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SearchSettings settings{
        .k_prime = ratio * k,
        .ef_search = std::max<std::size_t>(ratio * k, 64)};
    auto batch = service.SearchBatch(tokens, k, settings);
    if (!batch.ok()) {
      std::fprintf(stderr, "batch failed: %s\n",
                   batch.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<VectorId>> ids;
    ids.reserve(batch->results.size());
    for (const SearchResult& r : batch->results) ids.push_back(r.ids);
    const double queries = static_cast<double>(batch->counters.num_queries);
    OperatingPoint p;
    p.recall = MeanRecallAtK(ids, ds.ground_truth, k);
    p.qps = queries / batch->counters.wall_seconds;
    p.mean_latency_ms = batch->counters.wall_seconds * 1e3 / queries;
    p.mean_filter_ms = batch->counters.total.filter_seconds * 1e3 / queries;
    p.mean_refine_ms = batch->counters.total.refine_seconds * 1e3 / queries;
    p.mean_dce_comparisons = batch->counters.total.dce_comparisons / queries;
    p.mean_filter_candidates =
        batch->counters.total.filter_candidates / queries;
    std::printf("%s\n",
                FormatRow("rag-corpus", "Ratio_k=" + std::to_string(ratio), p)
                    .c_str());
    if (chosen_ratio == 0 && p.recall >= recall_slo) chosen_ratio = ratio;
  }
  if (chosen_ratio == 0) chosen_ratio = 32;
  std::printf("-> serving with Ratio_k = %zu\n\n", chosen_ratio);

  // ---- Serve one retrieval and show the full protocol cost (Section V-C:
  // user uploads one token, server returns k ids; nothing else crosses).
  Timer user_timer;
  QueryToken token = client.EncryptQuery(ds.queries.row(0));
  const double user_ms = user_timer.ElapsedMillis();

  Timer server_timer;
  auto result = service.Search(
      token, k,
      SearchSettings{.k_prime = chosen_ratio * k,
                     .ef_search = std::max<std::size_t>(chosen_ratio * k, 64)});
  const double server_ms = server_timer.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("retrieved document ids:");
  for (VectorId id : result->ids) std::printf(" %u", id);
  std::printf("\nprotocol costs: user encrypt %.3f ms | upload %zu B | "
              "server %.3f ms | download %zu B | 1 round\n",
              user_ms, token.ByteSize(), server_ms, k * sizeof(VectorId));
  std::printf("(the retrieved ids feed the RAG prompt; the cloud learned "
              "only comparison outcomes)\n");
  return 0;
}
