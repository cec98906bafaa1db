// End-to-end tests of the PP-ANNS scheme (Section V): Algorithm 2
// correctness, filter/refine interplay, accuracy against ground truth,
// index maintenance, and persistence of the outsourced package.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/cloud_server.h"
#include "core/data_owner.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "index/brute_force.h"
#include "net/auth.h"

namespace ppanns {
namespace {

struct TestSystem {
  Dataset dataset;
  std::unique_ptr<DataOwner> owner;
  std::unique_ptr<CloudServer> server;
  std::unique_ptr<QueryClient> client;
};

TestSystem BuildSystem(std::size_t n, std::size_t nq, double beta,
                       std::uint64_t seed, std::size_t dim = 24) {
  TestSystem sys;
  sys.dataset = MakeDataset(SyntheticKind::kGloveLike, n, nq, /*gt_k=*/20,
                            seed, dim);
  Rng stat_rng(seed + 1);
  const DatasetStats stats = ComputeStats(sys.dataset.base, stat_rng);

  PpannsParams params;
  params.dcpe_beta = beta;
  params.dce_scale_hint = std::max(stats.mean_norm, 1.0);
  params.hnsw = HnswParams{.m = 12, .ef_construction = 150, .seed = seed};
  params.seed = seed;

  auto owner = DataOwner::Create(sys.dataset.base.dim(), params);
  PPANNS_CHECK(owner.ok());
  sys.owner = std::make_unique<DataOwner>(std::move(*owner));
  sys.server =
      std::make_unique<CloudServer>(sys.owner->EncryptAndIndex(sys.dataset.base));
  sys.client = std::make_unique<QueryClient>(sys.owner->ShareKeys(), seed + 2);
  return sys;
}

TEST(SchemeTest, EndToEndHighRecallWithModerateNoise) {
  TestSystem sys = BuildSystem(2000, 30, /*beta=*/1.0, /*seed=*/1);
  const std::size_t k = 10;

  std::vector<std::vector<VectorId>> results;
  for (std::size_t i = 0; i < sys.dataset.queries.size(); ++i) {
    QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(i));
    SearchResult r = sys.server->Search(
        token, k, SearchSettings{.k_prime = 80, .ef_search = 200});
    results.push_back(std::move(r.ids));
  }
  EXPECT_GT(MeanRecallAtK(results, sys.dataset.ground_truth, k), 0.9);
}

// Algorithm 2 equivalence: the refine phase must return exactly the true
// top-k (by plaintext distance) among the filter candidates — DCE
// comparisons are exact, so refinement can be checked against an oracle.
TEST(SchemeTest, RefinePicksExactTopKOfCandidates) {
  TestSystem sys = BuildSystem(1200, 15, /*beta=*/2.0, /*seed=*/2);
  const std::size_t k = 10, k_prime = 60;

  for (std::size_t i = 0; i < sys.dataset.queries.size(); ++i) {
    const float* q = sys.dataset.queries.row(i);
    QueryToken token = sys.client->EncryptQuery(q);

    // Run filter-only at k' to learn the candidate set the server saw.
    SearchResult filter = sys.server->Search(
        token, k_prime, SearchSettings{.k_prime = k_prime, .ef_search = 150,
                                       .refine = false});
    // Oracle: rank those candidates by true plaintext distance.
    std::vector<Neighbor> oracle;
    for (VectorId id : filter.ids) {
      oracle.push_back(
          Neighbor{id, SquaredL2(sys.dataset.base.row(id), q,
                                 sys.dataset.base.dim())});
    }
    std::sort(oracle.begin(), oracle.end());

    // Full search with the same filter settings.
    SearchResult full = sys.server->Search(
        token, k, SearchSettings{.k_prime = k_prime, .ef_search = 150});

    ASSERT_EQ(full.ids.size(), std::min(k, oracle.size()));
    std::set<VectorId> want;
    for (std::size_t j = 0; j < full.ids.size(); ++j) want.insert(oracle[j].id);
    for (VectorId id : full.ids) {
      EXPECT_TRUE(want.count(id) > 0)
          << "refine returned " << id << " outside the true top-k of R'";
    }
  }
}

TEST(SchemeTest, RefineBeatsFilterOnlyUnderNoise) {
  // With heavy DCPE noise the SAP ranking degrades; the refine phase must
  // recover accuracy (the core claim behind Fig. 5 / Fig. 6).
  TestSystem sys = BuildSystem(2000, 30, /*beta=*/6.0, /*seed=*/3);
  const std::size_t k = 10;

  std::vector<std::vector<VectorId>> filter_only, refined;
  for (std::size_t i = 0; i < sys.dataset.queries.size(); ++i) {
    QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(i));
    SearchSettings base{.k_prime = 100, .ef_search = 250};
    SearchSettings no_refine = base;
    no_refine.refine = false;

    SearchResult f = sys.server->Search(token, k, no_refine);
    SearchResult r = sys.server->Search(token, k, base);
    filter_only.push_back(std::move(f.ids));
    refined.push_back(std::move(r.ids));
  }
  const double recall_filter =
      MeanRecallAtK(filter_only, sys.dataset.ground_truth, k);
  const double recall_refined =
      MeanRecallAtK(refined, sys.dataset.ground_truth, k);
  EXPECT_GT(recall_refined, recall_filter);
}

TEST(SchemeTest, LargerKPrimeImprovesRecall) {
  // The Fig. 5 trade-off: more candidates refined -> higher recall ceiling.
  TestSystem sys = BuildSystem(2000, 25, /*beta=*/4.0, /*seed=*/4);
  const std::size_t k = 10;

  auto recall_at = [&](std::size_t k_prime) {
    std::vector<std::vector<VectorId>> results;
    for (std::size_t i = 0; i < sys.dataset.queries.size(); ++i) {
      QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(i));
      SearchResult r = sys.server->Search(
          token, k, SearchSettings{.k_prime = k_prime,
                                   .ef_search = std::max<std::size_t>(k_prime, 200)});
      results.push_back(std::move(r.ids));
    }
    return MeanRecallAtK(results, sys.dataset.ground_truth, k);
  };

  const double r1 = recall_at(10);   // Ratio_k = 1
  const double r16 = recall_at(160);  // Ratio_k = 16
  EXPECT_GE(r16, r1);
  EXPECT_GT(r16, 0.85);
}

TEST(SchemeTest, CountersReportRefineWork) {
  TestSystem sys = BuildSystem(800, 5, /*beta=*/1.0, /*seed=*/5);
  QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(0));
  SearchResult r = sys.server->Search(
      token, 10, SearchSettings{.k_prime = 50, .ef_search = 100});
  EXPECT_EQ(r.counters.filter_candidates, 50u);
  EXPECT_GT(r.counters.dce_comparisons, 0u);
  // O(k' log k) bound with slack.
  EXPECT_LT(r.counters.dce_comparisons, 50u * 30u);

  SearchResult f = sys.server->Search(
      token, 10, SearchSettings{.k_prime = 50, .ef_search = 100, .refine = false});
  EXPECT_EQ(f.counters.dce_comparisons, 0u);
}

TEST(SchemeTest, ResultSizesAndEdgeCases) {
  TestSystem sys = BuildSystem(300, 3, /*beta=*/1.0, /*seed=*/6);
  QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(0));

  EXPECT_TRUE(sys.server->Search(token, 0).ids.empty());

  SearchResult r1 = sys.server->Search(token, 1);
  EXPECT_EQ(r1.ids.size(), 1u);

  // k larger than the candidate pool still returns k results when k' >= k.
  SearchResult big = sys.server->Search(
      token, 50, SearchSettings{.k_prime = 50, .ef_search = 120});
  EXPECT_EQ(big.ids.size(), 50u);
}

TEST(SchemeTest, InsertionIsSearchable) {
  TestSystem sys = BuildSystem(600, 3, /*beta=*/0.5, /*seed=*/7);
  const std::size_t dim = sys.dataset.base.dim();

  // Insert a fresh vector near an existing query point so it becomes its NN.
  std::vector<float> nv(sys.dataset.queries.row(0),
                        sys.dataset.queries.row(0) + dim);
  EncryptedVector ev = sys.owner->EncryptOne(nv.data());
  const VectorId new_id = sys.server->Insert(ev);
  EXPECT_EQ(new_id, 600u);

  QueryToken token = sys.client->EncryptQuery(nv.data());
  SearchResult r = sys.server->Search(
      token, 5, SearchSettings{.k_prime = 40, .ef_search = 100});
  ASSERT_FALSE(r.ids.empty());
  EXPECT_EQ(r.ids[0], new_id) << "freshly inserted vector not found as own NN";
}

TEST(SchemeTest, DeletionRemovesFromResults) {
  TestSystem sys = BuildSystem(600, 3, /*beta=*/0.5, /*seed=*/8);
  // Find the NN of query 0, delete it, search again.
  QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(0));
  SearchResult before = sys.server->Search(
      token, 5, SearchSettings{.k_prime = 40, .ef_search = 100});
  ASSERT_FALSE(before.ids.empty());
  const VectorId victim = before.ids[0];

  ASSERT_TRUE(sys.server->Delete(victim).ok());
  QueryToken token2 = sys.client->EncryptQuery(sys.dataset.queries.row(0));
  SearchResult after = sys.server->Search(
      token2, 5, SearchSettings{.k_prime = 40, .ef_search = 100});
  for (VectorId id : after.ids) EXPECT_NE(id, victim);
}

TEST(SchemeTest, EncryptedDatabaseSerializationRoundTrip) {
  TestSystem sys = BuildSystem(400, 5, /*beta=*/1.0, /*seed=*/9);

  // Rebuild a database, serialize, reload into a fresh server: identical
  // results for identical tokens.
  EncryptedDatabase db = sys.owner->EncryptAndIndex(sys.dataset.base);
  BinaryWriter w;
  db.Serialize(&w);

  BinaryReader r(w.buffer());
  auto loaded = EncryptedDatabase::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  CloudServer server_a(std::move(db));
  CloudServer server_b(std::move(*loaded));
  for (std::size_t i = 0; i < sys.dataset.queries.size(); ++i) {
    QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(i));
    SearchResult ra = server_a.Search(token, 10);
    SearchResult rb = server_b.Search(token, 10);
    EXPECT_EQ(ra.ids, rb.ids) << "query " << i;
  }
}

TEST(SchemeTest, TokenByteSizeMatchesCostModel) {
  // Communication accounting (Section V-C): the upload is one SAP vector +
  // one DCE trapdoor, each with a uint64 length prefix. For d = 24 (padded
  // to 24): 8 + 24*4 + 8 + (2*24+16)*8.
  TestSystem sys = BuildSystem(100, 1, /*beta=*/1.0, /*seed=*/10);
  QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(0));
  EXPECT_EQ(token.ByteSize(), 16u + 24 * 4 + (2 * 24 + 16) * 8);

  // ByteSize must equal what actually crosses the wire.
  BinaryWriter w;
  token.Serialize(&w);
  EXPECT_EQ(w.buffer().size(), token.ByteSize());

  // And the wire round trip must reconstruct the token exactly.
  BinaryReader r(w.buffer());
  auto loaded = QueryToken::Deserialize(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->sap, token.sap);
  EXPECT_EQ(loaded->trapdoor.data, token.trapdoor.data);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SchemeTest, ParallelEncryptionEquivalentAndDeterministic) {
  TestSystem sys = BuildSystem(700, 8, /*beta=*/1.0, /*seed=*/12);
  const std::size_t k = 10;

  // Parallel package: same accuracy as the sequential one.
  EncryptedDatabase par_db = sys.owner->EncryptAndIndexParallel(sys.dataset.base);
  CloudServer par_server(std::move(par_db));
  std::vector<std::vector<VectorId>> seq_results, par_results;
  for (std::size_t i = 0; i < sys.dataset.queries.size(); ++i) {
    QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(i));
    SearchSettings settings{.k_prime = 60, .ef_search = 150};
    seq_results.push_back(sys.server->Search(token, k, settings).ids);
    par_results.push_back(par_server.Search(token, k, settings).ids);
  }
  const double seq_recall =
      MeanRecallAtK(seq_results, sys.dataset.ground_truth, k);
  const double par_recall =
      MeanRecallAtK(par_results, sys.dataset.ground_truth, k);
  EXPECT_NEAR(par_recall, seq_recall, 0.05);

  // Determinism: two parallel runs produce byte-identical DCE layers
  // regardless of thread scheduling. (The SAP/graph pass consumes owner RNG
  // state, so compare two fresh owners with the same seed.)
  TestSystem sys_a = BuildSystem(200, 1, 1.0, /*seed=*/13);
  TestSystem sys_b = BuildSystem(200, 1, 1.0, /*seed=*/13);
  EncryptedDatabase a = sys_a.owner->EncryptAndIndexParallel(sys_a.dataset.base);
  EncryptedDatabase b = sys_b.owner->EncryptAndIndexParallel(sys_b.dataset.base);
  ASSERT_EQ(a.dce.size(), b.dce.size());
  for (std::size_t i = 0; i < a.dce.size(); ++i) {
    EXPECT_EQ(a.dce[i].data, b.dce[i].data) << "row " << i;
  }
}

TEST(SchemeTest, MeasureServerReportsConsistentPoint) {
  TestSystem sys = BuildSystem(800, 10, /*beta=*/1.0, /*seed=*/11);
  QueryClient client(sys.owner->ShareKeys(), 999);
  const std::vector<QueryToken> tokens =
      EncryptQueries(client, sys.dataset.queries);
  const OperatingPoint point =
      MeasureServer(*sys.server, tokens, sys.dataset.ground_truth, 10,
                    SearchSettings{.k_prime = 60, .ef_search = 150});
  EXPECT_GT(point.recall, 0.5);
  EXPECT_GT(point.qps, 0.0);
  EXPECT_GT(point.mean_latency_ms, 0.0);
  EXPECT_GE(point.p99_latency_ms, point.mean_latency_ms * 0.5);
  EXPECT_GT(point.mean_dce_comparisons, 0.0);
}

// The query token is the only thing a user computes per query, and the
// server and the result cache act on its bytes. Its SHA-256 over 64
// serialized tokens is pinned for fixed key and query seeds,
// so no change to the trapdoor arithmetic (the MatVec kernel, the DCE
// randomizers, the SAP noise) can move a bit unnoticed. d = 128 is the
// SIFT-like shape (272 x 272 M3^-1, 68 x 68 half-blocks); d = 25 pads to 26
// and gives 17 x 17 half-blocks, so the kernels' 4-row and 4-lane tails run.
// The digests were recorded before MatVec had a multi-row kernel; they must
// hold on every kernel ISA.
std::string TokenDigestHex(std::size_t dim, std::uint64_t seed) {
  PpannsParams params;
  params.dcpe_beta = 2.0;
  params.seed = seed;
  auto owner = DataOwner::Create(dim, params);
  PPANNS_CHECK(owner.ok());
  QueryClient client(owner->ShareKeys(), seed + 1);
  Rng rng(seed + 2);
  BinaryWriter w;
  std::vector<float> q(dim);
  for (int i = 0; i < 64; ++i) {
    for (float& x : q) x = static_cast<float>(rng.Gaussian(0.0, 20.0));
    client.EncryptQuery(q.data()).Serialize(&w);
  }
  const std::vector<std::uint8_t> bytes = w.TakeBuffer();
  std::string hex;
  for (std::uint8_t b : Sha256(bytes.data(), bytes.size())) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

TEST(SchemeTest, QueryTokenBytesMatchParentFormat) {
  constexpr char kD128Sha256[] =
      "b304c622ea34165a8188dfbc9de3fba5a8c04e8b4119c36575953afe93dd56a9";
  constexpr char kD25Sha256[] =
      "798afeea00bccbf145201b393aa3ec313c37265295a679a8113d76333c1edd3e";
  EXPECT_EQ(TokenDigestHex(128, 7), kD128Sha256);
  EXPECT_EQ(TokenDigestHex(25, 11), kD25Sha256);
}

}  // namespace
}  // namespace ppanns
