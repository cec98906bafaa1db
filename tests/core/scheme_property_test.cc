// Property-grid tests for the scheme's central invariants, swept across
// dimensions and noise levels (TEST_P):
//
//  P1 (Algorithm 2 exactness): whatever candidate set the filter produces,
//     the refine phase returns exactly the true top-k of that set by
//     plaintext distance — DCE comparisons are exact, so this must hold for
//     every (dim, beta) combination.
//  P2 (strict weak ordering): the DCE comparator induces a strict weak
//     ordering over any candidate set (irreflexive, asymmetric, transitive
//     on sampled triples) — required for the refine buffer's correctness.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/cloud_server.h"
#include "core/data_owner.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"

namespace ppanns {
namespace {

struct GridParam {
  std::size_t dim;
  double beta;
};

class SchemePropertyTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(SchemePropertyTest, RefineExactOverFilterCandidates) {
  const auto [dim, beta] = GetParam();
  const std::size_t n = 600, k = 8, k_prime = 48;
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, n, 6, 0,
                           /*seed=*/dim * 100 + static_cast<std::size_t>(beta),
                           dim);
  Rng stat_rng(1);
  const DatasetStats stats = ComputeStats(ds.base, stat_rng);

  PpannsParams params;
  params.dcpe_beta = beta;
  params.dce_scale_hint = std::max(stats.mean_norm, 1e-3);
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = 11};
  params.seed = 11;
  auto owner = DataOwner::Create(dim, params);
  ASSERT_TRUE(owner.ok());
  CloudServer server(owner->EncryptAndIndex(ds.base));
  QueryClient client(owner->ShareKeys(), 12);

  for (std::size_t qi = 0; qi < ds.queries.size(); ++qi) {
    const float* q = ds.queries.row(qi);
    QueryToken token = client.EncryptQuery(q);
    const SearchSettings base{.k_prime = k_prime, .ef_search = 96};

    SearchSettings filter_only = base;
    filter_only.refine = false;
    SearchResult filter = server.Search(token, k_prime, filter_only);
    SearchResult full = server.Search(token, k, base);

    // Oracle top-k of the filter candidates by plaintext distance.
    std::vector<Neighbor> oracle;
    for (VectorId id : filter.ids) {
      oracle.push_back(Neighbor{id, SquaredL2(ds.base.row(id), q, dim)});
    }
    std::sort(oracle.begin(), oracle.end());
    const std::size_t want_k = std::min(k, oracle.size());
    ASSERT_EQ(full.ids.size(), want_k);

    std::set<VectorId> want;
    for (std::size_t j = 0; j < want_k; ++j) want.insert(oracle[j].id);
    for (VectorId id : full.ids) {
      EXPECT_TRUE(want.count(id) > 0)
          << "dim=" << dim << " beta=" << beta << " query=" << qi;
    }
  }
}

TEST_P(SchemePropertyTest, DceComparatorIsStrictWeakOrdering) {
  const auto [dim, beta] = GetParam();
  (void)beta;  // the ordering property concerns the DCE layer only
  Rng rng(500 + dim);
  auto dce = DceScheme::KeyGen(dim, rng, 1.0);
  ASSERT_TRUE(dce.ok());

  const std::size_t n = 24;
  std::vector<DceCiphertext> cts;
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    for (auto& v : p) v = rng.Uniform(-1, 1);
    cts.push_back(dce->Encrypt(p.data(), rng));
    points.push_back(std::move(p));
  }
  std::vector<double> q(dim);
  for (auto& v : q) v = rng.Uniform(-1, 1);
  const DceTrapdoor tq = dce->GenTrapdoor(q.data(), rng);

  auto closer = [&](std::size_t a, std::size_t b) {
    return DceScheme::Closer(cts[a], cts[b], tq);
  };

  // Note on reflexivity: comparing an element with itself yields Z = 0 up
  // to floating-point residue (a near-zero coin flip). Algorithm 2 never
  // performs a self-comparison (candidate positions are distinct, and
  // CanonicalCloser answers a == b without Z), and dce_test's
  // SelfComparisonNearZero covers the |Z| ~ 0 behaviour. The load-bearing
  // properties here are asymmetry and transitivity over distinct points,
  // whose distances are well separated.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      EXPECT_NE(closer(a, b), closer(b, a)) << a << "," << b;
    }
  }
  // Transitivity over all triples.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t c = 0; c < n; ++c) {
        if (closer(a, b) && closer(b, c)) {
          EXPECT_TRUE(closer(a, c)) << a << "<" << b << "<" << c;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimBetaGrid, SchemePropertyTest,
    ::testing::Values(GridParam{7, 0.0}, GridParam{7, 2.0}, GridParam{16, 0.0},
                      GridParam{16, 2.0}, GridParam{16, 6.0},
                      GridParam{50, 0.0}, GridParam{50, 4.0}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return "d" + std::to_string(info.param.dim) + "_b" +
             std::to_string(static_cast<int>(info.param.beta * 10));
    });

}  // namespace
}  // namespace ppanns
