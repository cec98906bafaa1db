// Tests for the PpannsService facade: input validation (malformed requests
// come back as Status, never UB) and batched search (bitwise identical to a
// sequential loop, with aggregated counters).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "datagen/synthetic.h"

namespace ppanns {
namespace {

struct ServiceSystem {
  Dataset dataset;
  std::unique_ptr<DataOwner> owner;
  std::unique_ptr<PpannsService> service;
  std::unique_ptr<QueryClient> client;
};

ServiceSystem BuildService(IndexKind kind, std::size_t n, std::size_t nq,
                           std::uint64_t seed) {
  const std::size_t dim = 16;
  ServiceSystem sys;
  sys.dataset = MakeDataset(SyntheticKind::kGloveLike, n, nq, 0, seed, dim);

  PpannsParams params;
  params.dcpe_beta = 1.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = kind;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = seed};
  params.ivf = IvfParams{.num_lists = 8, .train_iters = 5, .seed = seed};
  params.seed = seed;

  auto owner = DataOwner::Create(dim, params);
  PPANNS_CHECK(owner.ok());
  sys.owner = std::make_unique<DataOwner>(std::move(*owner));
  sys.service = std::make_unique<PpannsService>(
      CloudServer(sys.owner->EncryptAndIndex(sys.dataset.base)));
  sys.client = std::make_unique<QueryClient>(sys.owner->ShareKeys(), seed + 1);
  return sys;
}

TEST(ServiceValidationTest, RejectsZeroK) {
  ServiceSystem sys = BuildService(IndexKind::kHnsw, 200, 1, 1);
  QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(0));
  auto r = sys.service->Search(token, 0);
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(ServiceValidationTest, RejectsDimensionMismatch) {
  ServiceSystem sys = BuildService(IndexKind::kHnsw, 200, 1, 2);
  QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(0));
  token.sap.resize(token.sap.size() + 3);  // corrupt the SAP payload length
  auto r = sys.service->Search(token, 10);
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(ServiceValidationTest, RejectsMalformedTrapdoor) {
  ServiceSystem sys = BuildService(IndexKind::kHnsw, 200, 1, 3);
  QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(0));
  token.trapdoor.data.resize(token.trapdoor.data.size() - 1);
  auto r = sys.service->Search(token, 10);
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);

  // Filter-only search never touches the trapdoor, so it must pass.
  auto filter_only =
      sys.service->Search(token, 10, SearchSettings{.refine = false});
  EXPECT_TRUE(filter_only.ok()) << filter_only.status().ToString();
}

TEST(ServiceValidationTest, RejectsEmptyDatabase) {
  const std::size_t dim = 8;
  PpannsParams params;
  params.dcpe_beta = 0.5;
  auto owner = DataOwner::Create(dim, params);
  ASSERT_TRUE(owner.ok());
  PpannsService service{CloudServer(owner->EncryptAndIndex(FloatMatrix(0, dim)))};
  QueryClient client(owner->ShareKeys(), 4);

  const float q[dim] = {1, 2, 3, 4, 5, 6, 7, 8};
  QueryToken token = client.EncryptQuery(q);
  auto r = service.Search(token, 10);
  EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);

  // SearchBatch must surface the same code as Search for the same condition.
  std::vector<QueryToken> tokens{token};
  auto batch = service.SearchBatch(tokens, 10);
  EXPECT_EQ(batch.status().code(), Status::Code::kFailedPrecondition);
}

TEST(ServiceValidationTest, RejectsMalformedInsert) {
  ServiceSystem sys = BuildService(IndexKind::kHnsw, 200, 1, 5);

  EncryptedVector ev = sys.owner->EncryptOne(sys.dataset.queries.row(0));
  ev.sap.resize(ev.sap.size() - 1);
  EXPECT_EQ(sys.service->Insert(ev).status().code(),
            Status::Code::kInvalidArgument);

  EncryptedVector ev2 = sys.owner->EncryptOne(sys.dataset.queries.row(0));
  ev2.dce.data.resize(ev2.dce.data.size() / 2);
  EXPECT_EQ(sys.service->Insert(ev2).status().code(),
            Status::Code::kInvalidArgument);

  // A DCE payload that is internally consistent (data = 4 * block) but sized
  // for the wrong dimension must also be rejected: the block length is fully
  // determined by dim().
  EncryptedVector ev3 = sys.owner->EncryptOne(sys.dataset.queries.row(0));
  ev3.dce.block += 2;
  ev3.dce.data.resize(4 * ev3.dce.block, 0.0);
  EXPECT_EQ(sys.service->Insert(ev3).status().code(),
            Status::Code::kInvalidArgument);

  // A well-formed pair passes and is searchable.
  EncryptedVector ok = sys.owner->EncryptOne(sys.dataset.queries.row(0));
  auto id = sys.service->Insert(ok);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 200u);
}

TEST(ServiceValidationTest, BatchReportsOffendingToken) {
  ServiceSystem sys = BuildService(IndexKind::kHnsw, 200, 4, 6);
  std::vector<QueryToken> tokens;
  for (std::size_t i = 0; i < 4; ++i) {
    tokens.push_back(sys.client->EncryptQuery(sys.dataset.queries.row(i)));
  }
  tokens[2].sap.clear();
  auto r = sys.service->SearchBatch(tokens, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(r.status().message().find("token 2"), std::string::npos)
      << r.status().message();
}

// The same validated facade must front the sharded topology: malformed
// requests come back as the identical Status codes, well-formed ones serve.
TEST(ServiceValidationTest, ValidatesShardedTopology) {
  const std::size_t dim = 16, n = 120;
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, n, 2, 0, 9, dim);
  PpannsParams params;
  params.dcpe_beta = 1.0;
  params.dce_scale_hint = 4.0;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 80, .seed = 9};
  params.num_shards = 3;
  params.seed = 9;
  auto owner = DataOwner::Create(dim, params);
  ASSERT_TRUE(owner.ok());
  PpannsService service{
      ShardedCloudServer(owner->EncryptAndIndexSharded(ds.base))};
  ASSERT_EQ(service.num_shards(), 3u);
  QueryClient client(owner->ShareKeys(), 10);

  QueryToken token = client.EncryptQuery(ds.queries.row(0));
  EXPECT_EQ(service.Search(token, 0).status().code(),
            Status::Code::kInvalidArgument);

  QueryToken short_sap = token;
  short_sap.sap.resize(dim - 1);
  EXPECT_EQ(service.Search(short_sap, 5).status().code(),
            Status::Code::kInvalidArgument);

  QueryToken short_trapdoor = token;
  short_trapdoor.trapdoor.data.pop_back();
  EXPECT_EQ(service.Search(short_trapdoor, 5).status().code(),
            Status::Code::kInvalidArgument);

  auto ok = service.Search(token, 5);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->ids.size(), 5u);

  EncryptedVector bad = owner->EncryptOne(ds.queries.row(1));
  bad.dce.data.pop_back();
  EXPECT_EQ(service.Insert(bad).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(ServiceBatchTest, EmptyBatchIsOk) {
  ServiceSystem sys = BuildService(IndexKind::kHnsw, 200, 1, 7);
  auto r = sys.service->SearchBatch({}, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->results.empty());
  EXPECT_EQ(r->counters.num_queries, 0u);
}

class ServiceBatchEquivalenceTest : public ::testing::TestWithParam<IndexKind> {};

// The acceptance bar: SearchBatch fans across the thread pool but must
// return bitwise-identical ids to a sequential Search loop over the same
// tokens — for >= 64 queries, on more than one backend.
TEST_P(ServiceBatchEquivalenceTest, BatchMatchesSequentialSearch) {
  const std::size_t nq = 64, k = 10;
  ServiceSystem sys = BuildService(GetParam(), 800, nq, 8);

  std::vector<QueryToken> tokens;
  tokens.reserve(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    tokens.push_back(sys.client->EncryptQuery(sys.dataset.queries.row(i)));
  }
  const SearchSettings settings{.k_prime = 40};

  std::vector<SearchResult> sequential;
  for (const QueryToken& token : tokens) {
    auto r = sys.service->Search(token, k, settings);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    sequential.push_back(std::move(*r));
  }

  auto batch = sys.service->SearchBatch(tokens, k, settings);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), nq);

  std::size_t want_candidates = 0, want_comparisons = 0;
  for (std::size_t i = 0; i < nq; ++i) {
    EXPECT_EQ(batch->results[i].ids, sequential[i].ids)
        << "query " << i << " diverged on " << IndexKindName(GetParam());
    want_candidates += sequential[i].counters.filter_candidates;
    want_comparisons += sequential[i].counters.dce_comparisons;
  }

  // Counter aggregation: sums of the (deterministic) per-query counters.
  EXPECT_EQ(batch->counters.num_queries, nq);
  EXPECT_EQ(batch->counters.total.filter_candidates, want_candidates);
  EXPECT_EQ(batch->counters.total.dce_comparisons, want_comparisons);
  EXPECT_GT(batch->counters.wall_seconds, 0.0);
  EXPECT_GT(batch->counters.total.filter_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceBatchEquivalenceTest,
                         ::testing::Values(IndexKind::kHnsw, IndexKind::kIvf,
                                           IndexKind::kBruteForce),
                         [](const ::testing::TestParamInfo<IndexKind>& info) {
                           return IndexKindName(info.param);
                         });

}  // namespace
}  // namespace ppanns
