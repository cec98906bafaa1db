// Tests for the synthetic dataset generators (see src/datagen/synthetic.h):
// each kind must match its real counterpart's dimension, value range and
// basic distributional shape; ground truth must be exact.

#include "datagen/synthetic.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/brute_force.h"

namespace ppanns {
namespace {

TEST(SyntheticTest, PaperDimsMatchTableI) {
  EXPECT_EQ(PaperDim(SyntheticKind::kSiftLike), 128u);
  EXPECT_EQ(PaperDim(SyntheticKind::kGistLike), 960u);
  EXPECT_EQ(PaperDim(SyntheticKind::kGloveLike), 100u);
  EXPECT_EQ(PaperDim(SyntheticKind::kDeepLike), 96u);
}

TEST(SyntheticTest, SiftLikeRangeAndIntegrality) {
  Rng rng(1);
  FloatMatrix data = GenerateSynthetic(SyntheticKind::kSiftLike, 500, 32, rng);
  for (float v : data.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 255.0f);
    EXPECT_EQ(v, std::round(v)) << "SIFT-like coordinates must be integral";
  }
}

TEST(SyntheticTest, GistLikeRange) {
  Rng rng(2);
  FloatMatrix data = GenerateSynthetic(SyntheticKind::kGistLike, 500, 48, rng);
  for (float v : data.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(SyntheticTest, DeepLikeUnitNorm) {
  Rng rng(3);
  FloatMatrix data = GenerateSynthetic(SyntheticKind::kDeepLike, 300, 24, rng);
  for (std::size_t i = 0; i < data.size(); ++i) {
    double norm2 = 0;
    for (std::size_t j = 0; j < data.dim(); ++j) {
      norm2 += double(data.at(i, j)) * data.at(i, j);
    }
    EXPECT_NEAR(std::sqrt(norm2), 1.0, 1e-4) << "row " << i;
  }
}

TEST(SyntheticTest, DataIsClustered) {
  // Clustered data must have substantially smaller NN distances than
  // random-uniform data of the same scale — the property that makes ANN
  // search (and the paper's graphs) meaningful.
  Rng rng(4);
  FloatMatrix data = GenerateSynthetic(SyntheticKind::kGloveLike, 1000, 16, rng, 8);
  Rng rng2(4);
  const DatasetStats stats = ComputeStats(data, rng2, 500);

  double nn_sum = 0.0;
  for (std::size_t i = 0; i < 50; ++i) {
    auto nn = BruteForceKnn(data, data.row(i), 2);  // [0]=self
    nn_sum += std::sqrt(double(nn[1].distance));
  }
  const double mean_nn = nn_sum / 50;
  EXPECT_LT(mean_nn, stats.mean_dist * 0.8)
      << "nearest neighbors are not closer than random pairs; no clustering";
}

TEST(SyntheticTest, StatsComputedCorrectly) {
  FloatMatrix data(2, 3);
  data.at(0, 0) = 3;
  data.at(0, 1) = 0;
  data.at(0, 2) = -4;  // norm 5
  data.at(1, 0) = 0;
  data.at(1, 1) = -12;
  data.at(1, 2) = 5;  // norm 13
  Rng rng(5);
  const DatasetStats stats = ComputeStats(data, rng, 10);
  EXPECT_EQ(stats.n, 2u);
  EXPECT_EQ(stats.dim, 3u);
  EXPECT_DOUBLE_EQ(stats.max_abs_coord, 12.0);
  EXPECT_DOUBLE_EQ(stats.mean_norm, 9.0);
  EXPECT_GT(stats.mean_dist, 0.0);
}

TEST(SyntheticTest, MakeDatasetSplitsAndGroundTruth) {
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, 400, 10, 5, 6, 12);
  EXPECT_EQ(ds.base.size(), 400u);
  EXPECT_EQ(ds.queries.size(), 10u);
  ASSERT_EQ(ds.ground_truth.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_EQ(ds.ground_truth[i].size(), 5u);
    // Ground truth must equal brute force.
    auto want = BruteForceKnn(ds.base, ds.queries.row(i), 5);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(ds.ground_truth[i][j].id, want[j].id);
    }
  }
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  Dataset a = MakeDataset(SyntheticKind::kSiftLike, 100, 5, 3, 42, 16);
  Dataset b = MakeDataset(SyntheticKind::kSiftLike, 100, 5, 3, 42, 16);
  EXPECT_EQ(a.base.data(), b.base.data());
  EXPECT_EQ(a.queries.data(), b.queries.data());
  Dataset c = MakeDataset(SyntheticKind::kSiftLike, 100, 5, 3, 43, 16);
  EXPECT_NE(a.base.data(), c.base.data());
}

TEST(SyntheticTest, MakeOrLoadFallsBackToSynthetic) {
  // No data/ directory in the test environment: must synthesize.
  Dataset ds = MakeOrLoadDataset(SyntheticKind::kDeepLike, 50, 5, 3, 7);
  EXPECT_EQ(ds.base.size(), 50u);
  EXPECT_EQ(ds.base.dim(), 96u);  // paper dim
}

}  // namespace
}  // namespace ppanns
