// Synthetic dataset generators matched to the paper's evaluation datasets
// (Table I). The real SIFT1M/GIST/GloVe/Deep1M files are public but not
// available offline, so we generate
// Gaussian-mixture data matched on dimension, value range and cluster
// structure, and fall back to the real .fvecs/.bvecs files when present.
//
//   Sift1M-like : d=128, integer coordinates in [0,255] (SIFT descriptors)
//   Gist-like   : d=960, floats in [0,1] (GIST global descriptors)
//   Glove-like  : d=100, zero-mean dense word embeddings
//   Deep1M-like : d=96,  L2-normalized CNN descriptors

#ifndef PPANNS_DATAGEN_SYNTHETIC_H_
#define PPANNS_DATAGEN_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace ppanns {

enum class SyntheticKind {
  kSiftLike,
  kGistLike,
  kGloveLike,
  kDeepLike,
};

/// A base set, query set and (optionally) exact ground truth.
struct Dataset {
  std::string name;
  FloatMatrix base;
  FloatMatrix queries;
  /// ground_truth[i] = exact k nearest neighbors of queries[i] in base.
  std::vector<std::vector<Neighbor>> ground_truth;
};

/// Summary statistics consumed by key tuning (DCPE beta range needs M = max
/// |coordinate|; DCE scale hints use the mean norm).
struct DatasetStats {
  std::size_t n = 0;
  std::size_t dim = 0;
  double max_abs_coord = 0.0;  ///< M in the DCPE beta range [sqrt(M), 2M sqrt(d)]
  double mean_norm = 0.0;      ///< average ||p||
  double mean_dist = 0.0;      ///< average pairwise distance (sampled)
};

DatasetStats ComputeStats(const FloatMatrix& data, Rng& rng,
                          std::size_t pair_samples = 1000);

/// Gaussian-mixture generator: `num_clusters` centers, isotropic noise.
/// Post-processing per `kind` (clipping / rounding / normalization).
FloatMatrix GenerateSynthetic(SyntheticKind kind, std::size_t n,
                              std::size_t dim, Rng& rng,
                              std::size_t num_clusters = 64);

/// Paper dimension for each kind (Table I).
std::size_t PaperDim(SyntheticKind kind);
/// Paper dataset name for each kind.
std::string PaperName(SyntheticKind kind);

/// Builds a full dataset (base + queries drawn from the same mixture +
/// exact ground truth for `gt_k` neighbors). Queries are generated jointly
/// with the base so they follow the data distribution, as in the real
/// benchmark query sets.
Dataset MakeDataset(SyntheticKind kind, std::size_t n, std::size_t num_queries,
                    std::size_t gt_k, std::uint64_t seed,
                    std::size_t dim_override = 0);

/// Loads the real dataset from `data/<name>/` if the fvecs/bvecs files exist
/// (e.g. data/sift/sift_base.fvecs), else generates the synthetic stand-in.
/// Ground truth is always recomputed exactly for the loaded subset.
Dataset MakeOrLoadDataset(SyntheticKind kind, std::size_t n,
                          std::size_t num_queries, std::size_t gt_k,
                          std::uint64_t seed);

}  // namespace ppanns

#endif  // PPANNS_DATAGEN_SYNTHETIC_H_
