// IVF (inverted file) index with from-scratch Lloyd k-means — the third
// index family the paper names alongside LSH and proximity graphs
// (Section I: "index structures like locality-sensitive hashing, inverted
// files, and proximity graphs"). Used by bench/ablation_graphs to show how
// the filter-phase substrate choice affects the encrypted search, and as a
// filter backend for the encrypted database.
//
// Train: k-means over a sample; Add: route each vector to its nearest
// centroid's posting list; Search: scan the `nprobe` nearest lists.
//
// Training may be explicit (Train) or automatic: vectors added to an
// untrained index are buffered, and once enough have accumulated the index
// trains itself on them (seeded by IvfParams::seed, so the result is
// deterministic). Until then Search falls back to an exact linear scan.

#ifndef PPANNS_INDEX_IVF_H_
#define PPANNS_INDEX_IVF_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/search_context.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"
#include "index/flat_scan.h"
#include "index/sq8.h"

namespace ppanns {

struct IvfParams {
  std::size_t num_lists = 64;   ///< k-means cluster count
  std::size_t train_iters = 10; ///< Lloyd iterations
  std::uint64_t seed = 0x1cf;   ///< auto-training randomness
  /// Auto-train once this many vectors have been added (0 => 4 * num_lists).
  std::size_t auto_train_min = 0;
};

/// With `sq.enabled`, the posting-list scan runs over an int8 scalar-quantized
/// code mirror (trained alongside k-means, on the same sample) and an
/// oversampled shortlist is re-ranked with exact float distances — see
/// FlatScan.
class IvfIndex {
 public:
  IvfIndex(std::size_t dim, IvfParams params, SqParams sq = {});

  /// Runs k-means on `sample` to position the centroids, then routes any
  /// already-added vectors. Returns the final mean quantization error.
  double Train(const FloatMatrix& sample, Rng& rng);

  /// Appends a vector. If the index is trained it is routed to a posting
  /// list immediately; otherwise it is buffered, and once the auto-train
  /// threshold is reached the index trains itself on everything buffered.
  VectorId Add(const float* v);
  void AddBatch(const FloatMatrix& data);

  /// Tombstones `id` and drops it from its posting list. InvalidArgument if
  /// out of range, NotFound if already deleted (matching HnswIndex::PlanRemove).
  Status Remove(VectorId id);

  /// Ranks the centroids and runs one FlatScan over the `nprobe` closest
  /// posting lists; exact ranking within them. Untrained indexes scan every
  /// live row instead. `ctx` (nullable) makes the scan cancellable and
  /// accumulates nodes_visited (rows scored) and distance_computations (rows
  /// scored + SQ refine + centroid ranking) into its stats.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t nprobe,
                               SearchContext* ctx = nullptr) const;

  bool trained() const { return !centroids_.empty(); }
  const SqParams& sq_params() const { return rows_.sq_params(); }
  /// True once the SQ tier is trained and answering posting scans.
  bool sq_active() const { return rows_.sq_active(); }
  bool IsDeleted(VectorId id) const { return rows_.IsDeleted(id); }
  std::size_t size() const { return rows_.size(); }
  std::size_t capacity() const { return rows_.capacity(); }
  std::size_t dim() const { return dim_; }
  const IvfParams& params() const { return params_; }
  const FloatMatrix& centroids() const { return centroids_; }
  const FloatMatrix& data() const { return rows_.data(); }
  /// Occupancy of list `i` (balance diagnostics).
  std::size_t ListSize(std::size_t i) const { return lists_[i].size(); }

  /// Resident bytes: rows, centroids, posting lists, tombstone bitmap.
  std::size_t StorageBytes() const;

  void Serialize(BinaryWriter* out) const;
  static Result<IvfIndex> Deserialize(BinaryReader* in);

 private:
  std::size_t NearestCentroid(const float* v) const;
  /// Routes every live row into its posting list (post-training).
  void RouteAll();
  /// The Lloyd iterations shared by Train and auto-training.
  double RunKmeans(const FloatMatrix& sample, Rng& rng);

  std::size_t dim_;
  IvfParams params_;
  FloatMatrix centroids_;
  FlatRows rows_;
  std::vector<std::vector<VectorId>> lists_;
};

}  // namespace ppanns

#endif  // PPANNS_INDEX_IVF_H_
