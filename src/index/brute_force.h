// Exact k-nearest-neighbor search by linear scan — the ground-truth oracle
// for recall measurement, optionally multi-threaded over the database.
// BruteForceIndex wraps the scan as a maintainable index (tombstone deletes,
// persistence) so it can back the filter phase as the exact reference point.

#ifndef PPANNS_INDEX_BRUTE_FORCE_H_
#define PPANNS_INDEX_BRUTE_FORCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/search_context.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"
#include "index/sq8.h"

namespace ppanns {

/// Exact top-k by squared L2 over `data` for a single query, ascending by
/// distance (ties broken by id).
std::vector<Neighbor> BruteForceKnn(const FloatMatrix& data, const float* query,
                                    std::size_t k);

/// Exact top-k for a batch of queries; parallelized over queries with the
/// global thread pool when `parallel` is true.
std::vector<std::vector<Neighbor>> BruteForceKnnBatch(const FloatMatrix& data,
                                                      const FloatMatrix& queries,
                                                      std::size_t k,
                                                      bool parallel = true);

/// Linear-scan index with stable dense ids and tombstone deletion. Removed
/// rows keep their slot (ids are never reused) but are skipped by Search.
///
/// With `sq.enabled`, an int8 scalar-quantized fast tier rides along: once
/// `sq.train_min` rows have accumulated, a per-dimension minmax quantizer is
/// fitted and every row is mirrored as one-byte codes. Search then scans the
/// codes with the widened-accumulator int8 kernel, keeps an oversampled
/// shortlist of `sq.refine_factor * k` candidates, and re-ranks it with exact
/// float distances — returned ids and distances stay the exact-scan answers.
class BruteForceIndex {
 public:
  explicit BruteForceIndex(std::size_t dim, SqParams sq = {});

  VectorId Add(const float* v);
  void AddBatch(const FloatMatrix& data);

  /// Tombstones `id`. InvalidArgument if out of range, NotFound if already
  /// deleted (matching HnswIndex::PlanRemove).
  Status Remove(VectorId id);

  /// Exact top-k over the live rows, ascending by (distance, id). `ctx`,
  /// when non-null, is probed every few rows: the scan stops early on
  /// cancellation / deadline / node budget (returning the best-so-far
  /// prefix) and nodes_visited / distance_computations accumulate into its
  /// stats. A null context is the zero-overhead legacy path.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               SearchContext* ctx = nullptr) const;

  bool IsDeleted(VectorId id) const { return deleted_[id] != 0; }
  std::size_t size() const { return data_.size() - num_deleted_; }
  std::size_t capacity() const { return data_.size(); }
  std::size_t dim() const { return dim_; }
  const FloatMatrix& data() const { return data_; }
  const SqParams& sq_params() const { return sq_params_; }
  /// True once the SQ tier is trained and answering searches.
  bool sq_active() const { return sq_.trained(); }

  /// Resident bytes: the row storage, the tombstone bitmap, and (when the SQ
  /// tier is trained) the int8 code mirror.
  std::size_t StorageBytes() const;

  void Serialize(BinaryWriter* out) const;
  static Result<BruteForceIndex> Deserialize(BinaryReader* in);

 private:
  /// Fits the quantizer over everything added so far and encodes all rows.
  void TrainSq();
  std::vector<Neighbor> SearchSq(const float* query, std::size_t k,
                                 SearchContext* ctx) const;

  std::size_t dim_;
  SqParams sq_params_;
  FloatMatrix data_;
  std::vector<std::uint8_t> deleted_;
  std::size_t num_deleted_ = 0;
  Sq8Quantizer sq_;
  std::vector<std::int8_t> codes_;  ///< capacity * dim, parallel to data_
};

}  // namespace ppanns

#endif  // PPANNS_INDEX_BRUTE_FORCE_H_
