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
#include "index/flat_scan.h"
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
/// shortlist, and re-ranks it with exact float distances (see FlatScan) —
/// returned ids and distances stay the exact-scan answers.
class BruteForceIndex {
 public:
  explicit BruteForceIndex(std::size_t dim, SqParams sq = {});

  VectorId Add(const float* v);
  void AddBatch(const FloatMatrix& data);

  /// Tombstones `id`. InvalidArgument if out of range, NotFound if already
  /// deleted (matching HnswIndex::PlanRemove).
  Status Remove(VectorId id);

  /// Exact top-k over the live rows, ascending by (distance, id): one
  /// FlatScan over every live row. `ctx`, when non-null, is probed per row:
  /// the scan stops early on cancellation / deadline / node budget
  /// (returning the best-so-far prefix), and nodes_visited /
  /// distance_computations accumulate into its stats.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               SearchContext* ctx = nullptr) const;

  bool IsDeleted(VectorId id) const { return rows_.IsDeleted(id); }
  std::size_t size() const { return rows_.size(); }
  std::size_t capacity() const { return rows_.capacity(); }
  std::size_t dim() const { return rows_.dim(); }
  const FloatMatrix& data() const { return rows_.data(); }
  const SqParams& sq_params() const { return rows_.sq_params(); }
  /// True once the SQ tier is trained and answering searches.
  bool sq_active() const { return rows_.sq_active(); }

  /// Resident bytes: the row storage, the tombstone bitmap, and (when the SQ
  /// tier is trained) the int8 code mirror.
  std::size_t StorageBytes() const { return rows_.StorageBytes(); }

  void Serialize(BinaryWriter* out) const;
  static Result<BruteForceIndex> Deserialize(BinaryReader* in);

 private:
  FlatRows rows_;
};

}  // namespace ppanns

#endif  // PPANNS_INDEX_BRUTE_FORCE_H_
