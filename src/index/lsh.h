// E2LSH-style locality-sensitive hashing index for Euclidean distance —
// the candidate-generation substrate of the RS-SANN and PRI-ANN baselines
// (Section VII-B). p-stable projections: h(x) = floor((a.x + b) / w) with
// a ~ N(0, I_d), b ~ U[0, w); one composite key per table concatenates
// `num_hashes` such values. Optional multi-probe perturbs one hash at a time
// by +-1 to harvest adjacent buckets.

#ifndef PPANNS_INDEX_LSH_H_
#define PPANNS_INDEX_LSH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/search_context.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"
#include "index/flat_scan.h"

namespace ppanns {

struct LshParams {
  std::size_t num_tables = 8;   ///< L independent hash tables
  std::size_t num_hashes = 8;   ///< m concatenated projections per table
  double bucket_width = 4.0;    ///< w, in units of the data scale
  std::uint64_t seed = 0x15a;
};

/// Euclidean LSH index over a borrowed-copy of the dataset.
class LshIndex {
 public:
  LshIndex(std::size_t dim, LshParams params, Rng& rng);

  /// Self-seeded variant: projections drawn from Rng(params.seed).
  LshIndex(std::size_t dim, LshParams params);

  /// Inserts one vector; returns its id.
  VectorId Add(const float* v);
  void AddBatch(const FloatMatrix& data);

  /// Tombstones `id` and unhooks it from every hash table, so it can never
  /// surface as a candidate again. InvalidArgument if out of range, NotFound
  /// if already deleted (matching HnswIndex::PlanRemove).
  Status Remove(VectorId id);

  /// Ids in buckets matching the query across all tables (deduplicated).
  /// `probes_per_table` > 0 additionally probes that many +-1 perturbations
  /// of single hash coordinates per table (multi-probe LSH).
  std::vector<VectorId> Candidates(const float* query,
                                   std::size_t probes_per_table = 0) const;

  /// Full search: one FlatScan ranks the candidates by exact distance over
  /// the stored vectors and returns the top k. (Baselines instead ship
  /// candidates to the user.) `ctx` (nullable) makes the candidate scoring
  /// cancellable and accumulates nodes_visited / distance_computations (rows
  /// scored; hash projections are not counted) into its stats.
  std::vector<Neighbor> Search(const float* query, std::size_t k,
                               std::size_t probes_per_table = 0,
                               SearchContext* ctx = nullptr) const;

  bool IsDeleted(VectorId id) const { return rows_.IsDeleted(id); }
  std::size_t size() const { return rows_.size(); }
  std::size_t capacity() const { return rows_.capacity(); }
  std::size_t dim() const { return dim_; }
  const LshParams& params() const { return params_; }
  const FloatMatrix& data() const { return rows_.data(); }

  /// Average bucket occupancy of table 0 (distribution sanity in tests).
  double AvgBucketSize() const;

  /// Resident bytes: rows, projections/offsets, buckets, tombstone bitmap.
  std::size_t StorageBytes() const;

  void Serialize(BinaryWriter* out) const;
  static Result<LshIndex> Deserialize(BinaryReader* in);

 private:
  /// Draws the per-table projection vectors and offsets from `rng`.
  void InitProjections(Rng& rng);
  /// Composite 64-bit key of `query` in `table`.
  std::uint64_t HashKey(const float* v, std::size_t table) const;
  /// Raw per-hash integer values (before mixing), for multi-probe.
  void RawHashes(const float* v, std::size_t table,
                 std::vector<std::int64_t>* out) const;
  static std::uint64_t MixKey(const std::vector<std::int64_t>& hashes);

  std::size_t dim_;
  LshParams params_;
  FlatRows rows_;  ///< float rows + tombstones; LSH has no SQ tier
  /// projections_[t] is an (num_hashes x dim) row-major block; offsets_[t]
  /// the corresponding b values.
  std::vector<std::vector<float>> projections_;
  std::vector<std::vector<float>> offsets_;
  std::vector<std::unordered_map<std::uint64_t, std::vector<VectorId>>> tables_;
};

}  // namespace ppanns

#endif  // PPANNS_INDEX_LSH_H_
