// The row store and the one scan shared by the flat backends (brute force,
// IVF, LSH).
//
// FlatRows is what each of them stores per row: the float rows under dense,
// never-reused ids, one tombstone byte per row, and — with the SQ8 tier
// enabled and trained — the quantizer and its int8 code mirror (see
// index/sq8.h). It also owns their shared serialized tail: rows, tombstones
// and the SQ sidecar.
//
// FlatScan is the blocked k-NN scan over such a store. The backends differ
// only in which rows they hand it: brute force every live row, IVF the
// probed posting lists (or every live row while untrained), LSH the bucket
// candidates.

#ifndef PPANNS_INDEX_FLAT_SCAN_H_
#define PPANNS_INDEX_FLAT_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/search_context.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"
#include "index/sq8.h"
#include "index/top_k.h"

namespace ppanns {

/// Float rows + tombstones + the optional SQ8 mirror. `name` prefixes the
/// Status messages ("IVF: bad id") and must outlive the store (a literal).
class FlatRows {
 public:
  FlatRows(const char* name, std::size_t dim, SqParams sq);

  /// Appends a row, encoding it into the code mirror once the quantizer is
  /// trained, and returns its id.
  VectorId Append(const float* v);

  /// Tombstones `id`: InvalidArgument ("<name>: bad id") if out of range,
  /// NotFound ("<name>: already deleted") if already tombstoned.
  Status Tombstone(VectorId id);

  /// Fits the quantizer on `sample` and encodes every stored row. A no-op
  /// when the tier is off, already trained, or `sample` is empty.
  void TrainSq(RowView sample);

  bool IsDeleted(VectorId id) const { return deleted_[id] != 0; }
  std::size_t size() const { return data_.size() - num_deleted_; }
  std::size_t capacity() const { return data_.size(); }
  std::size_t dim() const { return data_.dim(); }
  const FloatMatrix& data() const { return data_; }
  const SqParams& sq_params() const { return sq_params_; }
  bool sq_active() const { return sq_.trained(); }

  /// Float rows, tombstone bytes and int8 codes.
  std::size_t StorageBytes() const;

  /// Rows, tombstones, then — when the tier is enabled — the SQ sidecar
  /// (refine_factor, train_min, trained flag, quantizer, codes).
  void Serialize(BinaryWriter* out) const;
  /// Reads what Serialize wrote into this empty store; `has_sq` says
  /// whether the sidecar follows (the payload's version 2).
  Status Deserialize(BinaryReader* in, bool has_sq);

 private:
  friend class FlatScan;

  const std::int8_t* code(VectorId id) const {
    return codes_.data() + static_cast<std::size_t>(id) * dim();
  }

  const char* name_;
  SqParams sq_params_;
  FloatMatrix data_;
  std::vector<std::uint8_t> deleted_;
  std::size_t num_deleted_ = 0;
  Sq8Quantizer sq_;
  std::vector<std::int8_t> codes_;  ///< capacity * dim, parallel to data_
};

/// One top-k scan over a FlatRows, on the tier the store answers with: the
/// float rows into a TopK or, once the SQ8 mirror is trained, the int8 codes
/// into an SqShortlist whose ids Finish() re-ranks with exact float
/// distances. The shortlist keeps max(refine_factor * k, 32) entries, but
/// never more than the store's live rows: every id a scan offers is a
/// distinct live row, so a huge k costs no more memory than k = size().
///
/// Rows are gathered kKernelBlock at a time (prefetched), scored by one
/// batched kernel call and offered in scan order, pre-checked against the
/// selector's threshold. The context is probed per row — slot bn answers the
/// probe the unblocked loop would have asked for that row — so the node
/// budget is exact and cancellation/deadline checks are amortized. A stop
/// keeps the best-so-far prefix. Finish() adds nodes_visited (rows scored),
/// distance_computations (rows scored + refined + the caller's extra) and
/// the filter/refine wall times to the context's stats.
class FlatScan {
 public:
  FlatScan(const FlatRows& rows, const float* query, std::size_t k,
           SearchContext* ctx);

  /// Scores every live row in id order.
  void ScanLive();
  /// Scores the live rows `ids` in the given order. Several calls feed one
  /// selection (IVF's probed lists).
  void Scan(std::span<const VectorId> ids);
  /// Probes the context between two Scan calls, as the scan does between
  /// rows; true once the scan must stop.
  bool ShouldStop();

  /// The top-k ascending by (distance, id). `extra_distances` counts the
  /// caller's own distance work (IVF's centroid ranking) into the stats.
  std::vector<Neighbor> Finish(std::size_t extra_distances = 0);

 private:
  FlatScan(const FlatRows& rows, const float* query, std::size_t k,
           SearchContext* ctx, bool use_sq);

  /// The blocked gather → kernel → offer loop over the ids `next` yields.
  template <typename NextId>
  void Run(NextId next);

  const FlatRows& rows_;
  const float* query_;
  std::size_t k_;
  SearchContext* ctx_;
  CancelProbe probe_;
  const bool use_sq_;
  SearchContext::Clock::time_point start_{};
  std::size_t scanned_ = 0;
  bool stopped_ = false;
  TopK top_;                        ///< float tier
  SqShortlist shortlist_;           ///< SQ8 tier (capacity 0 on float)
  std::vector<std::int8_t> qcode_;  ///< SQ8 tier: the encoded query
};

}  // namespace ppanns

#endif  // PPANNS_INDEX_FLAT_SCAN_H_
