// Int8 scalar quantization (per-dimension minmax) for the filter-stage fast
// tier of the flat backends (brute force, IVF).
//
// The paper's filter/refine split makes lossy filter distances free
// recall-wise: the filter phase only has to surface a shortlist that contains
// the true neighbors, and the refine phase re-ranks with exact distances. The
// SQ tier exploits that — rows are quantized to one byte per dimension at
// build time (4x smaller than float, and the shuffle-free int8 kernel scans
// them several times faster), the scan keeps an oversampled shortlist of
// `refine_factor * k` candidates by int32 code distance, and the shortlist is
// re-ranked with exact float SquaredL2 before anything is returned. Returned
// ids and distances are therefore the exact-scan answers whenever the true
// top-k fall inside the shortlist (pinned at recall@10 == exact by
// tests/linalg/kernels_test.cc).
//
// Since DCPE applies a random rotation before the SAP ciphertexts reach the
// index, dimensions are statistically homogeneous and the unweighted int32
// code distance ranks candidates faithfully.

#ifndef PPANNS_INDEX_SQ8_H_
#define PPANNS_INDEX_SQ8_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "common/types.h"

namespace ppanns {

/// Filter-tier scalar-quantization knobs, threaded from PpannsParams down to
/// the flat backends through SecureFilterIndexOptions.
struct SqParams {
  /// Off by default: the SQ sidecar changes the serialized format (version 2)
  /// and packages must stay byte-identical unless the owner opts in (--sq).
  bool enabled = false;
  /// Shortlist size as a multiple of k; the refine stage re-ranks
  /// max(refine_factor * k, 32) candidates with exact float distances (never
  /// more than the rows the scan can offer).
  std::size_t refine_factor = 8;
  /// Brute force trains the quantizer once this many rows have accumulated;
  /// until then searches use the exact float scan. IVF ignores it: it trains
  /// its mirror together with k-means, on the same sample. The value is
  /// still kept in the PIVF v2 bytes.
  std::size_t train_min = 256;
};

/// Per-dimension minmax scalar quantizer with 7-bit codes stored as int8,
/// offset so code -64 is the dimension's minimum:
/// encode(v) = round((v - min) / scale) - 64 clamped to [-64, 63].
/// The 7-bit range is deliberate: any code difference then fits in int8
/// (|a-b| <= 127), which is SquaredL2Int8's range contract and what lets the
/// SIMD backends square byte differences without widening shuffles.
class Sq8Quantizer {
 public:
  Sq8Quantizer() = default;

  bool trained() const { return dim_ > 0; }
  std::size_t dim() const { return dim_; }

  /// Fits min/scale per dimension over `rows` (must be non-empty).
  void Train(RowView rows);

  /// Quantizes one row into `out` (dim int8 codes). Out-of-range values
  /// (rows added after training) clamp to the grid edge.
  void Encode(const float* v, std::int8_t* out) const;

  /// Reconstructs the grid point of a code; |Decode(Encode(x)) - x| is at
  /// most scale/2 per dimension for in-range x.
  void Decode(const std::int8_t* code, float* out) const;

  float min_at(std::size_t j) const { return min_[j]; }
  float scale_at(std::size_t j) const { return scale_[j]; }

  void Serialize(BinaryWriter* out) const;
  static Result<Sq8Quantizer> Deserialize(BinaryReader* in);

 private:
  std::size_t dim_ = 0;
  std::vector<float> min_;
  std::vector<float> scale_;  ///< (max - min) / 127, floored at a tiny epsilon
};

/// Deterministic bounded selector for the SQ filter scan: keeps the `cap`
/// smallest (code distance, id) pairs seen so far. Accepted offers append to
/// a flat buffer that is pruned back to `cap` with nth_element whenever it
/// fills — amortized O(1) per accept, against O(log cap) per accept for a
/// binary heap. The shortlist cap is refine_factor * k (an order of
/// magnitude above the float scans' k), so with concentrated code
/// distances the heap's sift-downs were the dominant non-kernel cost of the
/// filter stage. Selection depends only on the integer code distances and
/// the offer sequence, so it is identical across kernel backends.
class SqShortlist {
 public:
  explicit SqShortlist(std::size_t cap) : cap_(cap) {
    buf_.reserve(2 * cap_);
  }

  /// Offers with dist >= this are no-ops; hot loops can pre-check it and
  /// skip the call. Tightens as the buffer prunes.
  std::int32_t threshold() const { return limit_; }

  void Offer(VectorId id, std::int32_t dist) {
    if (dist >= limit_) return;
    buf_.push_back(Entry{dist, id});
    if (buf_.size() >= 2 * cap_) Prune();
  }

  /// Drains the selector: the kept ids sorted ascending by (dist, id).
  std::vector<VectorId> ExtractIds() {
    if (buf_.size() > cap_) Prune();
    std::sort(buf_.begin(), buf_.end(), Less);
    std::vector<VectorId> ids;
    ids.reserve(buf_.size());
    for (const Entry& e : buf_) ids.push_back(e.id);
    buf_.clear();
    return ids;
  }

 private:
  struct Entry {
    std::int32_t dist;
    VectorId id;
  };
  static bool Less(const Entry& a, const Entry& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
  }

  void Prune() {
    std::nth_element(buf_.begin(), buf_.begin() + (cap_ - 1), buf_.end(),
                     Less);
    limit_ = buf_[cap_ - 1].dist;
    buf_.resize(cap_);
  }

  std::size_t cap_;
  std::int32_t limit_ = std::numeric_limits<std::int32_t>::max();
  std::vector<Entry> buf_;
};

}  // namespace ppanns

#endif  // PPANNS_INDEX_SQ8_H_
