// The selection structure of the refine phase (Algorithm 2): a bounded
// buffer of the k closest candidates, kept sorted closest-first, driven only
// by a comparison oracle.
//
// The server never sees distance *values* during refinement: DCE yields only
// the sign of dist(a,q) - dist(b,q). The buffer therefore runs entirely on a
// closer(a, b) predicate over candidate positions. A candidate that does not
// beat the current k-th costs one comparison; one that does is
// binary-inserted, O(log k) comparisons — the paper's O(k' log k) refine
// bound, with no extract pass at the end.

#ifndef PPANNS_CORE_SORTED_K_BUFFER_H_
#define PPANNS_CORE_SORTED_K_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace ppanns {

/// The refine's one ordering rule over candidate positions (indices into the
/// filter's candidate list). `z(o, p)` is the comparison oracle, e.g.
/// DistanceComp(C_o, C_p, T_q): negative iff o is closer to q than p. It is
/// always evaluated with the earlier position as `o`:
///
///   closer(a, b) = a < b ? z(a, b) < 0 : !(z(b, a) < 0)
///
/// so closer(a, b) == !closer(b, a) for every a != b. The raw sign is not
/// antisymmetric: at an exact plaintext tie z is rounding noise, and z(a, b)
/// and z(b, a) can share a sign. Under this rule such a tie ranks the same
/// way whatever sequence of comparisons asks about it. One oracle call per
/// comparison; closer(a, a) is false and calls nothing.
template <typename Z>
class CanonicalCloser {
 public:
  explicit CanonicalCloser(Z z) : z_(std::move(z)) {}

  bool operator()(VectorId a, VectorId b) const {
    if (a < b) return z_(a, b) < 0.0;
    return b < a && !(z_(b, a) < 0.0);
  }

 private:
  Z z_;
};

/// Bounded buffer of at most `capacity` candidate positions, sorted
/// closest-first under `closer(a, b)` ("a strictly closer to q than b").
/// Closer is called, never stored behind a std::function.
template <typename Closer>
class SortedKBuffer {
 public:
  SortedKBuffer(std::size_t capacity, Closer closer)
      : capacity_(capacity), closer_(std::move(closer)) {
    PPANNS_CHECK(capacity > 0);
    items_.reserve(capacity);
  }

  std::size_t size() const { return items_.size(); }
  bool full() const { return items_.size() >= capacity_; }

  /// Algorithm 2 insertion. When full, a candidate that is not closer than
  /// the k-th is rejected after that one comparison; otherwise the k-th is
  /// dropped. The candidate is then binary-inserted at the upper bound —
  /// after every kept element it is not closer than, so a tie lands after
  /// its equal. Returns true if kept.
  bool Offer(VectorId pos) {
    if (full()) {
      if (!closer_(pos, items_.back())) return false;
      items_.pop_back();
    }
    items_.insert(
        std::upper_bound(items_.begin(), items_.end(), pos, std::cref(closer_)),
        pos);
    return true;
  }

  /// Offers a block of candidates in order — the oracle sees exactly the
  /// comparison sequence of `n` sequential Offer calls, so the contents are
  /// identical; exists so callers can gather a block and prefetch the
  /// ciphertexts it will compare before the comparison-heavy offers run.
  void OfferBatch(const VectorId* positions, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Offer(positions[i]);
  }

  /// The kept positions, closest first.
  const std::vector<VectorId>& sorted() const { return items_; }

 private:
  std::size_t capacity_;
  Closer closer_;
  std::vector<VectorId> items_;
};

}  // namespace ppanns

#endif  // PPANNS_CORE_SORTED_K_BUFFER_H_
