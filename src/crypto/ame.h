// AME — asymmetric matrix encryption (Zheng et al., IEEE TDSC 2024),
// revisited in Section III-C of the paper as the exact-but-costly secure
// distance comparison baseline.
//
// The TDSC construction itself is closed-source and not fully specified in
// this paper, so we implement a faithful-COST emulation with the
// exact shapes and operation counts Section III-C states:
//
//   * secret key: 32 random invertible matrices in R^{(2d+6) x (2d+6)}
//     (here: 16 pairs (ML_i, MR_i)),
//   * each database vector  -> 32 vectors in R^{2d+6}
//     (16 "row" forms + 16 "column" forms, fresh randomness each),
//   * each query vector     -> 16 matrices in R^{(2d+6) x (2d+6)},
//   * one comparison        -> 16 vector-matrix products + 16 inner
//     products ~ 64 d^2 + O(d) multiply-accumulates.
//
// Correctness: with the lift phi(p) = r_p * [p; ||p||^2; 1; random padding]
// and the rank-2 query form G(q) picking out (||o||^2 - 2 o.q) -
// (||p||^2 - 2 p.q), each of the 16 blinded terms equals
// (positive) * (dist(o,q) - dist(p,q)), so the sum's sign answers the
// comparison exactly — like the original AME, and like DCE, but at O(d^2)
// per comparison instead of O(d).

#ifndef PPANNS_CRYPTO_AME_H_
#define PPANNS_CRYPTO_AME_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace ppanns {

/// Number of (row, column) ciphertext pairs / trapdoor matrices.
inline constexpr std::size_t kAmeSplits = 16;

/// Database-vector ciphertext: 16 row forms + 16 column forms, each a
/// (2d+6)-vector — the "32 vectors" of Section III-C.
struct AmeCiphertext {
  Matrix rows;  ///< kAmeSplits x (2d+6)
  Matrix cols;  ///< kAmeSplits x (2d+6)
};

/// Query trapdoor: 16 matrices in R^{(2d+6) x (2d+6)}.
struct AmeTrapdoor {
  std::vector<Matrix> mats;
};

/// The AME scheme (cost-faithful emulation; see file header).
class AmeScheme {
 public:
  static Result<AmeScheme> KeyGen(std::size_t dim, Rng& rng,
                                  double scale_hint = 1.0);

  AmeCiphertext Encrypt(const double* p, Rng& rng) const;
  AmeCiphertext Encrypt(const float* p, Rng& rng) const;

  AmeTrapdoor GenTrapdoor(const double* q, Rng& rng) const;
  AmeTrapdoor GenTrapdoor(const float* q, Rng& rng) const;

  /// Z = sum_i row_i(o) * T_i * col_i(p); sign(Z) = sign(dist(o,q) -
  /// dist(p,q)). Server-side, no key required.
  static double DistanceComp(const AmeCiphertext& o, const AmeCiphertext& p,
                             const AmeTrapdoor& tq);

  std::size_t dim() const { return dim_; }
  /// Lifted dimension 2d+6.
  std::size_t lifted_dim() const { return 2 * dim_ + 6; }

 private:
  AmeScheme(std::size_t dim, double scale_hint) : dim_(dim), scale_(scale_hint) {}

  /// phi(p) = [p; ||p||^2; 1; random padding] scaled by a positive r.
  void Lift(const double* p, double r, Rng& rng, double* out) const;

  std::size_t dim_;
  double scale_;
  std::vector<InvertibleMatrix> left_;   // ML_i, i < kAmeSplits
  std::vector<InvertibleMatrix> right_;  // MR_i
};

}  // namespace ppanns

#endif  // PPANNS_CRYPTO_AME_H_
