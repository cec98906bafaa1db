// Paillier additively homomorphic encryption — the "homomorphic encryption"
// family of distance-comparable encryption the paper cites (Section I /
// Section III) and excludes from its evaluation "due to their significant
// computational overhead". This implementation exists to *reproduce that
// exclusion quantitatively*: bench/he_exclusion measures a Paillier-based
// secure distance computation against DCE/AME on the same data.
//
// Standard construction with g = n + 1:
//   KeyGen:  n = p*q (distinct primes), lambda = lcm(p-1, q-1),
//            mu = (L(g^lambda mod n^2))^{-1} mod n, L(x) = (x-1)/n.
//   Enc(m):  c = (1 + m*n) * r^n mod n^2, r uniform in Z_n^*.
//   Dec(c):  m = L(c^lambda mod n^2) * mu mod n.
//   Add:     Enc(m1) * Enc(m2) mod n^2        = Enc(m1 + m2)
//   ScalarMul: Enc(m)^k mod n^2               = Enc(k * m)
//
// Paillier stands in for SEAL/HElib, which are unavailable offline; it is
// the classic instantiation of the HE-based secure kNN protocols the paper
// cites ([34], [42], [43]).

#ifndef PPANNS_CRYPTO_PAILLIER_H_
#define PPANNS_CRYPTO_PAILLIER_H_

#include <cstdint>
#include <vector>

#include "common/bigint.h"
#include "common/rng.h"
#include "common/status.h"

namespace ppanns {

/// A Paillier ciphertext: an element of Z_{n^2}.
struct PaillierCiphertext {
  BigUint value;
};

class Paillier {
 public:
  /// Generates a keypair with `modulus_bits`-bit n (each prime gets half).
  /// 512-bit keys are fine for cost benchmarking; real deployments need
  /// >= 2048.
  static Result<Paillier> KeyGen(std::size_t modulus_bits, Rng& rng);

  /// Encrypts m in [0, n). Randomized.
  PaillierCiphertext Encrypt(const BigUint& m, Rng& rng) const;
  PaillierCiphertext Encrypt(std::uint64_t m, Rng& rng) const {
    return Encrypt(BigUint(m), rng);
  }

  /// Decrypts to m in [0, n).
  BigUint Decrypt(const PaillierCiphertext& c) const;

  /// Homomorphic addition: Enc(a) (+) Enc(b) = Enc(a + b mod n).
  PaillierCiphertext Add(const PaillierCiphertext& a,
                         const PaillierCiphertext& b) const;

  /// Homomorphic plaintext addition: Enc(a) (+) b.
  PaillierCiphertext AddPlain(const PaillierCiphertext& a, const BigUint& b,
                              Rng& rng) const;

  /// Homomorphic scalar multiplication: Enc(a) (*) k = Enc(k * a mod n).
  PaillierCiphertext ScalarMul(const PaillierCiphertext& a,
                               const BigUint& k) const;

  /// Encodes a signed 64-bit integer into Z_n (negatives wrap to n - |v|).
  BigUint EncodeSigned(std::int64_t v) const;
  /// Decodes assuming |value| < n/2.
  std::int64_t DecodeSigned(const BigUint& m) const;

  const BigUint& n() const { return n_; }
  const BigUint& n_squared() const { return n2_; }

 private:
  Paillier() = default;

  BigUint n_, n2_, lambda_, mu_;
};

/// The HE-based secure squared-distance protocol used by the exclusion
/// benchmark: the server holds coordinate-wise Paillier ciphertexts of a
/// database vector p (integer-quantized), receives the plaintext-encoded
/// query expansion, and homomorphically assembles
/// Enc(||p||^2 - 2 p.q + ||q||^2) — d scalar multiplications (modexp each)
/// plus d homomorphic additions per distance. The (authorized) user decrypts
/// and compares. This mirrors the structure of the HE secure-kNN schemes
/// the paper cites.
class HeDistanceProtocol {
 public:
  explicit HeDistanceProtocol(const Paillier& paillier) : he_(&paillier) {}

  /// Owner-side: encrypts p coordinate-wise plus Enc(||p||^2).
  struct EncryptedVector {
    std::vector<PaillierCiphertext> coords;
    PaillierCiphertext norm2;
  };
  EncryptedVector EncryptVector(const std::vector<std::int64_t>& p,
                                Rng& rng) const;

  /// Server-side: Enc(dist^2(p, q)) from the encrypted p and plaintext q.
  /// (q is visible to the server in this simplified protocol variant; the
  /// cost — d modexps — is what the benchmark measures, and blinding q
  /// only adds further cost.)
  PaillierCiphertext DistanceCiphertext(const EncryptedVector& p,
                                        const std::vector<std::int64_t>& q,
                                        Rng& rng) const;

  /// User-side: decrypt and decode the squared distance.
  std::int64_t DecryptDistance(const PaillierCiphertext& c) const;

 private:
  const Paillier* he_;
};

}  // namespace ppanns

#endif  // PPANNS_CRYPTO_PAILLIER_H_
