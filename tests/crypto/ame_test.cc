// Tests for the AME baseline: exact comparison correctness, the Section
// III-C ciphertext/key shapes, and randomization properties.

#include "crypto/ame.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/auth.h"

namespace ppanns {
namespace {

std::vector<double> RandomVector(std::size_t d, Rng& rng) {
  std::vector<double> v(d);
  for (auto& x : v) x = rng.Uniform(-1, 1);
  return v;
}

double Dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

TEST(AmeTest, ShapesMatchSectionIIIC) {
  Rng rng(1);
  const std::size_t d = 10;
  auto scheme = AmeScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->lifted_dim(), 2 * d + 6);

  const std::vector<double> p = RandomVector(d, rng);
  const AmeCiphertext c = scheme->Encrypt(p.data(), rng);
  // "Each database vector is encrypted into 32 vectors in R^{2d+6}".
  EXPECT_EQ(c.rows.rows() + c.cols.rows(), 32u);
  EXPECT_EQ(c.rows.cols(), 2 * d + 6);
  EXPECT_EQ(c.cols.cols(), 2 * d + 6);

  // "Each query vector into 16 matrices in R^{(2d+6)x(2d+6)}".
  const AmeTrapdoor t = scheme->GenTrapdoor(p.data(), rng);
  EXPECT_EQ(t.mats.size(), 16u);
  for (const auto& m : t.mats) {
    EXPECT_EQ(m.rows(), 2 * d + 6);
    EXPECT_EQ(m.cols(), 2 * d + 6);
  }
}

TEST(AmeTest, SignCorrectness) {
  Rng rng(2);
  const std::size_t d = 16;
  auto scheme = AmeScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());

  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<double> o = RandomVector(d, rng);
    const std::vector<double> p = RandomVector(d, rng);
    const std::vector<double> q = RandomVector(d, rng);
    const AmeCiphertext co = scheme->Encrypt(o.data(), rng);
    const AmeCiphertext cp = scheme->Encrypt(p.data(), rng);
    const AmeTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);

    const double z = AmeScheme::DistanceComp(co, cp, tq);
    const double truth = Dist2(o, q) - Dist2(p, q);
    ASSERT_EQ(z < 0.0, truth < 0.0)
        << "trial " << trial << " z=" << z << " truth=" << truth;
  }
}

TEST(AmeTest, SignCorrectAcrossDims) {
  for (std::size_t d : {2u, 5u, 32u, 64u}) {
    Rng rng(100 + d);
    auto scheme = AmeScheme::KeyGen(d, rng, 1.0);
    ASSERT_TRUE(scheme.ok());
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<double> o = RandomVector(d, rng);
      const std::vector<double> p = RandomVector(d, rng);
      const std::vector<double> q = RandomVector(d, rng);
      const AmeCiphertext co = scheme->Encrypt(o.data(), rng);
      const AmeCiphertext cp = scheme->Encrypt(p.data(), rng);
      const AmeTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);
      const double z = AmeScheme::DistanceComp(co, cp, tq);
      const double truth = Dist2(o, q) - Dist2(p, q);
      ASSERT_EQ(z < 0.0, truth < 0.0) << "d=" << d << " trial=" << trial;
    }
  }
}

TEST(AmeTest, EncryptionIsRandomized) {
  Rng rng(3);
  const std::size_t d = 8;
  auto scheme = AmeScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  const std::vector<double> p = RandomVector(d, rng);
  const AmeCiphertext c1 = scheme->Encrypt(p.data(), rng);
  const AmeCiphertext c2 = scheme->Encrypt(p.data(), rng);
  EXPECT_FALSE(c1.rows.data() == c2.rows.data());
  EXPECT_FALSE(c1.cols.data() == c2.cols.data());
}

TEST(AmeTest, KeyGenRejectsZeroDim) {
  Rng rng(4);
  EXPECT_FALSE(AmeScheme::KeyGen(0, rng).ok());
}

TEST(AmeTest, SelfComparisonNearZero) {
  Rng rng(5);
  const std::size_t d = 12;
  auto scheme = AmeScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  const std::vector<double> p = RandomVector(d, rng);
  const std::vector<double> q = RandomVector(d, rng);
  const AmeCiphertext c1 = scheme->Encrypt(p.data(), rng);
  const AmeCiphertext c2 = scheme->Encrypt(p.data(), rng);
  const AmeTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);
  EXPECT_NEAR(AmeScheme::DistanceComp(c1, c2, tq), 0.0, 1e-6);
}

// One AME ciphertext and trapdoor for fixed seeds, pinned by SHA-256: both
// run MatVec (16 right-key inverses per ciphertext, 16 left keys per
// trapdoor), so a kernel change that moved a bit would show here. At d = 24
// the lifted dimension is 54, which leaves a 2-row and a 2-column tail. The
// digest was recorded before MatVec had a multi-row kernel.
TEST(AmeTest, CiphertextBytesMatchParentFormat) {
  const std::size_t d = 24;
  Rng rng(2024);
  auto scheme = AmeScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  const std::vector<double> p = RandomVector(d, rng);
  const std::vector<double> q = RandomVector(d, rng);
  const AmeCiphertext c = scheme->Encrypt(p.data(), rng);
  const AmeTrapdoor t = scheme->GenTrapdoor(q.data(), rng);
  std::vector<double> all(c.rows.data().begin(), c.rows.data().end());
  all.insert(all.end(), c.cols.data().begin(), c.cols.data().end());
  for (const Matrix& m : t.mats) {
    all.insert(all.end(), m.data().begin(), m.data().end());
  }
  std::string hex;
  for (std::uint8_t b :
       Sha256(reinterpret_cast<const std::uint8_t*>(all.data()),
              all.size() * sizeof(double))) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  constexpr char kSha256[] =
      "de2256042a780742a60f1ae93be44aae4aa02b820d9a706eca1b9dc8d90a8261";
  EXPECT_EQ(hex, kSha256);
}

}  // namespace
}  // namespace ppanns
