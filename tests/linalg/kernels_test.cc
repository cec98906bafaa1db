// The distance-kernel layer contract (src/linalg/kernels.h):
//  * every SIMD path is BIT-EXACT against the canonical scalar kernels for
//    all dimensions (odd tails) and unaligned inputs — the blocked scans and
//    cross-ISA replica byte-equality depend on it;
//  * the int8 quantizer round-trips within scale/2 per dimension;
//  * every index backend returns identical ids under a forced-scalar and a
//    forced-SIMD dispatch (build AND search both re-run per ISA);
//  * the SQ filter tier leaves returned ids unchanged after exact refine.

#include "linalg/kernels.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "index/brute_force.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/lsh.h"
#include "index/sq8.h"

namespace ppanns {
namespace {

// The ISAs this build could dispatch to (besides scalar).
std::vector<KernelIsa> SupportedSimdIsas() {
  std::vector<KernelIsa> out;
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kNeon}) {
    if (KernelIsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

// Deterministic fill with values in a range where float error is visible.
void Fill(Rng& rng, float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.Gaussian(0.0, 10.0));
  }
}

// ---- Scalar kernels vs a naive double-precision reference. ------------------

TEST(KernelsTest, ScalarMatchesNaiveReference) {
  ScopedKernelIsa guard(KernelIsa::kScalar);
  Rng rng(0xD1);
  for (std::size_t d = 1; d <= 130; ++d) {
    std::vector<float> a(d), b(d);
    Fill(rng, a.data(), d);
    Fill(rng, b.data(), d);
    double l2 = 0.0, ip = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = static_cast<double>(a[j]) - b[j];
      l2 += diff * diff;
      ip += static_cast<double>(a[j]) * b[j];
    }
    EXPECT_NEAR(SquaredL2(a.data(), b.data(), d), l2, 1e-3 * (1.0 + l2))
        << "dim " << d;
    EXPECT_NEAR(InnerProduct(a.data(), b.data(), d), ip,
                1e-3 * (1.0 + std::abs(ip)))
        << "dim " << d;
  }
}

TEST(KernelsTest, ScalarDoubleMatchesNaiveReference) {
  ScopedKernelIsa guard(KernelIsa::kScalar);
  Rng rng(0xD2);
  for (std::size_t d = 1; d <= 130; ++d) {
    std::vector<double> a(d), b(d);
    for (std::size_t j = 0; j < d; ++j) {
      a[j] = rng.Gaussian(0.0, 10.0);
      b[j] = rng.Gaussian(0.0, 10.0);
    }
    double l2 = 0.0, dot = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = a[j] - b[j];
      l2 += diff * diff;
      dot += a[j] * b[j];
    }
    EXPECT_NEAR(SquaredL2(a.data(), b.data(), d), l2, 1e-9 * (1.0 + l2));
    EXPECT_NEAR(Dot(a.data(), b.data(), d), dot, 1e-9 * (1.0 + std::abs(dot)));
  }
}

// ---- Bit-exact SIMD/scalar agreement, all dims 1..130, unaligned inputs. ----

TEST(KernelsTest, SimdBitExactAgainstScalarAllDims) {
  for (KernelIsa isa : SupportedSimdIsas()) {
    Rng rng(0xB17);
    for (std::size_t d = 1; d <= 130; ++d) {
      // +1 slack so the tests can also run off an odd (unaligned) base.
      std::vector<float> abuf(d + 1), bbuf(d + 1);
      for (int unaligned = 0; unaligned < 2; ++unaligned) {
        float* a = abuf.data() + unaligned;
        float* b = bbuf.data() + unaligned;
        Fill(rng, a, d);
        Fill(rng, b, d);

        float sl2, sip, vl2, vip;
        {
          ScopedKernelIsa scalar(KernelIsa::kScalar);
          sl2 = SquaredL2(a, b, d);
          sip = InnerProduct(a, b, d);
        }
        {
          ScopedKernelIsa simd(isa);
          vl2 = SquaredL2(a, b, d);
          vip = InnerProduct(a, b, d);
        }
        // Bitwise equality, not EXPECT_FLOAT_EQ: the scan/build contracts
        // require identical bits, not ULP-closeness.
        EXPECT_EQ(std::memcmp(&sl2, &vl2, sizeof(float)), 0)
            << "l2 dim " << d << " unaligned " << unaligned;
        EXPECT_EQ(std::memcmp(&sip, &vip, sizeof(float)), 0)
            << "ip dim " << d << " unaligned " << unaligned;
      }
    }
  }
}

TEST(KernelsTest, SimdBitExactDoubleKernels) {
  for (KernelIsa isa : SupportedSimdIsas()) {
    Rng rng(0xB18);
    for (std::size_t d = 1; d <= 130; ++d) {
      std::vector<double> a(d), b(d);
      for (std::size_t j = 0; j < d; ++j) {
        a[j] = rng.Gaussian(0.0, 10.0);
        b[j] = rng.Gaussian(0.0, 10.0);
      }
      double sl2, sdot, vl2, vdot;
      {
        ScopedKernelIsa scalar(KernelIsa::kScalar);
        sl2 = SquaredL2(a.data(), b.data(), d);
        sdot = Dot(a.data(), b.data(), d);
      }
      {
        ScopedKernelIsa simd(isa);
        vl2 = SquaredL2(a.data(), b.data(), d);
        vdot = Dot(a.data(), b.data(), d);
      }
      EXPECT_EQ(std::memcmp(&sl2, &vl2, sizeof(double)), 0) << "dim " << d;
      EXPECT_EQ(std::memcmp(&sdot, &vdot, sizeof(double)), 0) << "dim " << d;
    }
  }
}

TEST(KernelsTest, SimdInt8KernelExact) {
  for (KernelIsa isa : SupportedSimdIsas()) {
    Rng rng(0xB19);
    for (std::size_t d = 1; d <= 130; ++d) {
      // Codes span the full 7-bit SQ range [-64, 63] — the kernel's range
      // contract (|a[i]-b[i]| <= 127); see SquaredL2Int8.
      std::vector<std::int8_t> a(d), b(d);
      for (std::size_t j = 0; j < d; ++j) {
        a[j] = static_cast<std::int8_t>(rng.UniformInt(-64, 63));
        b[j] = static_cast<std::int8_t>(rng.UniformInt(-64, 63));
      }
      std::int32_t expect = 0;
      for (std::size_t j = 0; j < d; ++j) {
        const std::int32_t diff =
            static_cast<std::int32_t>(a[j]) - static_cast<std::int32_t>(b[j]);
        expect += diff * diff;
      }
      std::int32_t s, v;
      {
        ScopedKernelIsa scalar(KernelIsa::kScalar);
        s = SquaredL2Int8(a.data(), b.data(), d);
      }
      {
        ScopedKernelIsa simd(isa);
        v = SquaredL2Int8(a.data(), b.data(), d);
      }
      // Integer arithmetic: both must be exactly the true value.
      EXPECT_EQ(s, expect) << "dim " << d;
      EXPECT_EQ(v, expect) << "dim " << d;
    }
  }
}

// ---- Batched variants must equal the one-to-one kernels elementwise. --------

TEST(KernelsTest, BatchMatchesSingle) {
  std::vector<KernelIsa> isas = SupportedSimdIsas();
  isas.push_back(KernelIsa::kScalar);
  Rng rng(0xBA7C);
  for (KernelIsa isa : isas) {
    ScopedKernelIsa guard(isa);
    for (std::size_t d : {1u, 7u, 8u, 33u, 128u}) {
      const std::size_t n = kKernelBlock + 3;  // exercise a ragged batch
      std::vector<float> q(d);
      Fill(rng, q.data(), d);
      FloatMatrix m(n, d);
      Fill(rng, m.data().data(), n * d);
      std::vector<const float*> rows(n);
      for (std::size_t i = 0; i < n; ++i) rows[i] = m.row(i);

      std::vector<float> l2(n), ip(n);
      L2Batch(q.data(), rows.data(), n, d, l2.data());
      IpBatch(q.data(), rows.data(), n, d, ip.data());
      for (std::size_t i = 0; i < n; ++i) {
        const float el = SquaredL2(q.data(), rows[i], d);
        const float ei = InnerProduct(q.data(), rows[i], d);
        EXPECT_EQ(std::memcmp(&l2[i], &el, sizeof(float)), 0);
        EXPECT_EQ(std::memcmp(&ip[i], &ei, sizeof(float)), 0);
      }

      std::vector<std::int8_t> qi(d);
      std::vector<std::vector<std::int8_t>> ri(n, std::vector<std::int8_t>(d));
      std::vector<const std::int8_t*> irows(n);
      for (std::size_t j = 0; j < d; ++j) {
        qi[j] = static_cast<std::int8_t>(rng.UniformInt(-64, 63));
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
          ri[i][j] = static_cast<std::int8_t>(rng.UniformInt(-64, 63));
        }
        irows[i] = ri[i].data();
      }
      std::vector<std::int32_t> il2(n);
      L2BatchInt8(qi.data(), irows.data(), n, d, il2.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(il2[i], SquaredL2Int8(qi.data(), irows[i], d));
      }
    }
  }
}

// ---- MatVec: every row bit-identical to its own dot product. ---------------

// The DCE trapdoor and the ASPE/AME transforms are MatVec products; tokens
// and ciphertexts keep their bytes only if each output equals the dot_f64 of
// its row exactly. Shapes cover every 4-row and 4-lane tail (1..9) plus the
// DCE half-block at d = 128 (68), its M3^-1 (272), and a ragged 17.
TEST(KernelsTest, MatVecF64BitExactAgainstRowDots) {
  std::vector<KernelIsa> isas = SupportedSimdIsas();
  isas.push_back(KernelIsa::kScalar);
  std::vector<std::size_t> dims;
  for (std::size_t n = 1; n <= 9; ++n) dims.push_back(n);
  for (std::size_t n : {17u, 68u, 272u}) dims.push_back(n);
  Rng rng(0x3A7);
  for (KernelIsa isa : isas) {
    ScopedKernelIsa guard(isa);
    for (std::size_t rows : dims) {
      for (std::size_t cols : dims) {
        std::vector<double> a(rows * cols), x(cols), y(rows);
        for (double& v : a) v = rng.Gaussian(0.0, 10.0);
        for (double& v : x) v = rng.Gaussian(0.0, 10.0);
        MatVecF64(a.data(), rows, cols, x.data(), y.data());
        for (std::size_t i = 0; i < rows; ++i) {
          const double want = Dot(a.data() + i * cols, x.data(), cols);
          ASSERT_EQ(std::memcmp(&y[i], &want, sizeof(double)), 0)
              << ActiveKernelName() << " " << rows << "x" << cols << " row "
              << i;
        }
      }
    }
  }
}

// ---- Dispatch controls. -----------------------------------------------------

TEST(KernelsTest, ForceAndScopedDispatch) {
  const KernelIsa before = ActiveKernelIsa();
  {
    ScopedKernelIsa guard(KernelIsa::kScalar);
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
    EXPECT_STREQ(ActiveKernelName(), "scalar");
  }
  EXPECT_EQ(ActiveKernelIsa(), before);
  EXPECT_TRUE(KernelIsaSupported(KernelIsa::kScalar));
  // At most one of AVX2/NEON can be live in one build.
  EXPECT_FALSE(KernelIsaSupported(KernelIsa::kAvx2) &&
               KernelIsaSupported(KernelIsa::kNeon));
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kNeon}) {
    if (!KernelIsaSupported(isa)) EXPECT_FALSE(ForceKernelIsa(isa));
  }
  ResetKernelIsa();
  EXPECT_EQ(ActiveKernelIsa(), before);
}

// ---- Int8 scalar quantizer. -------------------------------------------------

TEST(Sq8Test, RoundTripWithinHalfStep) {
  Rng rng(0x51);
  const std::size_t d = 33, n = 200;
  FloatMatrix m(n, d);
  Fill(rng, m.data().data(), n * d);
  Sq8Quantizer q;
  q.Train(m);
  ASSERT_TRUE(q.trained());
  ASSERT_EQ(q.dim(), d);

  std::vector<std::int8_t> code(d);
  std::vector<float> back(d);
  for (std::size_t i = 0; i < n; ++i) {
    q.Encode(m.row(i), code.data());
    q.Decode(code.data(), back.data());
    for (std::size_t j = 0; j < d; ++j) {
      // Half a grid step plus float slack.
      const float tol = q.scale_at(j) * 0.5f + 1e-5f;
      EXPECT_NEAR(back[j], m.at(i, j), tol) << "row " << i << " dim " << j;
    }
  }
}

TEST(Sq8Test, ConstantDimensionIsExact) {
  const std::size_t d = 4, n = 16;
  FloatMatrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    m.at(i, 0) = 3.25f;  // constant dimension
    m.at(i, 1) = static_cast<float>(i);
    m.at(i, 2) = -1.0f * static_cast<float>(i);
    m.at(i, 3) = 0.0f;
  }
  Sq8Quantizer q;
  q.Train(m);
  std::vector<std::int8_t> code(d);
  std::vector<float> back(d);
  q.Encode(m.row(5), code.data());
  q.Decode(code.data(), back.data());
  EXPECT_EQ(back[0], 3.25f);
  EXPECT_EQ(back[3], 0.0f);
}

TEST(Sq8Test, SerializeRoundTrip) {
  Rng rng(0x52);
  const std::size_t d = 17;
  FloatMatrix m(64, d);
  Fill(rng, m.data().data(), 64 * d);
  Sq8Quantizer q;
  q.Train(m);

  BinaryWriter w;
  q.Serialize(&w);
  BinaryReader r(w.buffer());
  Result<Sq8Quantizer> q2 = Sq8Quantizer::Deserialize(&r);
  ASSERT_TRUE(q2.ok());
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_EQ(q2->min_at(j), q.min_at(j));
    EXPECT_EQ(q2->scale_at(j), q.scale_at(j));
  }
}

// ---- Backend id-equality pins: forced scalar == forced SIMD. ----------------

FloatMatrix RandomData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  FloatMatrix m(n, d);
  Fill(rng, m.data().data(), n * d);
  return m;
}

std::vector<std::vector<VectorId>> BuildAndSearchAll(
    const FloatMatrix& data, const FloatMatrix& queries, std::size_t k) {
  const std::size_t d = data.dim();
  std::vector<std::vector<VectorId>> out;

  HnswIndex hnsw(d, HnswParams{.m = 8, .ef_construction = 64, .seed = 11});
  IvfIndex ivf(d, IvfParams{.num_lists = 8, .train_iters = 5, .seed = 12});
  LshIndex lsh(d, LshParams{.num_tables = 6, .num_hashes = 6,
                            .bucket_width = 40.0, .seed = 13});
  BruteForceIndex brute(d);
  for (std::size_t i = 0; i < data.size(); ++i) {
    hnsw.Add(data.row(i));
    ivf.Add(data.row(i));
    lsh.Add(data.row(i));
    brute.Add(data.row(i));
  }
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const float* q = queries.row(qi);
    auto push = [&](const std::vector<Neighbor>& res) {
      std::vector<VectorId> ids;
      for (const Neighbor& n : res) ids.push_back(n.id);
      out.push_back(std::move(ids));
    };
    push(hnsw.Search(q, k, /*ef=*/48));
    push(ivf.Search(q, k, /*nprobe=*/4));
    push(lsh.Search(q, k, /*probes=*/4));
    push(brute.Search(q, k));
  }
  return out;
}

TEST(KernelsTest, BackendIdsIdenticalAcrossDispatch) {
  const FloatMatrix data = RandomData(300, 33, 0xDA7A);
  const FloatMatrix queries = RandomData(5, 33, 0xCAFE);
  const std::size_t k = 10;

  std::vector<std::vector<VectorId>> scalar_ids;
  {
    ScopedKernelIsa guard(KernelIsa::kScalar);
    scalar_ids = BuildAndSearchAll(data, queries, k);
  }
  for (KernelIsa isa : SupportedSimdIsas()) {
    ScopedKernelIsa guard(isa);
    const auto simd_ids = BuildAndSearchAll(data, queries, k);
    ASSERT_EQ(simd_ids.size(), scalar_ids.size());
    for (std::size_t i = 0; i < simd_ids.size(); ++i) {
      EXPECT_EQ(simd_ids[i], scalar_ids[i]) << "result set " << i;
    }
  }
}

// ---- SQ filter tier: refined results equal the exact-scan results. ----------

TEST(Sq8Test, BruteForceSqIdsMatchExactScan) {
  const std::size_t d = 48, n = 500, k = 10;
  const FloatMatrix data = RandomData(n, d, 0x5C1);
  const FloatMatrix queries = RandomData(8, d, 0x5C2);

  BruteForceIndex plain(d);
  BruteForceIndex sq(d, SqParams{.enabled = true, .refine_factor = 8,
                                 .train_min = 64});
  for (std::size_t i = 0; i < n; ++i) {
    plain.Add(data.row(i));
    sq.Add(data.row(i));
  }
  ASSERT_TRUE(sq.sq_active());
  ASSERT_FALSE(plain.sq_active());

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto exact = plain.Search(queries.row(qi), k);
    const auto filtered = sq.Search(queries.row(qi), k);
    ASSERT_EQ(filtered.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(filtered[i].id, exact[i].id) << "query " << qi << " rank " << i;
      // Refine restores exact float distances, bit for bit.
      EXPECT_EQ(filtered[i].distance, exact[i].distance);
    }
  }
}

TEST(Sq8Test, IvfSqIdsMatchExactScanAtFullProbe) {
  const std::size_t d = 48, n = 500, k = 10;
  const FloatMatrix data = RandomData(n, d, 0x5C3);
  const FloatMatrix queries = RandomData(8, d, 0x5C4);

  const IvfParams params{.num_lists = 8, .train_iters = 5, .seed = 21};
  IvfIndex plain(d, params);
  IvfIndex sq(d, params,
              SqParams{.enabled = true, .refine_factor = 8, .train_min = 64});
  for (std::size_t i = 0; i < n; ++i) {
    plain.Add(data.row(i));
    sq.Add(data.row(i));
  }
  ASSERT_TRUE(plain.trained());
  ASSERT_TRUE(sq.sq_active());

  // Probing every list makes both sides exhaustive, so ids must agree
  // whenever the true top-k survive the 8x-oversampled shortlist.
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto exact = plain.Search(queries.row(qi), k, /*nprobe=*/8);
    const auto filtered = sq.Search(queries.row(qi), k, /*nprobe=*/8);
    ASSERT_EQ(filtered.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(filtered[i].id, exact[i].id) << "query " << qi << " rank " << i;
      EXPECT_EQ(filtered[i].distance, exact[i].distance);
    }
  }
}

TEST(Sq8Test, SqIndexSerializeRoundTrip) {
  const std::size_t d = 24, n = 300, k = 10;
  const FloatMatrix data = RandomData(n, d, 0x5C5);
  const float* q = data.row(0);

  BruteForceIndex brute(d, SqParams{.enabled = true, .refine_factor = 8,
                                    .train_min = 64});
  IvfIndex ivf(d, IvfParams{.num_lists = 4, .train_iters = 4, .seed = 31},
               SqParams{.enabled = true, .refine_factor = 8, .train_min = 64});
  for (std::size_t i = 0; i < n; ++i) {
    brute.Add(data.row(i));
    ivf.Add(data.row(i));
  }
  ASSERT_TRUE(brute.sq_active());
  ASSERT_TRUE(ivf.sq_active());

  BinaryWriter bw, iw;
  brute.Serialize(&bw);
  ivf.Serialize(&iw);
  BinaryReader br(bw.buffer()), ir(iw.buffer());
  Result<BruteForceIndex> brute2 = BruteForceIndex::Deserialize(&br);
  Result<IvfIndex> ivf2 = IvfIndex::Deserialize(&ir);
  ASSERT_TRUE(brute2.ok()) << brute2.status().ToString();
  ASSERT_TRUE(ivf2.ok()) << ivf2.status().ToString();
  EXPECT_TRUE(brute2->sq_active());
  EXPECT_TRUE(ivf2->sq_active());

  const auto b1 = brute.Search(q, k);
  const auto b2 = brute2->Search(q, k);
  const auto i1 = ivf.Search(q, k, 4);
  const auto i2 = ivf2->Search(q, k, 4);
  ASSERT_EQ(b1.size(), b2.size());
  ASSERT_EQ(i1.size(), i2.size());
  for (std::size_t i = 0; i < b1.size(); ++i) EXPECT_EQ(b1[i].id, b2[i].id);
  for (std::size_t i = 0; i < i1.size(); ++i) EXPECT_EQ(i1[i].id, i2[i].id);
}

}  // namespace
}  // namespace ppanns
