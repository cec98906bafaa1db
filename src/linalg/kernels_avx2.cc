// AVX2 kernel table. Compiled with -mavx2 (and -ffp-contract=off) on x86;
// every float/double sum reproduces the canonical scalar accumulation order
// bit-for-bit: one 256-bit accumulator (lane j sums elements j, j+8, ...),
// an hadd-free reduction tree matching kernels.cc, a sequential scalar tail,
// and no FMA — -mavx2 does not enable FMA codegen, so mul+add stays two
// correctly-rounded operations exactly like the scalar reference.

#include "linalg/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ppanns {
namespace kernel_detail {
namespace {

// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — the canonical float reduce tree.
inline float HSum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);         // {l0,l1,l2,l3}
  const __m128 hi = _mm256_extractf128_ps(v, 1);       // {l4,l5,l6,l7}
  const __m128 s = _mm_add_ps(lo, hi);                 // {l0+l4,...,l3+l7}
  const __m128 s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
  const __m128 s3 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x1));
  return _mm_cvtss_f32(s3);
}

// (l0+l2) + (l1+l3) — the canonical double reduce tree.
inline double HSum256d(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);        // {l0,l1}
  const __m128d hi = _mm256_extractf128_pd(v, 1);      // {l2,l3}
  const __m128d s = _mm_add_pd(lo, hi);                // {l0+l2, l1+l3}
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

inline std::int32_t HSum256i(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
  return _mm_cvtsi128_si32(s);
}

float Avx2L2F32(const float* a, const float* b, std::size_t d) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 diff =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  float sum = HSum256(acc);
  for (; i < d; ++i) {
    const float di = a[i] - b[i];
    sum = sum + di * di;
  }
  return sum;
}

float Avx2IpF32(const float* a, const float* b, std::size_t d) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  float sum = HSum256(acc);
  for (; i < d; ++i) sum = sum + a[i] * b[i];
  return sum;
}

double Avx2L2F64(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  double sum = HSum256d(acc);
  for (; i < n; ++i) {
    const double di = a[i] - b[i];
    sum = sum + di * di;
  }
  return sum;
}

double Avx2DotF64(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double sum = HSum256d(acc);
  for (; i < n; ++i) sum = sum + a[i] * b[i];
  return sum;
}

// Shuffle-free int8 L2: byte differences fit int8 under the kernel's range
// contract (|a[i]-b[i]| <= 127, guaranteed by the 7-bit SQ codes), so the
// whole square-and-accumulate runs on bytes with no widening shuffles:
// sub_epi8 (exact, no saturation in range), abs_epi8, then
// maddubs(|d| as u8, |d| as s8) = |d|^2 pairs summed into int16 lanes (a
// pair is <= 2*127^2 = 32258 < 2^15, no saturation), and madd(_, 1) widens
// to int32. Every op issues on the wide ALU ports — the old
// sign-extend-to-int16 scheme was bottlenecked on the single shuffle port.
// Integer addition is associative, so any order yields the exact sum.
inline __m256i SqDiffI8(__m256i va, __m256i vb, __m256i ones) {
  const __m256i ad = _mm256_abs_epi8(_mm256_sub_epi8(va, vb));
  return _mm256_madd_epi16(_mm256_maddubs_epi16(ad, ad), ones);
}

std::int32_t Avx2L2I8(const std::int8_t* a, const std::int8_t* b,
                      std::size_t d) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 64 <= d; i += 64) {
    const __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 32));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 32));
    acc0 = _mm256_add_epi32(acc0, SqDiffI8(a0, b0, ones));
    acc1 = _mm256_add_epi32(acc1, SqDiffI8(a1, b1, ones));
  }
  for (; i + 32 <= d; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc0 = _mm256_add_epi32(acc0, SqDiffI8(va, vb, ones));
  }
  std::int32_t sum = HSum256i(_mm256_add_epi32(acc0, acc1));
  for (; i < d; ++i) {
    const std::int32_t di =
        static_cast<std::int32_t>(a[i]) - static_cast<std::int32_t>(b[i]);
    sum += di * di;
  }
  return sum;
}

inline void PrefetchRowBytes(const void* p, std::size_t bytes) {
  const auto* c = static_cast<const char*>(p);
  const std::size_t span = bytes < 256 ? bytes : 256;
  for (std::size_t off = 0; off < span; off += 64) PrefetchRead(c + off);
}

// The batch kernels walk four rows at a time against the shared query: the
// query chunk is loaded once per step, and the four per-row accumulator
// chains interleave, hiding the vaddps latency a single chain stalls on.
// Each row still owns one accumulator updated in the canonical lane order,
// so every per-row result is bit-identical to the one-to-one kernel.
void Avx2L2BatchF32(const float* q, const float* const* rows, std::size_t n,
                    std::size_t d, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 4 < n) PrefetchRowBytes(rows[i + 4], d * sizeof(float));
    if (i + 5 < n) PrefetchRowBytes(rows[i + 5], d * sizeof(float));
    const float* r0 = rows[i];
    const float* r1 = rows[i + 1];
    const float* r2 = rows[i + 2];
    const float* r3 = rows[i + 3];
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
    std::size_t j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 vq = _mm256_loadu_ps(q + j);
      const __m256 d0 = _mm256_sub_ps(vq, _mm256_loadu_ps(r0 + j));
      const __m256 d1 = _mm256_sub_ps(vq, _mm256_loadu_ps(r1 + j));
      const __m256 d2 = _mm256_sub_ps(vq, _mm256_loadu_ps(r2 + j));
      const __m256 d3 = _mm256_sub_ps(vq, _mm256_loadu_ps(r3 + j));
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(d0, d0));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(d1, d1));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(d2, d2));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(d3, d3));
    }
    float s0 = HSum256(acc0), s1 = HSum256(acc1);
    float s2 = HSum256(acc2), s3 = HSum256(acc3);
    for (; j < d; ++j) {
      const float e0 = q[j] - r0[j], e1 = q[j] - r1[j];
      const float e2 = q[j] - r2[j], e3 = q[j] - r3[j];
      s0 = s0 + e0 * e0;
      s1 = s1 + e1 * e1;
      s2 = s2 + e2 * e2;
      s3 = s3 + e3 * e3;
    }
    out[i] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < n; ++i) out[i] = Avx2L2F32(q, rows[i], d);
}

void Avx2IpBatchF32(const float* q, const float* const* rows, std::size_t n,
                    std::size_t d, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 4 < n) PrefetchRowBytes(rows[i + 4], d * sizeof(float));
    if (i + 5 < n) PrefetchRowBytes(rows[i + 5], d * sizeof(float));
    const float* r0 = rows[i];
    const float* r1 = rows[i + 1];
    const float* r2 = rows[i + 2];
    const float* r3 = rows[i + 3];
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
    std::size_t j = 0;
    for (; j + 8 <= d; j += 8) {
      const __m256 vq = _mm256_loadu_ps(q + j);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vq, _mm256_loadu_ps(r0 + j)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(vq, _mm256_loadu_ps(r1 + j)));
      acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(vq, _mm256_loadu_ps(r2 + j)));
      acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(vq, _mm256_loadu_ps(r3 + j)));
    }
    float s0 = HSum256(acc0), s1 = HSum256(acc1);
    float s2 = HSum256(acc2), s3 = HSum256(acc3);
    for (; j < d; ++j) {
      s0 = s0 + q[j] * r0[j];
      s1 = s1 + q[j] * r1[j];
      s2 = s2 + q[j] * r2[j];
      s3 = s3 + q[j] * r3[j];
    }
    out[i] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < n; ++i) out[i] = Avx2IpF32(q, rows[i], d);
}

void Avx2L2BatchI8(const std::int8_t* q, const std::int8_t* const* rows,
                   std::size_t n, std::size_t d, std::int32_t* out) {
  // 8-way row interleave: the query chunk is loaded once per step and eight
  // independent accumulator chains keep the multiply-accumulate ports busy
  // through each chain's add latency. 8 accs + query + diff temp stays
  // within the 16 ymm registers.
  const __m256i ones = _mm256_set1_epi16(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 4 < n) PrefetchRowBytes(rows[i + 4], d);
    if (i + 5 < n) PrefetchRowBytes(rows[i + 5], d);
    const std::int8_t* r0 = rows[i];
    const std::int8_t* r1 = rows[i + 1];
    const std::int8_t* r2 = rows[i + 2];
    const std::int8_t* r3 = rows[i + 3];
    __m256i acc0 = _mm256_setzero_si256(), acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256(), acc3 = _mm256_setzero_si256();
    std::size_t j = 0;
    for (; j + 32 <= d; j += 32) {
      const __m256i vq =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j));
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + j));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + j));
      const __m256i v2 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r2 + j));
      const __m256i v3 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r3 + j));
      acc0 = _mm256_add_epi32(acc0, SqDiffI8(vq, v0, ones));
      acc1 = _mm256_add_epi32(acc1, SqDiffI8(vq, v1, ones));
      acc2 = _mm256_add_epi32(acc2, SqDiffI8(vq, v2, ones));
      acc3 = _mm256_add_epi32(acc3, SqDiffI8(vq, v3, ones));
    }
    std::int32_t s0 = HSum256i(acc0), s1 = HSum256i(acc1);
    std::int32_t s2 = HSum256i(acc2), s3 = HSum256i(acc3);
    for (; j < d; ++j) {
      const std::int32_t e0 = q[j] - r0[j], e1 = q[j] - r1[j];
      const std::int32_t e2 = q[j] - r2[j], e3 = q[j] - r3[j];
      s0 += e0 * e0;
      s1 += e1 * e1;
      s2 += e2 * e2;
      s3 += e3 * e3;
    }
    out[i] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < n; ++i) out[i] = Avx2L2I8(q, rows[i], d);
}

// Four rows per pass against the shared x: each 4-double chunk of x is
// loaded once for all four rows, and the four accumulator chains interleave,
// hiding the vaddpd latency that stalls a single chain. Each row keeps one
// accumulator in Avx2DotF64's lane order, the same reduction and the same
// sequential tail, so y[i] is bit-identical to the per-row dot.
void Avx2MatVecF64(const double* a, std::size_t rows, std::size_t cols,
                   const double* x, double* y) {
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* r0 = a + i * cols;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      const __m256d vx = _mm256_loadu_pd(x + j);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(r0 + j), vx));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(r1 + j), vx));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(r2 + j), vx));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_loadu_pd(r3 + j), vx));
    }
    double s0 = HSum256d(acc0), s1 = HSum256d(acc1);
    double s2 = HSum256d(acc2), s3 = HSum256d(acc3);
    for (; j < cols; ++j) {
      s0 = s0 + r0[j] * x[j];
      s1 = s1 + r1[j] * x[j];
      s2 = s2 + r2[j] * x[j];
      s3 = s3 + r3[j] * x[j];
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < rows; ++i) y[i] = Avx2DotF64(a + i * cols, x, cols);
}

constexpr KernelOps kAvx2Ops = {
    "avx2",         Avx2L2F32,      Avx2IpF32,    Avx2L2F64,
    Avx2DotF64,     Avx2L2I8,       Avx2L2BatchF32,
    Avx2IpBatchF32, Avx2L2BatchI8,  Avx2MatVecF64,
};

bool CpuHasAvx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

const KernelOps* Avx2Table() {
  static const bool supported = CpuHasAvx2();
  return supported ? &kAvx2Ops : nullptr;
}

}  // namespace kernel_detail
}  // namespace ppanns

#else  // !__AVX2__

namespace ppanns {
namespace kernel_detail {
const KernelOps* Avx2Table() { return nullptr; }
}  // namespace kernel_detail
}  // namespace ppanns

#endif
