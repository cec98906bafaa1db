// NEON (aarch64) kernel table. Two 128-bit accumulators emulate the canonical
// 8-lane float order (lanes 0-3 in the low register, 4-7 in the high one) and
// two double accumulators emulate the 4-lane double order, so results match
// the scalar reference bit-for-bit. Explicit vmul+vadd (never vfma) plus
// -ffp-contract=off keep both this TU and the scalar TU un-contracted on
// FMA-capable ARM cores.

#include "linalg/kernels.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace ppanns {
namespace kernel_detail {
namespace {

// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), given lanes 0-3 / 4-7.
inline float HSum8(float32x4_t lo, float32x4_t hi) {
  const float32x4_t s = vaddq_f32(lo, hi);             // {l0+l4,...,l3+l7}
  const float32x2_t t = vadd_f32(vget_low_f32(s), vget_high_f32(s));
  return vget_lane_f32(t, 0) + vget_lane_f32(t, 1);
}

// (l0+l2) + (l1+l3), given lanes 0-1 / 2-3.
inline double HSum4d(float64x2_t lo, float64x2_t hi) {
  const float64x2_t s = vaddq_f64(lo, hi);             // {l0+l2, l1+l3}
  return vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1);
}

float NeonL2F32(const float* a, const float* b, std::size_t d) {
  float32x4_t acc_lo = vdupq_n_f32(0.0f);
  float32x4_t acc_hi = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const float32x4_t d_lo = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    const float32x4_t d_hi =
        vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc_lo = vaddq_f32(acc_lo, vmulq_f32(d_lo, d_lo));
    acc_hi = vaddq_f32(acc_hi, vmulq_f32(d_hi, d_hi));
  }
  float sum = HSum8(acc_lo, acc_hi);
  for (; i < d; ++i) {
    const float di = a[i] - b[i];
    sum = sum + di * di;
  }
  return sum;
}

float NeonIpF32(const float* a, const float* b, std::size_t d) {
  float32x4_t acc_lo = vdupq_n_f32(0.0f);
  float32x4_t acc_hi = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc_hi = vaddq_f32(acc_hi,
                       vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  float sum = HSum8(acc_lo, acc_hi);
  for (; i < d; ++i) sum = sum + a[i] * b[i];
  return sum;
}

double NeonL2F64(const double* a, const double* b, std::size_t n) {
  float64x2_t acc_lo = vdupq_n_f64(0.0);
  float64x2_t acc_hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d_lo = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    const float64x2_t d_hi =
        vsubq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    acc_lo = vaddq_f64(acc_lo, vmulq_f64(d_lo, d_lo));
    acc_hi = vaddq_f64(acc_hi, vmulq_f64(d_hi, d_hi));
  }
  double sum = HSum4d(acc_lo, acc_hi);
  for (; i < n; ++i) {
    const double di = a[i] - b[i];
    sum = sum + di * di;
  }
  return sum;
}

double NeonDotF64(const double* a, const double* b, std::size_t n) {
  float64x2_t acc_lo = vdupq_n_f64(0.0);
  float64x2_t acc_hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc_lo = vaddq_f64(acc_lo, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc_hi = vaddq_f64(acc_hi,
                       vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  double sum = HSum4d(acc_lo, acc_hi);
  for (; i < n; ++i) sum = sum + a[i] * b[i];
  return sum;
}

// Widened-accumulator int8 L2: widen 8 codes to int16, subtract, multiply
// into int32 via vmull — exact integer arithmetic in any order.
std::int32_t NeonL2I8(const std::int8_t* a, const std::int8_t* b,
                      std::size_t d) {
  int32x4_t acc = vdupq_n_s32(0);
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const int16x8_t va = vmovl_s8(vld1_s8(a + i));
    const int16x8_t vb = vmovl_s8(vld1_s8(b + i));
    const int16x8_t diff = vsubq_s16(va, vb);
    acc = vmlal_s16(acc, vget_low_s16(diff), vget_low_s16(diff));
    acc = vmlal_s16(acc, vget_high_s16(diff), vget_high_s16(diff));
  }
  std::int32_t sum = vaddvq_s32(acc);
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

void NeonL2BatchF32(const float* q, const float* const* rows, std::size_t n,
                    std::size_t d, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 < n) PrefetchRowBytes(rows[i + 2], d * sizeof(float));
    out[i] = NeonL2F32(q, rows[i], d);
  }
}

void NeonIpBatchF32(const float* q, const float* const* rows, std::size_t n,
                    std::size_t d, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 < n) PrefetchRowBytes(rows[i + 2], d * sizeof(float));
    out[i] = NeonIpF32(q, rows[i], d);
  }
}

void NeonL2BatchI8(const std::int8_t* q, const std::int8_t* const* rows,
                   std::size_t n, std::size_t d, std::int32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 < n) PrefetchRowBytes(rows[i + 2], d);
    out[i] = NeonL2I8(q, rows[i], d);
  }
}

// A per-row loop over NeonDotF64: bit-identical to the per-row dot by
// construction. A four-row interleave like the AVX2 table's is left for a
// build that can run it on aarch64.
void NeonMatVecF64(const double* a, std::size_t rows, std::size_t cols,
                   const double* x, double* y) {
  for (std::size_t i = 0; i < rows; ++i) {
    y[i] = NeonDotF64(a + i * cols, x, cols);
  }
}

constexpr KernelOps kNeonOps = {
    "neon",         NeonL2F32,      NeonIpF32,    NeonL2F64,
    NeonDotF64,     NeonL2I8,       NeonL2BatchF32,
    NeonIpBatchF32, NeonL2BatchI8,  NeonMatVecF64,
};

}  // namespace

const KernelOps* NeonTable() { return &kNeonOps; }

}  // namespace kernel_detail
}  // namespace ppanns

#else  // !aarch64

namespace ppanns {
namespace kernel_detail {
const KernelOps* NeonTable() { return nullptr; }
}  // namespace kernel_detail
}  // namespace ppanns

#endif
