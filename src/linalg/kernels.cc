// Scalar reference kernels (the canonical accumulation order every SIMD path
// must reproduce bit-for-bit) and the runtime dispatch logic.
//
// This translation unit is compiled with -ffp-contract=off (see CMakeLists)
// so the compiler can never fuse a multiply-add: contraction rounds once
// instead of twice and would silently break the cross-ISA equality contract
// on FMA-capable targets.

#include "linalg/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace ppanns {
namespace kernel_detail {

// Tables provided by the per-ISA translation units; null when the ISA was
// not compiled in.
const KernelOps* Avx2Table();
const KernelOps* NeonTable();

namespace {

// ---- Canonical scalar kernels ----------------------------------------------
//
// Float sums use kF32Lanes strided accumulators (lane j sums elements
// j, j+8, ...), the fixed reduction tree
//   ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)),
// then a sequential tail — exactly the order one 256-bit register imposes.
// Doubles use kF64Lanes lanes and the tree (l0+l2)+(l1+l3).

float ScalarL2F32(const float* a, const float* b, std::size_t d) {
  float acc[kF32Lanes] = {};
  std::size_t i = 0;
  for (; i + kF32Lanes <= d; i += kF32Lanes) {
    for (std::size_t j = 0; j < kF32Lanes; ++j) {
      const float dj = a[i + j] - b[i + j];
      acc[j] = acc[j] + dj * dj;
    }
  }
  float sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) +
              ((acc[1] + acc[5]) + (acc[3] + acc[7]));
  for (; i < d; ++i) {
    const float di = a[i] - b[i];
    sum = sum + di * di;
  }
  return sum;
}

float ScalarIpF32(const float* a, const float* b, std::size_t d) {
  float acc[kF32Lanes] = {};
  std::size_t i = 0;
  for (; i + kF32Lanes <= d; i += kF32Lanes) {
    for (std::size_t j = 0; j < kF32Lanes; ++j) {
      acc[j] = acc[j] + a[i + j] * b[i + j];
    }
  }
  float sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) +
              ((acc[1] + acc[5]) + (acc[3] + acc[7]));
  for (; i < d; ++i) sum = sum + a[i] * b[i];
  return sum;
}

double ScalarL2F64(const double* a, const double* b, std::size_t n) {
  double acc[kF64Lanes] = {};
  std::size_t i = 0;
  for (; i + kF64Lanes <= n; i += kF64Lanes) {
    for (std::size_t j = 0; j < kF64Lanes; ++j) {
      const double dj = a[i + j] - b[i + j];
      acc[j] = acc[j] + dj * dj;
    }
  }
  double sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (; i < n; ++i) {
    const double di = a[i] - b[i];
    sum = sum + di * di;
  }
  return sum;
}

double ScalarDotF64(const double* a, const double* b, std::size_t n) {
  double acc[kF64Lanes] = {};
  std::size_t i = 0;
  for (; i + kF64Lanes <= n; i += kF64Lanes) {
    for (std::size_t j = 0; j < kF64Lanes; ++j) {
      acc[j] = acc[j] + a[i + j] * b[i + j];
    }
  }
  double sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (; i < n; ++i) sum = sum + a[i] * b[i];
  return sum;
}

std::int32_t ScalarL2I8(const std::int8_t* a, const std::int8_t* b,
                        std::size_t d) {
  std::int32_t sum = 0;
  for (std::size_t i = 0; i < d; ++i) {
    const std::int32_t di =
        static_cast<std::int32_t>(a[i]) - static_cast<std::int32_t>(b[i]);
    sum += di * di;
  }
  return sum;
}

// Prefetches the first cache lines of an upcoming row; the hardware
// prefetcher streams the rest once a sequential read starts.
inline void PrefetchRow(const void* p, std::size_t bytes) {
  const auto* c = static_cast<const char*>(p);
  const std::size_t span = bytes < 256 ? bytes : 256;
  for (std::size_t off = 0; off < span; off += 64) PrefetchRead(c + off);
}

void ScalarL2BatchF32(const float* q, const float* const* rows, std::size_t n,
                      std::size_t d, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 < n) PrefetchRow(rows[i + 2], d * sizeof(float));
    out[i] = ScalarL2F32(q, rows[i], d);
  }
}

void ScalarIpBatchF32(const float* q, const float* const* rows, std::size_t n,
                      std::size_t d, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 < n) PrefetchRow(rows[i + 2], d * sizeof(float));
    out[i] = ScalarIpF32(q, rows[i], d);
  }
}

void ScalarL2BatchI8(const std::int8_t* q, const std::int8_t* const* rows,
                     std::size_t n, std::size_t d, std::int32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 < n) PrefetchRow(rows[i + 2], d);
    out[i] = ScalarL2I8(q, rows[i], d);
  }
}

// The reference order is the per-row dot itself. A four-row interleave of
// it compiles (gcc -O3, SSE2 baseline) to shuffle-heavy code that ran at
// 0.4-0.8x of this loop, so the scalar table keeps the loop.
void ScalarMatVecF64(const double* a, std::size_t rows, std::size_t cols,
                     const double* x, double* y) {
  for (std::size_t i = 0; i < rows; ++i) {
    y[i] = ScalarDotF64(a + i * cols, x, cols);
  }
}

constexpr KernelOps kScalarOps = {
    "scalar",         ScalarL2F32,      ScalarIpF32,    ScalarL2F64,
    ScalarDotF64,     ScalarL2I8,       ScalarL2BatchF32,
    ScalarIpBatchF32, ScalarL2BatchI8,  ScalarMatVecF64,
};

// ---- Dispatch ---------------------------------------------------------------

std::mutex g_dispatch_mu;

const KernelOps* TableFor(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return &kScalarOps;
    case KernelIsa::kAvx2:
      return Avx2Table();
    case KernelIsa::kNeon:
      return NeonTable();
  }
  return nullptr;
}

/// Widest ISA this machine supports: AVX2 > NEON > scalar.
const KernelOps* BestTable() {
  if (const KernelOps* t = Avx2Table()) return t;
  if (const KernelOps* t = NeonTable()) return t;
  return &kScalarOps;
}

/// Applies the PPANNS_KERNEL environment override, falling back to cpuid
/// auto-detection for "auto", unset, unknown, or unsupported values.
const KernelOps* PickAuto() {
  const char* env = std::getenv("PPANNS_KERNEL");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    const KernelOps* t = nullptr;
    if (std::strcmp(env, "scalar") == 0) {
      t = &kScalarOps;
    } else if (std::strcmp(env, "avx2") == 0) {
      t = Avx2Table();
    } else if (std::strcmp(env, "neon") == 0) {
      t = NeonTable();
    }
    if (t != nullptr) return t;
    std::fprintf(stderr,
                 "ppanns: PPANNS_KERNEL=%s unavailable on this machine; "
                 "using auto dispatch\n",
                 env);
  }
  return BestTable();
}

}  // namespace

std::atomic<const KernelOps*> g_active{nullptr};

const KernelOps* Resolve() {
  std::lock_guard<std::mutex> lock(g_dispatch_mu);
  const KernelOps* k = g_active.load(std::memory_order_acquire);
  if (k != nullptr) return k;
  k = PickAuto();
  g_active.store(k, std::memory_order_release);
  return k;
}

}  // namespace kernel_detail

bool KernelIsaSupported(KernelIsa isa) {
  return kernel_detail::TableFor(isa) != nullptr;
}

bool ForceKernelIsa(KernelIsa isa) {
  const KernelOps* t = kernel_detail::TableFor(isa);
  if (t == nullptr) return false;
  std::lock_guard<std::mutex> lock(kernel_detail::g_dispatch_mu);
  kernel_detail::g_active.store(t, std::memory_order_release);
  return true;
}

void ResetKernelIsa() {
  std::lock_guard<std::mutex> lock(kernel_detail::g_dispatch_mu);
  kernel_detail::g_active.store(kernel_detail::PickAuto(),
                                std::memory_order_release);
}

KernelIsa ActiveKernelIsa() {
  const KernelOps* k = kernel_detail::Active();
  if (k == kernel_detail::Avx2Table()) return KernelIsa::kAvx2;
  if (k == kernel_detail::NeonTable()) return KernelIsa::kNeon;
  return KernelIsa::kScalar;
}

const char* ActiveKernelName() { return kernel_detail::Active()->name; }

}  // namespace ppanns
