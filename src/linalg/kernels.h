// Distance-kernel layer: the single dispatch point for every distance /
// inner-product computation in the system.
//
// Every hot loop (HNSW beam expansion, IVF centroid + posting scans, LSH
// hashing and candidate scoring, brute force, kmeans, and the double-precision
// cryptographic transforms) calls through this header. The active
// implementation is resolved once at first use: cpuid picks the widest ISA the
// machine supports (AVX2 on x86-64, NEON on aarch64, scalar otherwise), and
// the PPANNS_KERNEL environment variable ("scalar", "avx2", "neon", "auto")
// overrides the choice for debugging and for the forced-scalar CI pass. Tests
// and benches switch paths programmatically with ForceKernelIsa().
//
// Bit-exactness contract: every ISA computes float/double sums in ONE
// canonical accumulation order (kF32Lanes strided lanes, a fixed pairwise
// reduction tree, then a sequential scalar tail), so forcing a different
// backend never changes a single returned bit. That is what makes the
// SIMD-vs-scalar id-equality pins in tests/linalg/kernels_test.cc exact
// equality instead of tolerance checks. No FMA anywhere on x86: contraction
// would break the shared order. Integer (int8) kernels are associative, so
// they are exact in any order.

#ifndef PPANNS_LINALG_KERNELS_H_
#define PPANNS_LINALG_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ppanns {

/// Which instruction set a kernel table was compiled for.
enum class KernelIsa : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Number of independent float accumulator lanes in the canonical order
/// (one 256-bit AVX2 register). Lane j sums elements j, j+8, j+16, ...
inline constexpr std::size_t kF32Lanes = 8;
/// Number of double lanes (one 256-bit register of doubles).
inline constexpr std::size_t kF64Lanes = 4;

/// How many candidates the blocked scans (HNSW expansion, IVF postings,
/// brute force, DCE refine) score per kernel call.
inline constexpr std::size_t kKernelBlock = 16;

/// One table of function pointers per ISA. All distances are squared L2.
/// Batched variants are one-to-many: score `n` rows against one query,
/// prefetching upcoming rows while scoring the current one.
struct KernelOps {
  const char* name;

  float (*l2_f32)(const float* a, const float* b, std::size_t d);
  float (*ip_f32)(const float* a, const float* b, std::size_t d);
  double (*l2_f64)(const double* a, const double* b, std::size_t d);
  double (*dot_f64)(const double* a, const double* b, std::size_t d);
  std::int32_t (*l2_i8)(const std::int8_t* a, const std::int8_t* b,
                        std::size_t d);

  void (*l2_batch_f32)(const float* q, const float* const* rows, std::size_t n,
                       std::size_t d, float* out);
  void (*ip_batch_f32)(const float* q, const float* const* rows, std::size_t n,
                       std::size_t d, float* out);
  void (*l2_batch_i8)(const std::int8_t* q, const std::int8_t* const* rows,
                      std::size_t n, std::size_t d, std::int32_t* out);

  /// Many-to-one over a row-major rows x cols matrix: y[i] = dot_f64(row i,
  /// x). Every row keeps dot_f64's accumulation order, so y[i] is
  /// bit-identical to the per-row dot; the AVX2 table walks four rows per
  /// pass so that they share each load of x.
  void (*matvec_f64)(const double* a, std::size_t rows, std::size_t cols,
                     const double* x, double* y);
};

namespace kernel_detail {

/// Active table; null until the first distance call resolves it.
extern std::atomic<const KernelOps*> g_active;

/// Slow path: applies PPANNS_KERNEL + cpuid, publishes, and returns the table.
const KernelOps* Resolve();

inline const KernelOps* Active() {
  const KernelOps* k = g_active.load(std::memory_order_acquire);
  return k != nullptr ? k : Resolve();
}

}  // namespace kernel_detail

/// True if `isa` was compiled in AND the running CPU supports it.
bool KernelIsaSupported(KernelIsa isa);

/// Forces dispatch to `isa` (test/bench hook). Returns false — leaving the
/// active table unchanged — if the ISA is unsupported on this machine.
bool ForceKernelIsa(KernelIsa isa);

/// Drops any forced choice and re-resolves from PPANNS_KERNEL + cpuid.
void ResetKernelIsa();

/// ISA of the currently active table (resolving it if needed).
KernelIsa ActiveKernelIsa();

/// Human-readable name of the active table: "scalar", "avx2", "neon".
const char* ActiveKernelName();

/// RAII guard: forces an ISA for a scope, restores auto-resolution on exit.
/// If the ISA is unsupported the guard is a no-op and engaged() is false.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(KernelIsa isa) : engaged_(ForceKernelIsa(isa)) {}
  ~ScopedKernelIsa() {
    if (engaged_) ResetKernelIsa();
  }
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;
  bool engaged() const { return engaged_; }

 private:
  bool engaged_;
};

/// Hints the hardware prefetcher at a row about to be scored.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

// ---- Dispatched entry points ------------------------------------------------

/// Squared Euclidean distance between two d-dimensional float vectors.
inline float SquaredL2(const float* a, const float* b, std::size_t d) {
  return kernel_detail::Active()->l2_f32(a, b, d);
}

/// Inner product between two d-dimensional float vectors.
inline float InnerProduct(const float* a, const float* b, std::size_t d) {
  return kernel_detail::Active()->ip_f32(a, b, d);
}

/// Squared L2 distance between two length-n double vectors. Used by the
/// cryptographic transforms (DCE / ASPE / AME): the DCE comparison telescopes
/// a sum of magnitude ~ ||p||^2 * ||M|| down to 2*r_o*r_p*r_q*(dist diff), so
/// sign decisions need every bit of double's 1e-16 relative precision — the
/// canonical 4-lane order loses none of it.
inline double SquaredL2(const double* a, const double* b, std::size_t n) {
  return kernel_detail::Active()->l2_f64(a, b, n);
}

/// Inner product of two length-n double vectors.
inline double Dot(const double* a, const double* b, std::size_t n) {
  return kernel_detail::Active()->dot_f64(a, b, n);
}

/// y = A x for a row-major rows x cols double matrix `a`: y[i] is
/// bit-identical to Dot(a + i * cols, x, cols). The DCE trapdoor (M3^-1 and
/// the per-half inverses) and the ASPE/AME transforms run on it.
inline void MatVecF64(const double* a, std::size_t rows, std::size_t cols,
                      const double* x, double* y) {
  kernel_detail::Active()->matvec_f64(a, rows, cols, x, y);
}

/// Squared L2 distance between two int8 code vectors, exact in int32.
///
/// Range contract: element differences must fit in int8, i.e. callers keep
/// |a[i] - b[i]| <= 127. The SQ tier guarantees this by quantizing to 7-bit
/// codes in [-64, 63], which lets the SIMD backends square byte differences
/// directly (subtract / abs / multiply-accumulate on bytes) with no widening
/// shuffles. The scalar backend is exact for any int8 input, so the
/// cross-ISA equality pins only hold inside the contract.
/// Safe for d <= 131072 (127^2 * 131072 < 2^31).
inline std::int32_t SquaredL2Int8(const std::int8_t* a, const std::int8_t* b,
                                  std::size_t d) {
  return kernel_detail::Active()->l2_i8(a, b, d);
}

/// One-to-many: out[i] = SquaredL2(q, rows[i], d) for i in [0, n).
inline void L2Batch(const float* q, const float* const* rows, std::size_t n,
                    std::size_t d, float* out) {
  kernel_detail::Active()->l2_batch_f32(q, rows, n, d, out);
}

/// One-to-many: out[i] = InnerProduct(q, rows[i], d) for i in [0, n).
inline void IpBatch(const float* q, const float* const* rows, std::size_t n,
                    std::size_t d, float* out) {
  kernel_detail::Active()->ip_batch_f32(q, rows, n, d, out);
}

/// One-to-many int8: out[i] = SquaredL2Int8(q, rows[i], d) for i in [0, n).
inline void L2BatchInt8(const std::int8_t* q, const std::int8_t* const* rows,
                        std::size_t n, std::size_t d, std::int32_t* out) {
  kernel_detail::Active()->l2_batch_i8(q, rows, n, d, out);
}

}  // namespace ppanns

#endif  // PPANNS_LINALG_KERNELS_H_
