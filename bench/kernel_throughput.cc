// Kernel throughput: the SIMD distance-kernel layer and the int8 SQ filter
// tier (ROADMAP "SIMD distance kernels"; the filter-phase cost model of
// Section VII rides on raw scan speed).
//
// Sweeps dim in {64, 128, 384, 960} x {scalar, simd, simd+sq} over an
// exhaustive flat scan (the filter-stage workload with every index
// overhead stripped away) and reports, per point, the filter-stage scan cost
// (via SearchStats::filter_seconds — for the float configs the whole scan IS
// the filter stage; for sq it is the int8 code scan + shortlist selection),
// end-to-end search cost, both speedups against the forced-scalar float
// scan, and recall@10 against the exact scan's ids. The scalar and simd
// rows are exact by construction; the sq row re-ranks a 16x-oversampled
// int8 shortlist with exact float distances, so its recall stays at 1.0
// while the scan runs on one byte per dimension.
//
// A second table times the double-precision MatVec behind the DCE trapdoor:
// y = A x at 272 x 272 (M3^-1 at d = 128) and 1936 x 1936 (d = 960), once
// as a per-row dot_f64 loop and once through the matvec_f64 kernel, on the
// scalar and the SIMD tables. Both compute the same bits.
//
// Every point is also emitted as one JSON line into
// BENCH_kernel_throughput.json (override with PPANNS_BENCH_JSON) so the
// kernel trajectory is machine-readable across PRs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/search_context.h"
#include "common/timer.h"
#include "index/sq8.h"
#include "linalg/kernels.h"

namespace {

using namespace ppanns;
using namespace ppanns::bench;

FloatMatrix RandomRows(std::size_t n, std::size_t dim, Rng& rng) {
  FloatMatrix m(n, dim);
  for (float& v : m.data()) v = static_cast<float>(rng.Gaussian(0.0, 10.0));
  return m;
}

struct Point {
  double seconds = 0.0;         // end-to-end search wall time
  double filter_seconds = 0.0;  // filter-stage portion (SearchStats)
  double recall = 0.0;
};

// One timed pass: `queries` top-k searches on `index`, returning wall time
// and the filter-stage portion (SearchStats::filter_seconds). `got` is
// filled with the result ids when non-null.
Point RunPass(const BruteForceIndex& index, const FloatMatrix& queries,
              std::size_t k, std::vector<std::vector<VectorId>>* got) {
  // A stats-only context: collects per-stage filter/refine wall times. It
  // runs the same flat scan as every other search.
  SearchContext ctx;
  Point p;
  Timer timer;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<VectorId> ids;
    for (const Neighbor& n : index.Search(queries.row(i), k, &ctx)) {
      ids.push_back(n.id);
    }
    if (got != nullptr) got->push_back(std::move(ids));
  }
  p.seconds = timer.ElapsedSeconds();
  p.filter_seconds = ctx.stats.filter_seconds;
  return p;
}

double RecallAgainst(const std::vector<std::vector<VectorId>>& got,
                     const std::vector<std::vector<VectorId>>& truth) {
  std::size_t hits = 0, want = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    want += truth[i].size();
    for (VectorId id : got[i]) {
      for (VectorId t : truth[i]) {
        if (id == t) {
          ++hits;
          break;
        }
      }
    }
  }
  return want > 0 ? static_cast<double>(hits) / want : 1.0;
}

}  // namespace

int main() {
  PrintBanner("Kernel throughput: SIMD distance kernels + int8 SQ filter tier",
              "beyond the paper — ROADMAP SIMD kernels (filter-stage cost, "
              "Section VII)");

  const std::size_t k = 10;
  const std::size_t q = DefaultQ();
  std::FILE* json = OpenBenchJson("kernel_throughput");

  std::printf("active kernel backend: %s\n\n", ActiveKernelName());
  std::printf("%-6s %-10s %12s %12s %10s %10s %10s\n", "dim", "config",
              "filter(ns/r)", "total(ns/r)", "f-speedup", "speedup",
              "recall@10");

  for (const std::size_t dim : {std::size_t{64}, std::size_t{128},
                                std::size_t{384}, std::size_t{960}}) {
    // High dims scan more bytes per row; shrink n to keep runtimes flat.
    const std::size_t base = EnvSize("PPANNS_BENCH_N", 20'000);
    const std::size_t n = dim >= 384 ? base / 4 : base;
    Rng rng(0xC0DE + dim);
    const FloatMatrix data = RandomRows(n, dim, rng);
    const FloatMatrix queries = RandomRows(q, dim, rng);

    BruteForceIndex plain(dim);
    BruteForceIndex sq(dim, SqParams{.enabled = true, .refine_factor = 16,
                                     .train_min = 256});
    for (std::size_t i = 0; i < n; ++i) {
      plain.Add(data.row(i));
      sq.Add(data.row(i));
    }

    // Ground truth: the exact scan's ids (kernel-independent — every
    // dispatch path returns identical ids, pinned by the kernel tests).
    std::vector<std::vector<VectorId>> truth;
    truth.reserve(q);
    for (std::size_t i = 0; i < q; ++i) {
      std::vector<VectorId> ids;
      for (const Neighbor& r : plain.Search(queries.row(i), k)) {
        ids.push_back(r.id);
      }
      truth.push_back(std::move(ids));
    }

    struct Config {
      const char* name;
      const BruteForceIndex* index;
      KernelIsa isa;
    };
    const Config configs[] = {
        {"scalar", &plain, KernelIsa::kScalar},
        {"simd", &plain, ActiveKernelIsa()},
        {"simd+sq", &sq, ActiveKernelIsa()},
    };

    // Warm-up, then PPANNS_BENCH_REPS (default 9) timed passes per config,
    // keeping each config's fastest pass. Reps are interleaved across
    // configs so noise bursts on shared runners (where one pass can be 2x
    // off) hit every config alike, and min-over-reps then estimates each
    // config's true cost from its quietest window.
    const std::size_t reps = EnvSize("PPANNS_BENCH_REPS", 9);
    Point best[3];
    std::vector<std::vector<VectorId>> got[3];
    for (std::size_t c = 0; c < 3; ++c) {
      ScopedKernelIsa guard(configs[c].isa);
      (void)configs[c].index->Search(queries.row(0), k);
    }
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t c = 0; c < 3; ++c) {
        ScopedKernelIsa guard(configs[c].isa);
        const Point p = RunPass(*configs[c].index, queries, k,
                                rep == 0 ? &got[c] : nullptr);
        if (rep == 0 || p.filter_seconds < best[c].filter_seconds) {
          best[c].seconds = p.seconds;
          best[c].filter_seconds = p.filter_seconds;
        }
      }
    }

    for (std::size_t c = 0; c < 3; ++c) {
      const Config& cfg = configs[c];
      Point p = best[c];
      p.recall = RecallAgainst(got[c], truth);
      const double scalar_seconds = best[0].seconds;
      const double scalar_filter_seconds = best[0].filter_seconds;
      const double row_ns = p.seconds / q / n * 1e9;
      const double filter_row_ns = p.filter_seconds / q / n * 1e9;
      const double speedup = scalar_seconds / p.seconds;
      const double filter_speedup = scalar_filter_seconds / p.filter_seconds;
      std::printf("%-6zu %-10s %12.1f %12.1f %9.2fx %9.2fx %10.4f\n", dim,
                  cfg.name, filter_row_ns, row_ns, filter_speedup, speedup,
                  p.recall);
      if (json != nullptr) {
        std::fprintf(json,
                     "{\"bench\":\"kernel_throughput\",\"dim\":%zu,\"n\":%zu,"
                     "\"queries\":%zu,\"config\":\"%s\",\"kernel\":\"%s\","
                     "\"seconds\":%.5f,\"filter_seconds\":%.5f,"
                     "\"row_ns\":%.2f,\"filter_row_ns\":%.2f,"
                     "\"speedup_vs_scalar\":%.3f,"
                     "\"filter_speedup_vs_scalar\":%.3f,"
                     "\"recall_at_10\":%.4f}\n",
                     dim, n, q, cfg.name, ActiveKernelName(), p.seconds,
                     p.filter_seconds, row_ns, filter_row_ns, speedup,
                     filter_speedup, p.recall);
      }
    }
    std::printf("\n");
  }
  std::printf("%-6s %-10s %14s %14s %10s\n", "n", "config", "dot_f64(us)",
              "matvec_f64(us)", "speedup");
  for (const std::size_t n : {std::size_t{272}, std::size_t{1936}}) {
    Rng rng(0x3A7 + n);
    std::vector<double> a(n * n), x(n), y(n);
    for (double& v : a) v = rng.Gaussian(0.0, 10.0);
    for (double& v : x) v = rng.Gaussian(0.0, 10.0);
    // PPANNS_BENCH_REPS passes of a few milliseconds each; the fastest pass
    // per config is kept (see the scan table above).
    const std::size_t reps = EnvSize("PPANNS_BENCH_REPS", 9);
    const std::size_t products = n >= 1000 ? 4 : 200;
    for (const KernelIsa isa : {KernelIsa::kScalar, ActiveKernelIsa()}) {
      ScopedKernelIsa guard(isa);
      double best_dot = 0.0, best_mv = 0.0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        Timer dot_timer;
        for (std::size_t p = 0; p < products; ++p) {
          for (std::size_t i = 0; i < n; ++i) {
            y[i] = Dot(a.data() + i * n, x.data(), n);
          }
        }
        const double dot_s = dot_timer.ElapsedSeconds() / products;
        Timer mv_timer;
        for (std::size_t p = 0; p < products; ++p) {
          MatVecF64(a.data(), n, n, x.data(), y.data());
        }
        const double mv_s = mv_timer.ElapsedSeconds() / products;
        if (rep == 0 || dot_s < best_dot) best_dot = dot_s;
        if (rep == 0 || mv_s < best_mv) best_mv = mv_s;
      }
      std::printf("%-6zu %-10s %14.2f %14.2f %9.2fx\n", n, ActiveKernelName(),
                  best_dot * 1e6, best_mv * 1e6, best_dot / best_mv);
      if (json != nullptr) {
        std::fprintf(json,
                     "{\"bench\":\"kernel_throughput\",\"op\":\"matvec_f64\","
                     "\"n\":%zu,\"kernel\":\"%s\",\"dot_f64_us\":%.3f,"
                     "\"matvec_f64_us\":%.3f,\"speedup_vs_row_dots\":%.3f}\n",
                     n, ActiveKernelName(), best_dot * 1e6, best_mv * 1e6,
                     best_dot / best_mv);
      }
    }
  }
  if (json != nullptr) std::fclose(json);
  return 0;
}
