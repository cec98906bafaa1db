// Measurement helpers of the repository benchmark: the key sampler, the
// open-loop arrival schedule, the percentile rule, per-query marginal
// subtraction between trace rungs, and the in-memory span log.
//
// Everything here is deterministic in its inputs (seeded draws, sorted
// samples), so it is unit-tested on its own (tests/harness_test.cc).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

/// Zipf(s) over [0, n): P(i) proportional to (i+1)^-s, drawn by binary search
/// over the cumulative weights. Rank 0 is the hottest key; s = 0 is uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double skew) : cdf_(std::max<std::size_t>(n, 1)) {
    double total = 0.0;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
      total += std::pow(static_cast<double>(i + 1), -skew);
      cdf_[i] = total;
    }
  }

  std::size_t Pick(std::mt19937_64& rng) const {
    std::uniform_real_distribution<double> u(0.0, cdf_.back());
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u(rng));
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

  /// Probability mass of rank i (for tests and hit-rate estimates).
  double Mass(std::size_t i) const {
    const double below = i == 0 ? 0.0 : cdf_[i - 1];
    return (cdf_[i] - below) / cdf_.back();
  }

 private:
  std::vector<double> cdf_;
};

/// Send times, in seconds from the phase start, of a Poisson process of
/// `rate` arrivals per second over [0, seconds): exponential gaps drawn from
/// `seed`. The same seed always gives the same schedule.
inline std::vector<double> PoissonSchedule(double rate, double seconds,
                                           std::uint64_t seed) {
  std::vector<double> times;
  if (rate <= 0.0 || seconds <= 0.0) return times;
  times.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  for (double t = gap(rng); t < seconds; t += gap(rng)) times.push_back(t);
  return times;
}

/// The percentile rule: a timing is reported as its median and the highest
/// percentile, up to `target`, that still has at least ten samples beyond it
/// (nearest-rank). With n samples that is min(target, 100 * (n - 10) / n),
/// never below the median; n <= 10 supports no tail, so the tail is the median.
inline double TailPercentile(std::size_t n, double target = 99.0) {
  if (n <= 10) return 50.0;
  const double supported =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::max(50.0, std::min(target, supported));
}

/// Nearest-rank percentile of an ascending sample: the smallest value with at
/// least p% of the sample at or below it.
inline double RankValue(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct Summary {
  double median = 0.0;
  double tail = 0.0;      ///< value at tail_pct
  double tail_pct = 0.0;  ///< the percentile the rule allowed
  std::size_t n = 0;
};

inline Summary Summarize(std::vector<double> samples, double target = 99.0) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = RankValue(samples, 50.0);
  s.tail_pct = TailPercentile(samples.size(), target);
  s.tail = RankValue(samples, s.tail_pct);
  return s;
}

/// The percentile across windows that SummarizeWindows reports: the lower
/// quartile, i.e. what the run achieved in its steadier quarter. Interference
/// from outside the process only slows samples down, so it moves the result
/// only if it spoils more than three quarters of the windows, while a change
/// in the program's own cost moves every window and so the result.
inline constexpr double kAcrossWindowsPct = 25.0;

/// Windowed summary of a time-ordered sample: the sample is cut into
/// consecutive windows of at least `min_per_window` samples (at most
/// `max_windows` of them), each window is summarized by the percentile rule,
/// and the result is the kAcrossWindowsPct percentile across windows of the
/// window medians and of the window tails. Fewer than 2 * min_per_window
/// samples give one window: the plain Summarize.
inline Summary SummarizeWindows(const std::vector<double>& ordered,
                                std::size_t min_per_window,
                                std::size_t max_windows = 64,
                                double target = 99.0) {
  const std::size_t windows = std::clamp<std::size_t>(
      ordered.size() / std::max<std::size_t>(min_per_window, 1), 1,
      std::max<std::size_t>(max_windows, 1));
  if (windows == 1) return Summarize(ordered, target);
  std::vector<double> medians, tails;
  Summary out;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = ordered.size() * w / windows;
    const std::size_t end = ordered.size() * (w + 1) / windows;
    const Summary s = Summarize(
        std::vector<double>(ordered.begin() + begin, ordered.begin() + end),
        target);
    medians.push_back(s.median);
    tails.push_back(s.tail);
    out.tail_pct = out.tail_pct == 0.0 ? s.tail_pct : std::min(out.tail_pct, s.tail_pct);
  }
  std::sort(medians.begin(), medians.end());
  std::sort(tails.begin(), tails.end());
  out.median = RankValue(medians, kAcrossWindowsPct);
  out.tail = RankValue(tails, kAcrossWindowsPct);
  out.n = ordered.size();
  return out;
}

/// Marginal cost of a rung: per query, the outer (cumulative) rung's time
/// minus the inner rung's. Both vectors are indexed by query; a query missing
/// from either (NaN) is skipped. Negative differences are kept — they are
/// measurement noise and the median absorbs them.
inline std::vector<double> Marginal(const std::vector<double>& outer,
                                    const std::vector<double>& inner) {
  std::vector<double> out;
  const std::size_t n = std::min(outer.size(), inner.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(outer[i]) || std::isnan(inner[i])) continue;
    out.push_back(outer[i] - inner[i]);
  }
  return out;
}

/// One timed call at a layer boundary: which query, which part of it (the
/// shard, for per-shard calls; 0 otherwise), which layer, and when.
struct Span {
  std::uint32_t query = 0;
  std::uint16_t part = 0;
  std::uint16_t layer = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Spans kept in memory during a traced run and written out once, at the end.
/// Single-threaded: the trace ladder runs on one thread.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : origin_(Clock::now()) {}

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  void Record(std::uint32_t query, std::uint16_t part, std::uint16_t layer,
              std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({query, part, layer, start_ns, end_ns});
  }

  /// Runs `fn`, records it as one span, and returns its result.
  template <typename F>
  auto Time(std::uint32_t query, std::uint16_t part, std::uint16_t layer,
            F&& fn) {
    const std::int64_t start = Now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Record(query, part, layer, start, Now());
    } else {
      auto result = fn();
      Record(query, part, layer, start, Now());
      return result;
    }
  }

  enum class Reduce { kSum, kMax };

  /// Microseconds per query for one layer, indexed by query id in
  /// [0, num_queries): several spans of a query combine by `reduce` (e.g. the
  /// per-shard scans of one query), and a query with no span reads NaN.
  std::vector<double> PerQuery(std::uint16_t layer, std::size_t num_queries,
                               Reduce reduce = Reduce::kSum) const {
    std::vector<double> out(num_queries, std::nan(""));
    for (const Span& s : spans_) {
      if (s.layer != layer || s.query >= num_queries) continue;
      double& slot = out[s.query];
      if (std::isnan(slot)) {
        slot = s.micros();
      } else if (reduce == Reduce::kSum) {
        slot += s.micros();
      } else {
        slot = std::max(slot, s.micros());
      }
    }
    return out;
  }

  /// Every span of one layer, in microseconds, in recording order.
  std::vector<double> All(std::uint16_t layer) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.layer == layer) out.push_back(s.micros());
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Microseconds per (query, part), indexed query * parts + part; a pair
  /// with no span reads NaN.
  std::vector<double> PerPart(std::uint16_t layer, std::size_t num_queries,
                              std::size_t parts) const {
    std::vector<double> out(num_queries * parts, std::nan(""));
    for (const Span& s : spans_) {
      if (s.layer != layer || s.query >= num_queries || s.part >= parts) {
        continue;
      }
      out[s.query * parts + s.part] = s.micros();
    }
    return out;
  }

  /// Writes "query,part,layer,start_ns,end_ns" lines; `names` maps layer ids.
  bool WriteCsv(const std::string& path,
                const std::vector<std::string>& names) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "query,part,layer,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      const char* name =
          s.layer < names.size() ? names[s.layer].c_str() : "unknown";
      std::fprintf(f, "%u,%u,%s,%lld,%lld\n", s.query, s.part, name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
