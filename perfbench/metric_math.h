// Metric arithmetic shared by the benchmark and its unit test.
//
// Everything here is a pure function of recorded samples, so the rules the
// benchmark reports by (which percentile a sample supports, open-loop
// latency from the due time, CPU per op over a window, tracing overhead)
// are tested on their own in metric_math_test.cc.
#ifndef PERFBENCH_METRIC_MATH_H_
#define PERFBENCH_METRIC_MATH_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// Samples needed beyond a reported percentile for it to mean anything.
inline constexpr double kMinTailSamples = 10;

// The highest percentile <= `want` that leaves at least kMinTailSamples
// samples above it, chosen from a fixed ladder so reports stay comparable.
// Returns 0 when even the median is unsupported (fewer than 20 samples).
inline double SupportedPercentile(size_t n, double want) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (p <= want && static_cast<double>(n) * (100.0 - p) / 100.0 >= kMinTailSamples - 1e-6) {
      return p;
    }
  }
  return 0;
}

// Nearest-rank percentile of `v` (sorted in place). 0 for an empty set.
inline int64_t Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v->size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

// The reported tail: percentile `want` if the sample supports it, else the
// highest supported rung below it (see SupportedPercentile).
inline int64_t TailPercentile(std::vector<int64_t>* v, double want) {
  const double p = SupportedPercentile(v->size(), want);
  return p > 0 ? Percentile(v, p) : Percentile(v, 50);
}

// The q-quantile (0..1, linear interpolation) of `v`. 0 for an empty set.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Samples per block for BlockPercentile: blocks whose median and p99 keep
// at least kMinTailSamples samples beyond them.
inline constexpr size_t kMedianBlock = 100;
inline constexpr size_t kTailBlock = 1000;

// Latency that host interference cannot dominate. `v` (completion order)
// is cut into consecutive blocks of `block` samples (a short last block
// joins the one before) and each block's percentile `p` is taken; the
// result is the `q`-quantile over blocks. Stalls the host imposes (CPU
// steal, neighbours) only ever raise a block's tail, so a low `q` reads the
// tail the program itself produces, while a tail the program raises in
// most blocks still moves it. Fewer than `block` samples fall back to
// TailPercentile of the whole set.
inline int64_t BlockPercentile(const std::vector<int64_t>& v, double p, double q, size_t block) {
  if (block == 0 || v.size() < block) {
    std::vector<int64_t> all = v;
    return TailPercentile(&all, p);
  }
  std::vector<double> per_block;
  const size_t blocks = v.size() / block;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t end = b + 1 == blocks ? v.size() : (b + 1) * block;
    std::vector<int64_t> part(v.begin() + static_cast<std::ptrdiff_t>(b * block),
                              v.begin() + static_cast<std::ptrdiff_t>(end));
    per_block.push_back(static_cast<double>(TailPercentile(&part, p)));
  }
  return static_cast<int64_t>(Quantile(std::move(per_block), q));
}

// Completions per second over [begin, end): the `q`-quantile over
// consecutive windows of `window_us` (a trailing partial window is
// dropped). Interference only slows a window, so a high `q` reads the rate
// the program sustains. 0 if the interval holds no whole window.
inline double WindowRate(const std::vector<int64_t>& done_us, int64_t begin, int64_t end,
                         int64_t window_us, double q) {
  const int64_t windows = window_us > 0 ? (end - begin) / window_us : 0;
  if (windows <= 0) {
    return 0;
  }
  std::vector<double> counts(static_cast<size_t>(windows), 0.0);
  for (int64_t t : done_us) {
    if (t >= begin && t < begin + windows * window_us) {
      counts[static_cast<size_t>((t - begin) / window_us)] += 1;
    }
  }
  return Quantile(std::move(counts), q) * 1e6 / static_cast<double>(window_us);
}

// Open-loop latency: from when the op was due, not when it was sent, so a
// stall also charges the ops queued behind it. Never negative.
inline int64_t DueLatency(int64_t due_us, int64_t done_us) {
  return std::max<int64_t>(0, done_us - due_us);
}

// How late the generator dispatched an op relative to its schedule.
inline int64_t Lateness(int64_t due_us, int64_t dispatched_us) {
  return std::max<int64_t>(0, dispatched_us - due_us);
}

// Process CPU per completed op over [t_begin, t_end): CPU microseconds
// spent in the window divided by the completions that fall inside it.
// 0 when nothing completed.
inline double CpuPerOp(int64_t cpu_begin_us, int64_t cpu_end_us,
                       const std::vector<int64_t>& completions_us, int64_t t_begin,
                       int64_t t_end) {
  size_t ops = 0;
  for (int64_t t : completions_us) {
    ops += (t >= t_begin && t < t_end) ? 1 : 0;
  }
  return ops == 0 ? 0.0 : static_cast<double>(cpu_end_us - cpu_begin_us) / static_cast<double>(ops);
}

// CPU per op in each interval between consecutive (time, process CPU)
// samples, both in microseconds; intervals in which nothing completed are
// skipped.
inline std::vector<double> IntervalCpuPerOp(const std::vector<std::pair<int64_t, int64_t>>& samples,
                                            const std::vector<int64_t>& completions_us) {
  std::vector<double> out;
  for (size_t i = 1; i < samples.size(); ++i) {
    const double v = CpuPerOp(samples[i - 1].second, samples[i].second, completions_us,
                              samples[i - 1].first, samples[i].first);
    if (v > 0) {
      out.push_back(v);
    }
  }
  return out;
}

// Cost of instrumentation as a percentage of the uninstrumented cost
// (positive = the traced run spent more). 0 when the base is 0.
inline double OverheadPct(double traced, double untraced) {
  return untraced == 0 ? 0.0 : 100.0 * (traced - untraced) / untraced;
}


}  // namespace perfbench

#endif  // PERFBENCH_METRIC_MATH_H_
