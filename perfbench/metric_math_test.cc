// Unit tests of the benchmark's metric arithmetic (metric_math.h).
// Exits non-zero on the first failed expectation.
//
//   .bench_build/cmake/metric_math_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "metric_math.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestSupportedPercentile() {
  using perfbench::SupportedPercentile;
  // p99 needs 10 samples above it: n * 1% >= 10.
  Expect(SupportedPercentile(1000, 99) == 99.0, "1000 samples support p99");
  Expect(SupportedPercentile(999, 99) == 95.0, "999 samples fall back to p95");
  Expect(SupportedPercentile(10000, 99.9) == 99.9, "10000 samples support p99.9");
  Expect(SupportedPercentile(10000, 99) == 99.0, "never above the requested rung");
  Expect(SupportedPercentile(200, 99) == 95.0, "200 samples support p95");
  Expect(SupportedPercentile(20, 99) == 50.0, "20 samples support only the median");
  Expect(SupportedPercentile(19, 99) == 0.0, "19 samples support nothing");
}

void TestPercentile() {
  std::vector<int64_t> v;
  for (int64_t i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  Expect(perfbench::Percentile(&v, 50) == 50, "nearest-rank median of 1..100");
  Expect(perfbench::Percentile(&v, 99) == 99, "nearest-rank p99 of 1..100");
  Expect(perfbench::Percentile(&v, 100) == 100, "p100 is the max");
  // 100 samples cannot support p99 (only 1 above it): the tail falls back
  // to p90, which leaves exactly 10 above.
  Expect(perfbench::TailPercentile(&v, 99) == 90, "tail of 100 samples is p90");
  std::vector<int64_t> empty;
  Expect(perfbench::Percentile(&empty, 99) == 0, "empty set reads 0");
}

void TestQuantile() {
  Expect(Near(perfbench::Quantile({4, 1, 3, 2}, 0.5), 2.5), "median interpolates");
  Expect(Near(perfbench::Quantile({4, 1, 3, 2}, 0.25), 1.75), "lower quartile interpolates");
  Expect(Near(perfbench::Quantile({7}, 0.75), 7.0), "one value");
  Expect(Near(perfbench::Quantile({}, 0.5), 0.0), "empty reads 0");
}

void TestBlockPercentile() {
  // 3000 samples of 100 us, with one stall making 200 consecutive samples
  // 50 ms: the stall owns one block of three, so the median block p99 and
  // the lower quartile stay 100.
  std::vector<int64_t> v(3000, 100);
  for (size_t i = 1200; i < 1400; ++i) {
    v[i] = 50000;
  }
  std::vector<int64_t> pooled = v;
  Expect(perfbench::Percentile(&pooled, 99) == 50000, "a stall owns the pooled p99");
  Expect(perfbench::BlockPercentile(v, 99, 0.5, perfbench::kTailBlock) == 100, "median block p99 ignores one stall");
  Expect(perfbench::BlockPercentile(v, 99, 0.25, perfbench::kTailBlock) == 100, "lower-quartile block p99 too");
  // A tail in every block is the program's own and shows.
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < 20; ++i) {
      v[b * 1000 + i] = 7000;
    }
  }
  Expect(perfbench::BlockPercentile(v, 99, 0.25, perfbench::kTailBlock) == 7000, "recurring tails show");
  // A short trailing block joins the previous one: 2500 samples = 2 blocks.
  std::vector<int64_t> w(2500, 1);
  for (size_t i = 1000; i < 2500; ++i) {
    w[i] = 3;
  }
  Expect(perfbench::BlockPercentile(w, 50, 0.5, 1000) == 2, "median of block medians 1 and 3");
  std::vector<int64_t> few = {5, 6, 7};
  Expect(perfbench::BlockPercentile(few, 99, 0.25, perfbench::kTailBlock) == perfbench::TailPercentile(&few, 99),
         "fewer than one block falls back to the tail percentile");
}

void TestWindowRate() {
  // Windows of 100 us over [0, 300): 2, 5 and 3 completions.
  const std::vector<int64_t> done = {10, 20, 110, 120, 130, 140, 150, 210, 220, 230, 305};
  Expect(Near(perfbench::WindowRate(done, 0, 300, 100, 0.5), 3 * 1e6 / 100),
         "median window, completions past the end ignored");
  Expect(Near(perfbench::WindowRate(done, 0, 300, 100, 1.0), 5 * 1e6 / 100), "best window");
  Expect(Near(perfbench::WindowRate(done, 0, 50, 100, 0.5), 0.0), "no whole window reads 0");
}

void TestDueLatency() {
  // An op due at t=1000 but sent late at 1600 (the generator stalled) and
  // done at 1700 cost the user 700 us, not 100.
  Expect(perfbench::DueLatency(1000, 1700) == 700, "latency counts from the due time");
  Expect(perfbench::Lateness(1000, 1600) == 600, "lateness is dispatch - due");
  Expect(perfbench::Lateness(1000, 900) == 0, "early dispatch is not negative lateness");
  Expect(perfbench::DueLatency(1000, 900) == 0, "latency never negative");
}

void TestCpuPerOp() {
  // 4 completions, 2 of them inside [100, 200): 50 CPU us / 2 ops.
  const std::vector<int64_t> done = {90, 100, 150, 200};
  Expect(Near(perfbench::CpuPerOp(1000, 1050, done, 100, 200), 25.0),
         "cpu per op counts only completions inside the window");
  Expect(Near(perfbench::CpuPerOp(0, 50, done, 300, 400), 0.0), "empty window reads 0");
  // Samples at t=0/100/200/300: intervals hold 2, 0 and 1 completions.
  const std::vector<std::pair<int64_t, int64_t>> cpu = {{0, 0}, {100, 40}, {200, 50}, {300, 80}};
  const std::vector<int64_t> at = {10, 90, 250};
  const std::vector<double> per = perfbench::IntervalCpuPerOp(cpu, at);
  Expect(per.size() == 2 && Near(per[0], 20.0) && Near(per[1], 30.0),
         "per-interval cpu per op skips empty intervals");
}

void TestOverhead() {
  Expect(Near(perfbench::OverheadPct(105, 100), 5.0), "5% more CPU is 5% overhead");
  Expect(Near(perfbench::OverheadPct(95, 100), -5.0), "a faster traced run is negative");
  Expect(Near(perfbench::OverheadPct(1, 0), 0.0), "zero base reads 0");
}

}  // namespace

int main() {
  TestSupportedPercentile();
  TestPercentile();
  TestQuantile();
  TestBlockPercentile();
  TestWindowRate();
  TestDueLatency();
  TestCpuPerOp();
  TestOverhead();
  if (g_failures == 0) {
    std::printf("metric_math_test: all passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
