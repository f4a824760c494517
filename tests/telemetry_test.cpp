// Telemetry pipeline tests: JSON validity of every obs renderer, windowed
// aggregation across counter resets, flight-recorder wraparound and
// concurrency, lock-free LatencyMetric under contention, sampling policy
// determinism, retained-trace eviction, and a live HTTP scrape of the
// TelemetryServer.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/cluster.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/sampling.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/obs/window.h"
#include "tests/json_checker.h"

namespace chainreaction {
namespace {

TEST(JsonCheckerTest, SelfTest) {
  EXPECT_TRUE(JsonChecker::Valid("{}"));
  EXPECT_TRUE(JsonChecker::Valid("[]"));
  EXPECT_TRUE(JsonChecker::Valid("{\"a\":[1,2.5,-3],\"b\":{\"c\":\"x\\\"y\"},\"d\":null}"));
  EXPECT_TRUE(JsonChecker::Valid("[{\"t\":true},{\"f\":false}]"));
  EXPECT_FALSE(JsonChecker::Valid("{"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":}"));
  EXPECT_FALSE(JsonChecker::Valid("[1,]"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":1} trailing"));
  EXPECT_FALSE(JsonChecker::Valid("\"unterminated"));
}

// ---------------------------------------------------------------------------
// Renderer validity.

TEST(TelemetryJsonTest, MetricsSnapshotRenderJsonIsValid) {
  MetricsRegistry registry;
  registry.GetCounter("test_counter", {{"node", "1"}})->Inc(42);
  registry.GetGauge("test_gauge")->Set(-7);
  LatencyMetric* lat = registry.GetLatency("test_latency", {{"dc", "0"}});
  for (int i = 1; i <= 100; ++i) {
    lat->Record(i * 10);
  }
  lat->RecordWithExemplar(5000, 0xabcdef0123456789ULL);
  const std::string json = registry.Snapshot().RenderJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("test_counter"), std::string::npos);
}

TEST(TelemetryJsonTest, WindowedViewRenderJsonIsValid) {
  MetricsRegistry registry;
  registry.GetCounter("w_counter")->Inc(10);
  registry.GetLatency("w_latency")->Record(123);
  WindowedAggregator agg;
  agg.Advance(registry.Snapshot(), 1'000'000);
  registry.GetCounter("w_counter")->Inc(5);
  const WindowedView view = agg.Advance(registry.Snapshot(), 2'000'000);
  const std::string json = view.RenderJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
}

TEST(TelemetryJsonTest, TraceAndEventsRenderJsonAreValid) {
  TraceCollector traces;
  TraceContext ctx;
  ctx.id = 0x1234;
  ctx.Annotate(HopKind::kClientPut, 1000, 0, 0, 10);
  ctx.Annotate(HopKind::kHeadApply, 3, 0, 1, 25);
  traces.Report(ctx);
  TraceCollector::Trace t;
  ASSERT_TRUE(traces.Find(0x1234, &t));
  EXPECT_TRUE(JsonChecker::Valid(TraceCollector::RenderJson(t)));

  FlightRecorder recorder;
  recorder.Emit(EventKind::kEpochChange, 100, 2, 1);
  recorder.Emit(EventKind::kWalRotate, 200, 3, 4096);
  EXPECT_TRUE(JsonChecker::Valid(FlightRecorder::RenderJson(recorder.Snapshot())));
}

TEST(TelemetryPrometheusTest, ExpositionFormat) {
  MetricsRegistry registry;
  registry.GetCounter("crx_test_total", {{"node", "3"}})->Inc(9);
  LatencyMetric* lat = registry.GetLatency("crx_test_latency_us");
  for (int i = 0; i < 1000; ++i) {
    lat->Record(100 + i);
  }
  lat->RecordWithExemplar(90000, 0xdeadbeefULL);
  const std::string prom = registry.Snapshot().RenderPrometheus();

  EXPECT_NE(prom.find("# TYPE crx_test_total counter"), std::string::npos) << prom;
  EXPECT_NE(prom.find("crx_test_total{node=\"3\"} 9"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE crx_test_latency_us histogram"), std::string::npos);
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"} 1001"), std::string::npos) << prom;
  EXPECT_NE(prom.find("crx_test_latency_us_count 1001"), std::string::npos);
  // The slow sample's exemplar annotation links its bucket to the trace id.
  EXPECT_NE(prom.find("# {trace_id=\"00000000deadbeef\"} 90000"), std::string::npos) << prom;

  // Cumulative bucket counts must be monotone non-decreasing.
  uint64_t prev = 0;
  size_t at = 0;
  while ((at = prom.find("_bucket{le=\"", at)) != std::string::npos) {
    const size_t sp = prom.find("} ", at);
    ASSERT_NE(sp, std::string::npos);
    const uint64_t count = std::strtoull(prom.c_str() + sp + 2, nullptr, 10);
    EXPECT_GE(count, prev);
    prev = count;
    ++at;
  }
}

// ---------------------------------------------------------------------------
// Windowed aggregation.

TEST(WindowedAggregatorTest, CounterDeltasAndRates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("ops");
  c->Inc(100);
  WindowedAggregator agg;
  const WindowedView first = agg.Advance(registry.Snapshot(), 1'000'000);
  // First window reports cumulative history.
  ASSERT_NE(first.Find("ops"), nullptr);
  EXPECT_EQ(first.Find("ops")->delta, 100);

  c->Inc(50);
  const WindowedView second = agg.Advance(registry.Snapshot(), 2'000'000);
  ASSERT_NE(second.Find("ops"), nullptr);
  EXPECT_EQ(second.Find("ops")->delta, 50);
  EXPECT_EQ(second.interval_us, 1'000'000);
  EXPECT_DOUBLE_EQ(second.Find("ops")->rate, 50.0);
}

TEST(WindowedAggregatorTest, CounterResetReportsFreshStart) {
  // Hand-built snapshots simulate an instrument that went backwards (a
  // restarted node re-registering): the aggregator must not report a
  // negative delta.
  MetricsSnapshot before;
  MetricPoint p;
  p.name = "ops";
  p.kind = MetricKind::kCounter;
  p.value = 1000;
  before.points.push_back(p);

  MetricsSnapshot after = before;
  after.points[0].value = 30;  // reset + 30 new ops

  WindowedAggregator agg;
  agg.Advance(before, 1'000'000);
  const WindowedView view = agg.Advance(after, 2'000'000);
  ASSERT_NE(view.Find("ops"), nullptr);
  EXPECT_EQ(view.Find("ops")->delta, 30);
}

TEST(WindowedAggregatorTest, HistogramIntervalAndGauge) {
  MetricsRegistry registry;
  LatencyMetric* lat = registry.GetLatency("lat");
  Gauge* g = registry.GetGauge("depth");
  for (int i = 0; i < 10; ++i) {
    lat->Record(100);
  }
  g->Set(7);
  WindowedAggregator agg;
  agg.Advance(registry.Snapshot(), 1'000'000);
  for (int i = 0; i < 5; ++i) {
    lat->Record(200);
  }
  g->Set(3);
  const WindowedView view = agg.Advance(registry.Snapshot(), 2'000'000);
  const WindowedPoint* lp = view.Find("lat");
  ASSERT_NE(lp, nullptr);
  EXPECT_EQ(lp->interval.count(), 5u);  // only the new samples
  const WindowedPoint* gp = view.Find("depth");
  ASSERT_NE(gp, nullptr);
  EXPECT_EQ(gp->delta, 3);  // gauges report the current level
}

TEST(WindowedAggregatorTest, ResetForgetsBaseline) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("ops");
  c->Inc(10);
  WindowedAggregator agg;
  agg.Advance(registry.Snapshot(), 1'000'000);
  c->Inc(10);
  agg.Reset();
  const WindowedView view = agg.Advance(registry.Snapshot(), 2'000'000);
  ASSERT_NE(view.Find("ops"), nullptr);
  EXPECT_EQ(view.Find("ops")->delta, 20);  // cumulative again after reset
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorderTest, WraparoundKeepsNewest) {
  FlightRecorder recorder;
  const uint64_t total = 1000;
  for (uint64_t i = 0; i < total; ++i) {
    recorder.Emit(EventKind::kEpochChange, static_cast<int64_t>(i), static_cast<int64_t>(i));
  }
  EXPECT_EQ(recorder.emitted(), total);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kSlots);
  EXPECT_EQ(events.front().seq, total - FlightRecorder::kSlots);
  EXPECT_EQ(events.back().seq, total - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);  // dense and sorted
    EXPECT_EQ(events[i].a, static_cast<int64_t>(events[i].seq));  // payload matches
  }
}

TEST(FlightRecorderTest, ConcurrentEmitAndSnapshot) {
  FlightRecorder recorder;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&recorder, &stop]() {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<FlightEvent> events = recorder.Snapshot();
      for (size_t i = 1; i < events.size(); ++i) {
        // A torn snapshot would show duplicate or unsorted seqs.
        ASSERT_LT(events[i - 1].seq, events[i].seq);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        recorder.Emit(EventKind::kGeoShip, static_cast<int64_t>(i), t, static_cast<int64_t>(i));
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(recorder.emitted(), kThreads * kPerThread);
  EXPECT_EQ(recorder.Snapshot().size(), FlightRecorder::kSlots);
}

TEST(FlightRecorderTest, DumpToFileWritesCrashHeader) {
  FlightRecorder recorder;
  recorder.Emit(EventKind::kEpochChange, 10, 1);
  recorder.Emit(EventKind::kWalRecovery, 20, 55, 3);
  const std::string path = ::testing::TempDir() + "flight_dump_test.log";
  ASSERT_TRUE(recorder.DumpToFile(path, 12345));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(4096, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(contents.find("crash_dump"), std::string::npos) << contents;
  EXPECT_NE(contents.find("epoch_change"), std::string::npos);
  EXPECT_NE(contents.find("wal_recovery a=55 b=3"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFileShutdownHeader) {
  FlightRecorder recorder;
  recorder.Emit(EventKind::kEpochChange, 10, 1);
  const std::string path = ::testing::TempDir() + "flight_shutdown_test.log";
  ASSERT_TRUE(recorder.DumpToFile(path, 777, EventKind::kShutdownDump));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(4096, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(contents.find("shutdown_dump"), std::string::npos) << contents;
  EXPECT_EQ(contents.find("crash_dump"), std::string::npos);
}

// Clean harness teardown must leave each node's flight recorder on disk —
// crash dumps alone are not enough for post-mortems of runs that ended
// normally but behaved oddly.
TEST(FlightRecorderTest, ClusterTeardownDumpsFlightLogs) {
  const std::string root = ::testing::TempDir() + "flight_teardown_cluster";
  std::string node_dir;
  {
    ClusterOptions opts;
    opts.servers_per_dc = 3;
    opts.clients_per_dc = 2;
    opts.data_root = root;
    Cluster cluster(opts);
    cluster.Preload(20, 32);
    node_dir = cluster.NodeDataDir(0, 0);
  }  // ~Cluster: clean shutdown, no crash
  const std::string path = node_dir + "/flight.log";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path << " missing after clean teardown";
  std::string contents(65536, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  EXPECT_NE(contents.find("shutdown_dump"), std::string::npos) << contents;
}

// crx_store_meta_bytes: the apply path publishes it on its own (amortized)
// cadence, and a /status scrape recomputes it, agreeing with the store's
// walk; every key-replica costs at least one version-record slot.
TEST(StoreMetaBytesTest, GaugeAndStatusReportStoreMetadata) {
  ClusterOptions opts;
  opts.servers_per_dc = 4;
  opts.clients_per_dc = 2;
  Cluster cluster(opts);
  cluster.Preload(2000, 32);
  EXPECT_GT(cluster.metrics()->Snapshot().SumCounters("crx_store_meta_bytes"), 0);

  uint64_t walked = 0;
  uint64_t key_replicas = 0;
  for (uint32_t i = 0; i < opts.servers_per_dc; ++i) {
    const ChainReactionNode* node = cluster.crx_node(0, i);
    const std::string status = node->StatusJson();
    EXPECT_TRUE(JsonChecker::Valid(status)) << status;
    const uint64_t meta = node->store().MetaBytes();
    EXPECT_NE(status.find("\"meta_bytes\":" + std::to_string(meta) + ","), std::string::npos)
        << status;
    walked += meta;
    key_replicas += node->store().KeyCount();
  }
  EXPECT_EQ(key_replicas, 2000u * opts.replication);
  EXPECT_EQ(cluster.metrics()->Snapshot().SumCounters("crx_store_meta_bytes"),
            static_cast<int64_t>(walked));
  EXPECT_GE(walked, key_replicas * sizeof(StoredVersion));
}

// ---------------------------------------------------------------------------
// Lock-free LatencyMetric.

TEST(LatencyMetricTest, ConcurrentRecordLosesNothing) {
  MetricsRegistry registry;
  LatencyMetric* lat = registry.GetLatency("contended");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([lat]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        lat->Record(static_cast<int64_t>(i % 1000) + 1);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  // Writers have quiesced, so the relaxed snapshot is exact.
  const Histogram h = lat->Snapshot();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
}

TEST(LatencyMetricTest, ExemplarLinksBucketToTrace) {
  LatencyMetric lat;
  lat.RecordWithExemplar(750, 0x1111222233334444ULL);
  const std::vector<LatencyExemplar> ex = lat.Exemplars();
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_EQ(ex[0].trace_id, 0x1111222233334444ULL);
  EXPECT_EQ(ex[0].value, 750);
  EXPECT_GE(ex[0].bucket_upper, 750);
}

// ---------------------------------------------------------------------------
// Sampling policy.

TEST(SamplingPolicyTest, StrideAndProbability) {
  TraceSamplingPolicy off;
  uint64_t rng = 1;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.HeadSample(0, &rng));

  TraceSamplingPolicy stride;
  stride.sample_every = 4;
  EXPECT_TRUE(stride.HeadSample(0, &rng));
  EXPECT_FALSE(stride.HeadSample(1, &rng));
  EXPECT_TRUE(stride.HeadSample(4, &rng));

  TraceSamplingPolicy always;
  always.probability = 1.0;
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(always.HeadSample(i, &rng));
  }

  // Deterministic: same seed, same decisions.
  TraceSamplingPolicy half;
  half.probability = 0.5;
  uint64_t rng_a = 42, rng_b = 42;
  for (uint64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(half.HeadSample(i, &rng_a), half.HeadSample(i, &rng_b));
  }

  TraceSamplingPolicy tail;
  tail.slow_trace_us = 500;
  EXPECT_TRUE(tail.capture_all());
  EXPECT_TRUE(tail.enabled());
}

// ---------------------------------------------------------------------------
// Retained-trace eviction.

TEST(TraceRetentionTest, RetainedTracesSurviveEvictionPressure) {
  TraceCollector traces;
  // First trace goes in and is retained (a tail-sampled slow put).
  TraceContext slow;
  slow.id = 0x51;
  slow.Annotate(HopKind::kClientPut, 1, 0, 0, 1);
  traces.Report(slow);
  traces.Retain(0x51);

  // Flood well past the collector's cap; unretained old traces evict.
  for (uint64_t i = 0; i < 6000; ++i) {
    TraceContext ctx;
    ctx.id = 0x1000 + i;
    ctx.Annotate(HopKind::kClientPut, 1, 0, 0, static_cast<Time>(i));
    traces.Report(ctx);
  }

  TraceCollector::Trace t;
  EXPECT_TRUE(traces.Find(0x51, &t)) << "retained trace was evicted";
  EXPECT_TRUE(traces.IsRetained(0x51));
  EXPECT_FALSE(traces.Find(0x1000, &t)) << "oldest unretained trace should be gone";
  EXPECT_EQ(traces.retained_count(), 1u);
}

TEST(TraceRetentionTest, DiscardDropsImmediately) {
  TraceCollector traces;
  TraceContext ctx;
  ctx.id = 0x99;
  ctx.Annotate(HopKind::kClientPut, 1, 0, 0, 1);
  traces.Report(ctx);
  EXPECT_EQ(traces.size(), 1u);
  traces.Discard(0x99);
  EXPECT_EQ(traces.size(), 0u);
  TraceCollector::Trace t;
  EXPECT_FALSE(traces.Find(0x99, &t));
}

// ---------------------------------------------------------------------------
// Live HTTP scrape.

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string Body(const std::string& resp) {
  const size_t split = resp.find("\r\n\r\n");
  return split == std::string::npos ? "" : resp.substr(split + 4);
}

TEST(TelemetryServerTest, LiveScrape) {
  MetricsRegistry registry;
  registry.GetCounter("scrape_counter", {{"node", "0"}})->Inc(5);
  registry.GetLatency("scrape_latency")->Record(100);
  TraceCollector traces;
  TraceContext ctx;
  ctx.id = 0xabc;
  ctx.Annotate(HopKind::kClientPut, 1, 0, 0, 1);
  ctx.Annotate(HopKind::kClientAck, 1, 0, 0, 900);
  traces.Report(ctx);
  traces.Retain(0xabc);
  FlightRecorder recorder;
  recorder.Emit(EventKind::kEpochChange, 1, 2);

  TelemetryServer server(0);
  ASSERT_TRUE(server.ok());
  server.AttachMetrics(&registry);
  server.AttachTraces(&traces);
  server.AddRecorder("n0", &recorder);
  server.SetStatusProvider([]() { return std::string("{\"role\":\"test\"}"); });
  server.Start();
  const uint16_t port = server.port();
  ASSERT_NE(port, 0);

  const std::string prom = HttpGet(port, "/metrics");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE scrape_counter counter"), std::string::npos);
  EXPECT_NE(prom.find("scrape_counter{node=\"0\"} 5"), std::string::npos);

  EXPECT_NE(HttpGet(port, "/metrics?filter=scrape_counter").find("scrape_counter"),
            std::string::npos);

  EXPECT_TRUE(JsonChecker::Valid(Body(HttpGet(port, "/metrics.json"))));
  EXPECT_TRUE(JsonChecker::Valid(Body(HttpGet(port, "/metrics/window?format=json"))));
  EXPECT_TRUE(JsonChecker::Valid(Body(HttpGet(port, "/events?format=json"))));
  EXPECT_TRUE(JsonChecker::Valid(Body(HttpGet(port, "/status"))));

  const std::string list = Body(HttpGet(port, "/traces"));
  EXPECT_NE(list.find("0000000000000abc retained"), std::string::npos) << list;
  const std::string trace = HttpGet(port, "/traces/0000000000000abc");
  EXPECT_NE(trace.find("client_put"), std::string::npos);
  EXPECT_TRUE(
      JsonChecker::Valid(Body(HttpGet(port, "/traces/0000000000000abc?format=json"))));

  EXPECT_NE(HttpGet(port, "/nope").find("404"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace chainreaction
