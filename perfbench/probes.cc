#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>

#include "metric_math.h"
#include "src/common/rng.h"
#include "src/common/version.h"
#include "src/msg/message.h"
#include "src/obs/metrics.h"
#include "src/storage/versioned_store.h"
#include "src/wal/wal.h"
#include "src/ycsb/workload.h"

namespace perfbench {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

}  // namespace perfbench

// Counting allocator for process.allocs_per_op. The flag check is the only
// cost while counting is off.
namespace {
void* CountedAlloc(size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace perfbench {

using namespace chainreaction;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<NamedType>& ReportedTypes() {
  static const std::vector<NamedType> kTypes = {
      {static_cast<uint16_t>(MsgType::kCrxPut), "CrxPut"},
      {static_cast<uint16_t>(MsgType::kCrxGet), "CrxGet"},
      {static_cast<uint16_t>(MsgType::kCrxChainPut), "CrxChainPut"},
      {static_cast<uint16_t>(MsgType::kCrxPutAckBatch), "CrxPutAckBatch"},
      {static_cast<uint16_t>(MsgType::kCrxGetReply), "CrxGetReply"},
      {static_cast<uint16_t>(MsgType::kCrxStableNotify), "CrxStableNotify"},
      {static_cast<uint16_t>(MsgType::kCrxWatermark), "CrxWatermark"},
  };
  return kTypes;
}

void TimedActor::OnMessage(Address from, std::string_view payload) {
  const size_t type = static_cast<size_t>(PeekType(payload)) % kTypeSlots;
  const int64_t t0 = NowNs();
  inner_->OnMessage(from, payload);
  by_type_[type].Add(static_cast<uint64_t>(NowNs() - t0));
}

TimedEnv::TimedEnv(Env* inner, uint32_t sample_every, size_t max_per_type)
    : inner_(inner), sample_every_(sample_every == 0 ? 1 : sample_every),
      max_per_type_(max_per_type) {}

void TimedEnv::Send(Address dst, Payload payload) {
  const std::string_view bytes = payload.view();
  const size_t type = static_cast<size_t>(PeekType(bytes)) % kTypeSlots;
  if (seen_[type]++ % sample_every_ == 0 && frames_[type].size() < max_per_type_) {
    frames_[type].emplace_back(bytes);
  }
  inner_->Send(dst, std::move(payload));
}

uint64_t TimedEnv::Schedule(Duration delay, std::function<void()> fn) {
  return inner_->Schedule(delay, [this, fn = std::move(fn)]() {
    const int64_t t0 = NowNs();
    fn();
    timers_.Add(static_cast<uint64_t>(NowNs() - t0));
  });
}

namespace {

// Keeps timed results observable so the loops are not optimized away.
volatile size_t g_sink = 0;

template <typename M>
void TimeCodec(const std::string& name, const std::vector<std::string>& frames, Metrics* out) {
  constexpr int kReps = 20;
  double decode_ns = 0;
  double encode_ns = 0;
  double bytes = 0;
  std::vector<M> decoded;
  for (const std::string& f : frames) {
    M m;
    if (DecodeMessage(f, &m)) {
      decoded.push_back(std::move(m));
      bytes += static_cast<double>(f.size());
    }
  }
  if (!decoded.empty()) {
    const double n = static_cast<double>(decoded.size()) * kReps;
    int64_t t0 = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const std::string& f : frames) {
        M m;
        g_sink = g_sink + (DecodeMessage(f, &m) ? 1 : 0);
      }
    }
    decode_ns = static_cast<double>(NowNs() - t0) / n;
    t0 = NowNs();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const M& m : decoded) {
        g_sink = g_sink + EncodeMessage(m, WireFormat::kV2).size();
      }
    }
    encode_ns = static_cast<double>(NowNs() - t0) / n;
    bytes /= static_cast<double>(decoded.size());
  }
  out->push_back({"msg.encode_ns." + name, encode_ns, "ns"});
  out->push_back({"msg.decode_ns." + name, decode_ns, "ns"});
  out->push_back({"msg.bytes." + name, bytes, "B"});
}

}  // namespace

Metrics MeasureCodecs(const std::vector<const TimedEnv*>& envs) {
  Metrics out;
  for (const NamedType& t : ReportedTypes()) {
    std::vector<std::string> frames;
    for (const TimedEnv* env : envs) {
      const auto& f = env->frames()[t.type];
      frames.insert(frames.end(), f.begin(), f.end());
    }
    switch (static_cast<MsgType>(t.type)) {
      case MsgType::kCrxPut:
        TimeCodec<CrxPut>(t.name, frames, &out);
        break;
      case MsgType::kCrxGet:
        TimeCodec<CrxGet>(t.name, frames, &out);
        break;
      case MsgType::kCrxChainPut:
        TimeCodec<CrxChainPut>(t.name, frames, &out);
        break;
      case MsgType::kCrxPutAckBatch:
        TimeCodec<CrxPutAckBatch>(t.name, frames, &out);
        break;
      case MsgType::kCrxGetReply:
        TimeCodec<CrxGetReply>(t.name, frames, &out);
        break;
      case MsgType::kCrxStableNotify:
        TimeCodec<CrxStableNotify>(t.name, frames, &out);
        break;
      case MsgType::kCrxWatermark:
        TimeCodec<CrxWatermark>(t.name, frames, &out);
        break;
      default:
        break;
    }
  }
  return out;
}

namespace {

double MeanUs(const std::vector<int64_t>& ns) {
  if (ns.empty()) {
    return 0;
  }
  double sum = 0;
  for (int64_t v : ns) {
    sum += static_cast<double>(v);
  }
  return sum / static_cast<double>(ns.size()) / 1000.0;
}

double PercentileUs(std::vector<int64_t> ns, double p) {
  return static_cast<double>(Percentile(&ns, p)) / 1000.0;
}

Version NextVersion(uint64_t* lamport) {
  Version v;
  v.lamport = ++*lamport;
  v.vv.Set(0, v.lamport);
  return v;
}

struct StoreReplay {
  std::vector<int64_t> apply_ns;
  std::vector<int64_t> warm_ns;  // Latest of the key just applied
  std::vector<int64_t> cold_ns;  // Latest of the least recently touched keys
  double hit_ratio = 0;          // residency-cache hits / lookups (disk only)
  uint64_t compactions = 0;
};

// Preloads every key, then replays the op stream into one VersionedStore:
// puts are applied and marked stable (as the tail would), gets read Latest.
bool ReplayStore(const ReplaySpec& spec, const std::vector<Key>& keys, const std::string& value,
                 bool disk, const std::string& dir, StoreReplay* r) {
  VersionedStore store;
  if (disk) {
    std::unique_ptr<StorageEngine> engine;
    if (!OpenDiskEngine(dir, DiskEngineOptions{}, &engine).ok()) {
      return false;
    }
    store.AttachEngine(std::move(engine));
    store.SetCacheBudget(spec.cache_bytes);
  }
  uint64_t lamport = 0;
  for (const Key& k : keys) {
    const Version v = NextVersion(&lamport);
    store.Apply(k, value, v);
    store.MarkStable(k, v);
  }
  std::vector<uint64_t> touched(keys.size(), 0);
  const uint64_t hits0 = store.cache_hits();
  const uint64_t misses0 = store.cache_misses();
  const uint64_t compactions0 = store.engine()->Stats().compactions;
  uint64_t step = 0;
  for (const ReplayOp& op : spec.ops) {
    const Key& k = keys[op.key];
    touched[op.key] = ++step;
    if (op.is_get) {
      g_sink = g_sink + (store.Latest(k) != nullptr ? 1 : 0);
      continue;
    }
    const Version v = NextVersion(&lamport);
    int64_t t0 = NowNs();
    store.Apply(k, value, v);
    r->apply_ns.push_back(NowNs() - t0);
    store.MarkStable(k, v);
    t0 = NowNs();
    g_sink = g_sink + (store.Latest(k) != nullptr ? 1 : 0);
    r->warm_ns.push_back(NowNs() - t0);
  }
  const uint64_t hits = store.cache_hits() - hits0;
  const uint64_t lookups = hits + store.cache_misses() - misses0;
  r->hit_ratio = lookups == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(lookups);
  r->compactions = store.engine()->Stats().compactions - compactions0;
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return touched[a] < touched[b]; });
  order.resize(std::min<size_t>(order.size(), 2000));
  for (size_t i : order) {
    const int64_t t0 = NowNs();
    g_sink = g_sink + (store.Latest(keys[i]) != nullptr ? 1 : 0);
    r->cold_ns.push_back(NowNs() - t0);
  }
  return true;
}

}  // namespace

Metrics RunReplay(const ReplaySpec& spec, const std::string& dir) {
  Metrics out;
  std::vector<Key> keys;
  keys.reserve(spec.keys);
  for (uint64_t i = 0; i < spec.keys; ++i) {
    keys.push_back(RecordKey(i));
  }
  const std::string value(spec.value_size, 'r');
  const bool disk = spec.engine == StorageEngineKind::kDisk;

  // storage: the store configured as the live nodes' store is.
  StoreReplay live;
  ReplayStore(spec, keys, value, disk, dir + "/store", &live);
  out.push_back({"storage.apply_us", MeanUs(live.apply_ns), "us"});
  out.push_back({"storage.latest_us.warm", MeanUs(live.warm_ns), "us"});
  out.push_back({"storage.latest_us.cold", MeanUs(live.cold_ns), "us"});

  // engine: a standalone value log fed the stream's put values.
  std::vector<int64_t> append_ns;
  std::vector<int64_t> read_ns;
  {
    std::unique_ptr<StorageEngine> engine;
    if (OpenDiskEngine(dir + "/engine", DiskEngineOptions{}, &engine).ok()) {
      std::vector<ValueHandle> handles;
      uint64_t lamport = 0;
      for (const ReplayOp& op : spec.ops) {
        if (op.is_get) {
          continue;
        }
        const Version v = NextVersion(&lamport);
        const int64_t t0 = NowNs();
        handles.push_back(engine->Append(keys[op.key], v, value));
        append_ns.push_back(NowNs() - t0);
      }
      Rng rng(spec.ops.size() + 17);
      Value got;
      for (size_t i = 0; i < 2000 && !handles.empty(); ++i) {
        const ValueHandle& h = handles[rng.NextBelow(handles.size())];
        const int64_t t0 = NowNs();
        g_sink = g_sink + (engine->Read(h, &got).ok() ? got.size() : 0);
        read_ns.push_back(NowNs() - t0);
      }
    }
  }
  out.push_back({"engine.append_us", MeanUs(append_ns), "us"});
  out.push_back({"engine.read_us", MeanUs(read_ns), "us"});

  // wal: a standalone log with default options (group commit, background
  // flusher), so Append contends with the flusher as it does live.
  std::vector<int64_t> wal_ns;
  MetricsRegistry wal_metrics;
  uint64_t wal_puts = 0;
  {
    std::unique_ptr<Wal> wal;
    if (Wal::Open(dir + "/wal", WalOptions{}, &wal).ok()) {
      wal->AttachObs(&wal_metrics, "replay");
      uint64_t lamport = 0;
      for (const ReplayOp& op : spec.ops) {
        if (op.is_get) {
          continue;
        }
        const WalRecord rec = WalRecord::Apply(keys[op.key], value, NextVersion(&lamport), {});
        const int64_t t0 = NowNs();
        g_sink = g_sink + (wal->Append(rec).ok() ? 1 : 0);
        wal_ns.push_back(NowNs() - t0);
        ++wal_puts;
      }
    }
  }
  out.push_back({"wal.append_us.p50", PercentileUs(wal_ns, 50), "us"});
  out.push_back({"wal.append_us.p99", PercentileUs(wal_ns, 99), "us"});

  if (spec.supply_live_instruments) {
    const MetricsSnapshot snap = wal_metrics.Snapshot();
    const MetricPoint* fsync = snap.Find("crx_wal_fsync_us", "node=replay");
    const MetricPoint* batch = snap.Find("crx_wal_batch_records", "node=replay");
    out.push_back({"wal.fsync_us.p50", fsync ? static_cast<double>(fsync->hist.P50()) : 0, "us"});
    out.push_back({"wal.fsync_us.p99", fsync ? static_cast<double>(fsync->hist.P99()) : 0, "us"});
    out.push_back({"wal.records_per_fsync", batch ? batch->hist.Mean() : 0, "count"});
    out.push_back({"wal.bytes_per_op",
                   wal_puts == 0 ? 0
                                 : static_cast<double>(snap.Value("crx_wal_bytes",
                                                                  "node=replay")) /
                                       static_cast<double>(spec.ops.size()),
                   "B"});
    StoreReplay cached;
    ReplayStore(spec, keys, value, true, dir + "/cached_store", &cached);
    out.push_back({"engine.cache_hit_ratio", cached.hit_ratio, "ratio"});
    out.push_back({"engine.compactions_per_10k_ops",
                   spec.ops.empty() ? 0
                                    : 1e4 * static_cast<double>(cached.compactions) /
                                          static_cast<double>(spec.ops.size()),
                   "count"});
  }
  return out;
}

}  // namespace perfbench
