// Per-layer probes for the traced benchmark run.
//
// Everything here measures a layer from the outside, by timing calls into
// its public functions: a wrapper Actor around each node (handler time by
// message type), a wrapper Env handed to each node and client (timer
// callback time, sampled outgoing frames), re-encoding of those sampled
// frames (codec cost), and a replay of the workload's op stream into
// standalone store / engine / WAL objects. No program code is changed.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/engine/storage_engine.h"
#include "src/sim/env.h"

namespace perfbench {

using chainreaction::Actor;
using chainreaction::Address;
using chainreaction::Env;

// One named measurement with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

int64_t NowNs();

// Heap allocations counted while g_count_allocs is set (operator new is
// replaced in probes.cc; the flag is off outside the traced window).
extern std::atomic<bool> g_count_allocs;
extern std::atomic<uint64_t> g_allocs;

// Count + total nanoseconds, written by one loop thread and read from any.
struct Tally {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> ns{0};

  void Add(uint64_t dt_ns) {
    count.store(count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    ns.store(ns.load(std::memory_order_relaxed) + dt_ns, std::memory_order_relaxed);
  }
};

// Message-type tags are < 128 (src/msg/message.h), flag bit masked off.
inline constexpr size_t kTypeSlots = 128;

// The hot-path message types the report itemizes, with report names.
struct NamedType {
  uint16_t type;
  const char* name;
};
const std::vector<NamedType>& ReportedTypes();

// Wraps a node actor: times each OnMessage by the frame's message type.
class TimedActor : public Actor {
 public:
  explicit TimedActor(Actor* inner) : inner_(inner) {}
  void OnMessage(Address from, std::string_view payload) override;
  const Tally& by_type(size_t type) const { return by_type_[type]; }

 private:
  Actor* inner_;
  std::array<Tally, kTypeSlots> by_type_;
};

// Wraps the Env a node or client was given: times callbacks scheduled
// through Schedule, and keeps a copy of every `sample_every`-th outgoing
// frame of each message type (at most `max_per_type`) for codec timing.
class TimedEnv : public Env {
 public:
  TimedEnv(Env* inner, uint32_t sample_every, size_t max_per_type);
  chainreaction::Time Now() override { return inner_->Now(); }
  void Send(Address dst, chainreaction::Payload payload) override;
  uint64_t Schedule(chainreaction::Duration delay, std::function<void()> fn) override;
  void CancelTimer(uint64_t timer_id) override { inner_->CancelTimer(timer_id); }

  const Tally& timers() const { return timers_; }
  // Sampled frames by message type; read only after the loop has stopped.
  const std::array<std::vector<std::string>, kTypeSlots>& frames() const { return frames_; }

 private:
  Env* inner_;
  uint32_t sample_every_;
  size_t max_per_type_;
  Tally timers_;
  std::array<uint64_t, kTypeSlots> seen_{};
  std::array<std::vector<std::string>, kTypeSlots> frames_;
};

// msg.encode_ns.<T>, msg.decode_ns.<T>, msg.bytes.<T> for every reported
// type, by decoding and re-encoding the sampled frames (v2 format).
Metrics MeasureCodecs(const std::vector<const TimedEnv*>& envs);

// The op stream a replay feeds to standalone layer objects.
struct ReplayOp {
  bool is_get = false;
  uint64_t key = 0;
};

struct ReplaySpec {
  std::vector<ReplayOp> ops;
  uint64_t keys = 0;
  uint32_t value_size = 0;
  chainreaction::StorageEngineKind engine = chainreaction::StorageEngineKind::kMem;
  uint64_t cache_bytes = 0;  // residency budget of the replayed disk store
  // True when the live deployment ran no WAL or disk engine: the replay
  // then also supplies the wal.* / engine.* instrument readings.
  bool supply_live_instruments = false;
};

// storage.apply_us, storage.latest_us.{warm,cold}, engine.append_us,
// engine.read_us, wal.append_us.{p50,p99} (and, with
// supply_live_instruments, wal.fsync_us.*, wal.records_per_fsync,
// wal.bytes_per_op, engine.cache_hit_ratio, engine.compactions_per_10k_ops).
// `dir` must exist and be empty; the replay writes only below it.
Metrics RunReplay(const ReplaySpec& spec, const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
