// Runtime environment seen by protocol actors.
//
// All protocol logic (chain nodes, clients, geo replicators) is written
// against this narrow interface so the exact same code runs on
//   * the deterministic discrete-event simulator (src/sim), and
//   * the real TCP transport (src/net).
#ifndef SRC_SIM_ENV_H_
#define SRC_SIM_ENV_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/payload.h"
#include "src/common/types.h"

namespace chainreaction {

class Env {
 public:
  virtual ~Env() = default;

  // Current time in microseconds (simulated or wall clock).
  virtual Time Now() = 0;

  // Asynchronously delivers `payload` to `dst`. Links are reliable and FIFO
  // per (src, dst) pair unless the simulation injects faults. A std::string
  // converts implicitly (owned, one move); fan-out senders pass a shared
  // Payload so one encoded frame serves every destination (DESIGN.md §15).
  virtual void Send(Address dst, Payload payload) = 0;

  // Runs `fn` after `delay`. Returns a timer id usable with CancelTimer.
  virtual uint64_t Schedule(Duration delay, std::function<void()> fn) = 0;
  virtual void CancelTimer(uint64_t timer_id) = 0;

  // Runs `fn` once the work in hand is done, and no later than `window`.
  // Coalescing windows (client-ack batches, stability notifications, geo
  // ship batches) arm this instead of a timer, so a batch grows only while
  // there is work ready to join it (DESIGN.md §10):
  //   * TcpRuntime runs `fn` at the end of the current event-loop cycle,
  //     before the cycle's writev flush and before the loop sleeps;
  //   * the simulator has no loop cycles and waits the full `window`.
  // The default is a zero-delay timer: an Env wrapper that forwards only
  // Schedule still flushes without a wait (on TCP an already-due timer
  // fires before the loop sleeps).
  virtual void Defer(Duration /*window*/, std::function<void()> fn) {
    Schedule(0, std::move(fn));
  }
};

// An actor receives messages addressed to it. Implementations must not block.
class Actor {
 public:
  virtual ~Actor() = default;
  // `payload` aliases the transport's receive buffer and is valid ONLY for
  // the duration of the call: decode what you need, copy what you keep.
  // This is what lets both transports deliver frames without a per-message
  // heap copy (DESIGN.md §15).
  virtual void OnMessage(Address from, std::string_view payload) = 0;
};

}  // namespace chainreaction

#endif  // SRC_SIM_ENV_H_
