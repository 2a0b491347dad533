// The execution-context seam between the DSM protocol layer and whatever is
// actually running application code.
//
// The blocking side of the protocol (Read/Write/Acquire/Release/Barrier in
// dsm::Agent) needs exactly three primitives from its caller: advance time
// (`Delay`), block until woken (`Park`), and wake a blocked peer (`Unpark`).
// `Exec` abstracts those so the same Agent code serves two backends:
//
//   * sim::Process     — a cooperative simulated process; Park hands the
//     single baton back to the discrete-event kernel, Delay advances virtual
//     time. Bit-deterministic.
//   * runtime::Guest   — a real std::thread bound to one node of the
//     threads and sockets backends; Park releases the node's agent lock,
//     spins for the one SpinThenPark window (util/spin.h), then waits on
//     a condition variable; Delay sleeps wall-clock time.
//
// The contract both implementations honour (and the protocol relies on):
// between entering a blocking Agent call and the moment Park actually
// blocks, no protocol message for this node is processed — the sim
// guarantees it with the single baton, the threads backend with the
// per-node agent lock that Park releases only once the caller is parked.
// This is what makes "send request, then Wait()" free of lost wakeups.
#pragma once

#include <cstdint>
#include <deque>

#include "src/sim/time.h"
#include "src/util/check.h"

namespace hmdsm::runtime {

/// One blocked-or-running application context (simulated process or real
/// thread). All methods are called with the owning backend's serialization
/// in force (kernel baton / node agent lock).
class Exec {
 public:
  virtual ~Exec() = default;

  /// Models local computation: virtual time in the simulator, a wall-clock
  /// sleep on the threads backend. Callable only from the context itself,
  /// outside any Agent call.
  virtual void Delay(sim::Time dt) = 0;

  /// Blocks until another party calls Unpark(). Returns the value passed to
  /// Unpark (an opaque token, useful to distinguish wakeup reasons).
  virtual std::uint64_t Park() = 0;

  /// Makes a parked context runnable. It is an error to unpark a context
  /// that is not parked (lost-wakeup bugs in the protocol layer should fail
  /// loudly, not be absorbed).
  virtual void Unpark(std::uint64_t token = 0) = 0;
};

/// Strict-FIFO park/unpark queue over Exec — the building block for the
/// blocking primitives (reply slots, lock waits, barriers). Wakeups are
/// never lost: NotifyOne on an empty queue is an error by design (the DSM
/// layer always checks for a waiter before notifying). Not internally
/// synchronized: callers rely on the backend's per-node serialization.
class WaitQueue {
 public:
  /// Parks `e` until a notify reaches it. Returns the token passed to the
  /// corresponding NotifyOne/NotifyAll call.
  std::uint64_t Wait(Exec& e) {
    waiters_.push_back(&e);
    return e.Park();
  }

  bool empty() const { return waiters_.empty(); }
  std::size_t size() const { return waiters_.size(); }

  /// Wakes the longest-waiting context.
  void NotifyOne(std::uint64_t token = 0) {
    HMDSM_CHECK_MSG(!waiters_.empty(), "NotifyOne on empty wait queue");
    Exec* e = waiters_.front();
    waiters_.pop_front();
    e->Unpark(token);
  }

  /// Wakes every waiter (in FIFO order).
  void NotifyAll(std::uint64_t token = 0) {
    std::deque<Exec*> batch;
    batch.swap(waiters_);
    for (Exec* e : batch) e->Unpark(token);
  }

 private:
  std::deque<Exec*> waiters_;
};

}  // namespace hmdsm::runtime
