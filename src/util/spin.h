// SpinThenPark — the one bounded spin a delivery thread runs before it
// sleeps.
//
// On the threads and sockets backends a fault-in round trip is mostly
// scheduler wakes: a thread that parks on a futex or a condition variable
// the instant it runs dry pays a wake (several microseconds) when the
// awaited event lands a few microseconds later, as protocol replies
// usually do. Each blocking wait therefore first polls its own readiness
// predicate, yielding the CPU between polls, for one fixed window; only
// when the window closes without the event does the caller fall through
// to its park (eventcount, futex or condvar), whose lost-wakeup argument
// is untouched because the spin only runs before it.
//
// The three waits that use it: the shm ring reader (netio/shm.h), a
// node's dispatcher in Channel::WaitPop (runtime/channel.h) and a parked
// guest in Guest::Park (runtime/runtime.h). The spin costs CPU: yields
// are system time, so a spinning process reads busier than a parking one.
// The SpinTally counts show whether the window fits the traffic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace hmdsm {

/// The spin window, chosen from a 10/20/50/100 µs sweep of the repo
/// benchmark (table in ROADMAP item 2(b)). At 10 µs most shm replies
/// still land after the spin. 20 µs, about twice the shm fault-in round
/// trip, already brings the fault-in to its floor and costs the least
/// CPU per op of the four. Longer windows also cover part of a contended
/// lock handoff, which raises hotspot throughput, but a spin that then
/// parks anyway wastes the whole window, so 50 µs burned the most CPU
/// per op. An idle thread still parks within 0.02 ms.
constexpr std::chrono::microseconds kSpinWindow{20};

/// How one wait site's waits ended: the spin saw the event (hits) or the
/// caller went on to park (parks). Surfaced as stats::Ev::kSpinHits /
/// kSpinParks.
struct SpinTally {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> parks{0};
};

/// Polls `ready` (yielding between polls) until it returns true or
/// kSpinWindow passes, and returns whether it came true. `ready` runs at
/// least once and may act, e.g. pop or try-lock: it is called until the
/// first true. Counts the outcome into `tally` when given.
template <typename Ready>
bool SpinThenPark(Ready&& ready, SpinTally* tally = nullptr) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  bool hit = false;
  for (;;) {
    if (ready()) {
      hit = true;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::yield();
  }
  if (tally != nullptr)
    (hit ? tally->hits : tally->parks).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

}  // namespace hmdsm
