// Watchdog — ends the whole test binary when a scope outlives its limit.
// A wait that lost its wakeup leaves threads that cannot be unwound, so a
// test of a wait fails by exiting instead of hanging the suite.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace hmdsm {

class Watchdog {
 public:
  explicit Watchdog(const char* what,
                    std::chrono::seconds limit = std::chrono::seconds(30))
      : thread_([this, what, limit] {
          std::unique_lock lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "%s hung\n", what);
            std::_Exit(1);
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

}  // namespace hmdsm
