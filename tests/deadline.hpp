// Bounded-time guard for tests of code that can hang (an episode
// rendezvous whose rounds never end).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace rlattack::testing {

/// Runs `body`, aborting the process if it has not returned within `limit`:
/// a hung body can be neither joined nor cancelled, so a hang would
/// otherwise stall the whole suite.
template <class Body>
void within_deadline(std::chrono::seconds limit, Body body) {
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, limit, [&] { return finished; })) {
      std::fprintf(stderr, "test body did not return within %lld s\n",
                   static_cast<long long>(limit.count()));
      std::abort();
    }
  });
  struct Finish {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& finished;
    std::thread& watchdog;
    ~Finish() {
      {
        std::lock_guard lock(mu);
        finished = true;
      }
      cv.notify_all();
      watchdog.join();
    }
  } finish{mu, cv, finished, watchdog};
  body();
}

}  // namespace rlattack::testing
