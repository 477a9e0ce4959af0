// Stackful fibers on the calling thread, for the episode rendezvous
// (attack::BatchedCraftPlanner::run). Each runs on an mmap'd stack with a
// PROT_NONE guard page below it; the switch is glibc swapcontext with the
// ASan and TSan fiber hooks. A fiber has its own ThreadPool::thread_index()
// (taken on first use, like a thread's), so metrics slots and trace tids
// are per fiber. An exception that escapes the body is kept in error().
//
// Yield only outside locks, catch handlers and destructors: the C++
// runtime's caught-exception stack belongs to the thread. Destroying an
// unfinished fiber frees its stack without unwinding it.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

namespace rlattack::util {

class Fiber {
 public:
  /// Usable stack per fiber; only touched pages become resident.
  static constexpr std::size_t kStackBytes = 256 * 1024;

  explicit Fiber(std::function<void()> body);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or finishes. Throws std::logic_error
  /// on a finished fiber.
  void resume();
  bool finished() const noexcept;
  /// The exception that escaped the body, or null.
  std::exception_ptr error() const noexcept;

  /// Switches from the running fiber back to its resumer. Throws
  /// std::logic_error outside a fiber.
  static void yield();

 private:
  struct State;  // keeps <ucontext.h> out of this header
  static void entry() noexcept;
  /// The final switch of a finished fiber never returns.
  void switch_to_resumer(bool final) noexcept;

  std::unique_ptr<State> state_;
};

}  // namespace rlattack::util
