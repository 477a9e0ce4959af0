#include "rlattack/util/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdlib>
#include <new>
#include <stdexcept>

#include "rlattack/util/thread_pool.hpp"

#ifdef __has_feature
#define RLATTACK_HAS_FEATURE(x) __has_feature(x)
#else
#define RLATTACK_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || RLATTACK_HAS_FEATURE(address_sanitizer)
#define RLATTACK_FIBER_ASAN 1
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__) || RLATTACK_HAS_FEATURE(thread_sanitizer)
#define RLATTACK_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

namespace rlattack::util {

struct Fiber::State {
  std::function<void()> body;
  void* mapping = nullptr;  ///< guard page + stack
  std::size_t mapping_bytes = 0;
  void* stack = nullptr;  ///< lowest usable address, above the guard page
  std::size_t stack_bytes = 0;
  ucontext_t context{};
  ucontext_t resumer{};
  /// Unassigned until the fiber first asks, like a new thread's.
  std::size_t thread_index = static_cast<std::size_t>(-1);
  bool finished = false;
  std::exception_ptr error;
  // The resumer's stack, which AddressSanitizer reports on each switch in.
  const void* resumer_stack = nullptr;
  std::size_t resumer_stack_bytes = 0;
  void* tsan_fiber = nullptr;
  void* tsan_resumer = nullptr;
};

namespace {

thread_local Fiber* tls_running = nullptr;

// Both hooks of a switch are no-ops outside the matching sanitizer build.
void sanitizer_start_switch([[maybe_unused]] void** fake_stack,
                            [[maybe_unused]] const void* stack,
                            [[maybe_unused]] std::size_t bytes,
                            [[maybe_unused]] void* tsan_target) noexcept {
#ifdef RLATTACK_FIBER_ASAN
  __sanitizer_start_switch_fiber(fake_stack, stack, bytes);
#endif
#ifdef RLATTACK_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_target, 0);
#endif
}

void sanitizer_finish_switch([[maybe_unused]] void* fake_stack,
                             [[maybe_unused]] const void** from_stack,
                             [[maybe_unused]] std::size_t* from_bytes) noexcept {
#ifdef RLATTACK_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, from_stack, from_bytes);
#endif
}

}  // namespace

Fiber::Fiber(std::function<void()> body) : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.body = std::move(body);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  s.stack_bytes = (kStackBytes + page - 1) / page * page;
  s.mapping_bytes = s.stack_bytes + page;
  s.mapping = mmap(nullptr, s.mapping_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (s.mapping == MAP_FAILED) throw std::bad_alloc();
  // The stack grows down, so the guard page is the lowest one.
  if (mprotect(s.mapping, page, PROT_NONE) != 0) {
    munmap(s.mapping, s.mapping_bytes);
    throw std::bad_alloc();
  }
  s.stack = static_cast<char*>(s.mapping) + page;
  getcontext(&s.context);
  s.context.uc_stack.ss_sp = s.stack;
  s.context.uc_stack.ss_size = s.stack_bytes;
  makecontext(&s.context, entry, 0);
#ifdef RLATTACK_FIBER_TSAN
  s.tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  State& s = *state_;
#ifdef RLATTACK_FIBER_TSAN
  __tsan_destroy_fiber(s.tsan_fiber);
#endif
#ifdef RLATTACK_FIBER_ASAN
  // Frames that never returned leave their redzones poisoned; a later
  // mapping at this address must not inherit them.
  __asan_unpoison_memory_region(s.stack, s.stack_bytes);
#endif
  munmap(s.mapping, s.mapping_bytes);
}

void Fiber::entry() noexcept {
  Fiber& self = *tls_running;
  State& s = *self.state_;
  sanitizer_finish_switch(nullptr, &s.resumer_stack, &s.resumer_stack_bytes);
  try {
    s.body();
  } catch (...) {
    s.error = std::current_exception();
  }
  s.finished = true;
  self.switch_to_resumer(/*final=*/true);
  std::abort();  // a finished fiber is never resumed
}

void Fiber::resume() {
  State& s = *state_;
  if (s.finished)
    throw std::logic_error("Fiber::resume: the fiber has finished");
  Fiber* const resumer = tls_running;
  tls_running = this;
  const std::size_t resumer_index =
      ThreadPool::exchange_thread_index(s.thread_index);
  void* fake_stack = nullptr;
#ifdef RLATTACK_FIBER_TSAN
  s.tsan_resumer = __tsan_get_current_fiber();
#endif
  sanitizer_start_switch(&fake_stack, s.stack, s.stack_bytes, s.tsan_fiber);
  swapcontext(&s.resumer, &s.context);
  sanitizer_finish_switch(fake_stack, nullptr, nullptr);
  s.thread_index = ThreadPool::exchange_thread_index(resumer_index);
  tls_running = resumer;
}

void Fiber::switch_to_resumer(bool final) noexcept {
  State& s = *state_;
  // A null fake-stack slot tells AddressSanitizer the fiber is done.
  void* fake_stack = nullptr;
  sanitizer_start_switch(final ? nullptr : &fake_stack, s.resumer_stack,
                         s.resumer_stack_bytes, s.tsan_resumer);
  swapcontext(&s.context, &s.resumer);
  sanitizer_finish_switch(fake_stack, &s.resumer_stack,
                          &s.resumer_stack_bytes);
}

bool Fiber::finished() const noexcept { return state_->finished; }

std::exception_ptr Fiber::error() const noexcept { return state_->error; }

void Fiber::yield() {
  if (tls_running == nullptr)
    throw std::logic_error("Fiber::yield called outside a fiber");
  tls_running->switch_to_resumer(/*final=*/false);
}

}  // namespace rlattack::util
