// Spin-then-yield backoff.
//
// Busy-wait loops in the runtime (lock acquisition, lemming-avoidance waits,
// fallback retries) first spin with `pause`, then start yielding the CPU.
// Pure pause-spinning is correct on a dedicated many-core box but livelocks
// practically on oversubscribed or single-core hosts, where the thread being
// waited for cannot run until the waiter burns its scheduling quantum.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace seer::util {

// One spin-wait hint: `pause` where the ISA has it.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

class Backoff {
 public:
  // `spin_limit`: pause-iterations before yielding begins.
  explicit Backoff(std::uint32_t spin_limit = 128) noexcept
      : spin_limit_(spin_limit) {}

  void pause() noexcept {
    if (spins_ < spin_limit_) {
      ++spins_;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  void reset() noexcept { spins_ = 0; }

 private:
  std::uint32_t spin_limit_;
  std::uint32_t spins_ = 0;
};

}  // namespace seer::util
