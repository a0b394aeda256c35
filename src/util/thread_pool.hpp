// Deterministic indexed fan-out.
//
// The evaluation harness replays hundreds of independent, deterministic
// simulator configurations; parallel_for_indexed runs them on every host
// core while keeping the OBSERVABLE result identical to a serial sweep:
// items are claimed by index, each result lands in the slot of its index,
// and the caller consumes the vector in order. Scheduling nondeterminism can
// change only wall-clock time, never output.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace seer::util {

// Number of logical CPUs, with a sane floor when the runtime cannot tell.
[[nodiscard]] inline std::size_t hardware_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

// Invokes fn(0) .. fn(n-1) and returns the results in index order (fn must
// be safe to call concurrently; results must be default-constructible).
// `jobs <= 1` runs inline on the calling thread; otherwise min(jobs, n)
// threads take indices from one atomic counter. Every item is attempted
// even if some throw; afterwards the exception of the LOWEST failing index
// is rethrown, so error reporting is as deterministic as the results.
template <typename F>
auto parallel_for_indexed(std::size_t jobs, std::size_t n, F&& fn)
    -> std::vector<std::invoke_result_t<F&, std::size_t>> {
  std::vector<std::invoke_result_t<F&, std::size_t>> results(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        results[i] = fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; jobs > 1 && t < std::min(jobs, n); ++t) {
    threads.emplace_back(drain);
  }
  if (threads.empty()) drain();
  for (std::thread& th : threads) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace seer::util
