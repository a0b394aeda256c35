// Tests for the evaluation harness's indexed fan-out: deterministic by-index
// result collection, exception propagation that attempts every item, and the
// inline serial path — the properties that make fanning the benchmark sweep
// out across cores safe.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/thread_pool.hpp"

namespace seer::util {
namespace {

TEST(ThreadPool, ResultsLandAtSubmittingIndex) {
  const auto results =
      parallel_for_indexed(std::size_t{4}, 200, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 200u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ThreadPool, JobCountDoesNotChangeResults) {
  auto fn = [](std::size_t i) { return 3 * i + 7; };
  const auto serial = parallel_for_indexed(std::size_t{1}, 64, fn);
  for (std::size_t jobs : {2u, 4u, 8u, 16u}) {
    const auto parallel = parallel_for_indexed(std::size_t{jobs}, 64, fn);
    EXPECT_EQ(parallel, serial) << "jobs=" << jobs;
  }
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  EXPECT_THROW(parallel_for_indexed(std::size_t{4}, 50,
                                    [](std::size_t i) -> int {
                                      if (i == 17) throw std::runtime_error("boom 17");
                                      return 0;
                                    }),
               std::runtime_error);
}

TEST(ThreadPool, LowestFailingIndexWins) {
  // All items run; the rethrown error is the lowest index, deterministically,
  // no matter which thread hit its exception first.
  for (std::size_t jobs : {1u, 8u}) {
    std::atomic<int> ran{0};
    try {
      (void)parallel_for_indexed(jobs, 100, [&ran](std::size_t i) -> int {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 5 || i == 80) throw std::runtime_error("item " + std::to_string(i));
        return 0;
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 5") << "jobs=" << jobs;
    }
    EXPECT_EQ(ran.load(), 100) << "jobs=" << jobs;
  }
}

TEST(ThreadPool, SerialPathPropagatesExceptions) {
  EXPECT_THROW(parallel_for_indexed(std::size_t{1}, 10,
                                    [](std::size_t i) -> int {
                                      if (i == 3) throw std::runtime_error("serial");
                                      return 0;
                                    }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroItemsIsEmpty) {
  EXPECT_TRUE(
      parallel_for_indexed(std::size_t{4}, 0, [](std::size_t) { return 1; }).empty());
}

TEST(ThreadPool, ZeroWorkersClampedToOne) {
  // jobs = 0 means one job: every item runs inline on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  const auto r = parallel_for_indexed(std::size_t{0}, 5, [caller](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return i;
  });
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[4], 4u);
}

}  // namespace
}  // namespace seer::util
