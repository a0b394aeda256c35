// Proves the SoftHtm writer commit path is allocation-free once warm:
// after a few warm-up transactions every vector and index has reached
// steady-state capacity, and whole attempt/commit cycles must run without
// touching the global allocator. It also proves a commit-time abort never
// unwinds: the binary is linked with -Wl,--wrap=__cxa_allocate_exception,
// so every C++ throw in SoftHtm passes through a counting forwarder.
//
// The instrumentation replaces global operator new/delete with counting
// forwarders, so this binary is deliberately NOT in the sanitizer label set
// (tsan/asan interpose on the allocator themselves).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "htm/abort_code.hpp"
#include "htm/soft_htm.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_exceptions{0};
}  // namespace

// Every `throw` allocates its exception object here first.
extern "C" void* __real___cxa_allocate_exception(std::size_t size) noexcept;
extern "C" void* __wrap___cxa_allocate_exception(std::size_t size) noexcept {
  g_exceptions.fetch_add(1, std::memory_order_relaxed);
  return __real___cxa_allocate_exception(size);
}

// GCC cannot see through the counting forwarders below and flags new/free
// pairs that are in fact malloc/free end to end.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace seer::htm {
namespace {

bool committed(AbortStatus s) { return s.raw() == kXBeginStarted; }

TEST(SoftHtmAlloc, CountersActuallyCount) {
  const std::uint64_t before = g_news.load();
  // A direct operator-new call: new-EXPRESSIONS are elidable at -O2, direct
  // calls are not.
  void* p = ::operator new(8);
  ::operator delete(p);
  EXPECT_GT(g_news.load(), before) << "the counting operator new is not linked in";
}

TEST(SoftHtmAlloc, WriterCommitPathIsAllocationFreeOnceWarm) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(64);
  TmWord lone{0};
  auto body = [&](SoftHtm::Tx& tx) {
    for (auto& w : words) tx.write(w, tx.read(w) + 1);
  };
  // Warm-up: vectors and index tables grow to steady state here.
  const std::uint64_t cold = g_news.load();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(committed(ctx.attempt(body)));
  }
  ASSERT_GT(g_news.load(), cold)
      << "warm-up growth must be visible, or the counter is not wired up";

  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 100; ++i) {
    (void)ctx.attempt(body);
    // Read-only commits share the same reusable structures and must be
    // just as free.
    (void)ctx.attempt([&](SoftHtm::Tx& tx) { (void)tx.read(lone); });
  }
  EXPECT_EQ(g_news.load(), before)
      << "a warm writer attempt/commit cycle must never hit the allocator";
  for (auto& w : words) EXPECT_EQ(w.load(), 108u);
}

TEST(SoftHtmAlloc, Tier0ReadOnlyTransactionsAreAllocationFreeFromTheFirstRun) {
  // The Tier-0 replay log is a fixed buffer sized at context construction
  // (max_read_set slots) and the signature is inline: a read-only
  // transaction that stays in Tier 0 must not allocate even on its very
  // first attempt — there is nothing to warm up.
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(256);
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 50; ++i) {
    std::uint64_t acc = 0;
    ASSERT_TRUE(committed(ctx.attempt([&](SoftHtm::Tx& tx) {
      for (auto& w : words) acc += tx.read(w);
    })));
    ASSERT_FALSE(ctx.read_tier_is_exact()) << "256 reads must stay Tier 0";
  }
  EXPECT_EQ(g_news.load(), before)
      << "a Tier-0 read-only transaction must never hit the allocator";
}

TEST(SoftHtmAlloc, PromotionAllocatesOnceThenSteadyStatePromotionsAreFree) {
  // Promotion rebuilds the exact index and reads_ vector from the replay
  // log. The first promotion at a given size may grow both (bounded
  // allocations); every later promotion through the same context must
  // reuse them and stay allocation-free.
  SoftHtm tm{SoftHtm::Config{.max_read_set = 64}};
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(64);
  auto promoting_body = [&](SoftHtm::Tx& tx) {
    std::uint64_t acc = 0;
    for (auto& w : words) acc += tx.read(w);
    acc += tx.read(words[0]);  // budget-boundary read: forces promotion
    (void)acc;
  };
  ASSERT_TRUE(committed(ctx.attempt(promoting_body)));
  ASSERT_TRUE(ctx.read_tier_is_exact());
  ASSERT_EQ(ctx.read_promotions_capacity(), 1u);

  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(committed(ctx.attempt(promoting_body)));
  }
  EXPECT_EQ(g_news.load(), before)
      << "steady-state promotions must replay into the reused index";
  EXPECT_EQ(ctx.read_promotions_capacity(), 101u);
}

TEST(SoftHtmAlloc, WarmPostPromotionWriterCommitsAreAllocationFree) {
  // A writer that crosses the tier boundary every transaction: fills the
  // Tier-0 log to the budget, keeps reading (duplicates — the log counts
  // them, the exact index dedups them back under budget), writes, commits.
  // Once warm, the whole cycle — Tier-0 logging, promotion replay, exact
  // tail, commit validation over both tiers' read sets — must not allocate.
  SoftHtm tm{SoftHtm::Config{.max_read_set = 64}};
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(64);
  auto body = [&](SoftHtm::Tx& tx) {
    std::uint64_t acc = 0;
    for (auto& w : words) acc += tx.read(w);  // fills the 64-slot log
    for (int i = 0; i < 32; ++i) {
      acc += tx.read(words[i]);  // promotes at logged read 65, dedups
    }
    tx.write(words[0], acc);
  };
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(committed(ctx.attempt(body)));
    ASSERT_TRUE(ctx.read_tier_is_exact());
  }
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(committed(ctx.attempt(body)));
  }
  EXPECT_EQ(g_news.load(), before)
      << "a warm promote-read-write-commit cycle must never hit the allocator";
}

TEST(SoftHtmAlloc, CommitTimeAbortsThrowNothingAndInBodyAbortsThrowOnce) {
  SoftHtm tm;
  SoftHtm::ThreadContext a(tm);
  SoftHtm::ThreadContext b(tm);
  TmWord read{0};
  TmWord written{0};
  auto bump_read = [&](SoftHtm::Tx& tx) { tx.write(read, tx.read(read) + 1); };

  // Commit-time abort: B overwrites A's read set inside A's body, so A's
  // read-set validation fails after the body returned.
  std::uint64_t before = g_exceptions.load();
  AbortStatus s = a.attempt([&](SoftHtm::Tx& tx) {
    (void)tx.read(read);
    ASSERT_TRUE(committed(b.attempt(bump_read)));
    tx.write(written, 1);
  });
  ASSERT_EQ(s.cause(), AbortCause::kConflict);
  EXPECT_EQ(g_exceptions.load(), before) << "a commit-time abort must not throw";

  // In-body abort: the same conflict seen by a read inside the body (A's
  // re-read finds the stripe newer, and the snapshot extension finds the
  // word A already read changed) must leave user code, with exactly one
  // thrown exception — which also proves the counter is wired up.
  before = g_exceptions.load();
  s = a.attempt([&](SoftHtm::Tx& tx) {
    (void)tx.read(read);
    ASSERT_TRUE(committed(b.attempt(bump_read)));
    (void)tx.read(read);
    tx.write(written, 1);
  });
  ASSERT_EQ(s.cause(), AbortCause::kConflict);
  EXPECT_EQ(g_exceptions.load(), before + 1) << "the counting wrapper is not linked in";
  EXPECT_EQ(written.load(), 0u);
  EXPECT_EQ(read.load(), 2u);
}

}  // namespace
}  // namespace seer::htm
