// Tests for the SoftHtm software implementation of a best-effort HTM:
// TSX-compatible status model, transactional semantics (atomicity, isolation,
// opacity), capacity model, explicit aborts, subscriptions, and
// multi-threaded correctness properties.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "check/fault_plan.hpp"
#include "htm/abort_code.hpp"
#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace seer::htm {
namespace {

bool committed(AbortStatus s) { return s.raw() == kXBeginStarted; }

// ---------------------------------------------------------- AbortStatus ----

TEST(AbortStatus, FactoryBitsMatchTsxLayout) {
  EXPECT_EQ(AbortStatus::conflict().raw(), kAbortConflictBit | kAbortRetryBit);
  EXPECT_EQ(AbortStatus::conflict(false).raw(), kAbortConflictBit);
  EXPECT_EQ(AbortStatus::capacity().raw(), kAbortCapacityBit);
  EXPECT_EQ(AbortStatus::other().raw(), 0u);
  const AbortStatus e = AbortStatus::explicit_abort(0xAB);
  EXPECT_TRUE(e.is_explicit());
  EXPECT_EQ(e.explicit_code(), 0xAB);
}

TEST(AbortStatus, CausePrecedence) {
  EXPECT_EQ(AbortStatus::conflict().cause(), AbortCause::kConflict);
  EXPECT_EQ(AbortStatus::capacity().cause(), AbortCause::kCapacity);
  EXPECT_EQ(AbortStatus::explicit_abort(1).cause(), AbortCause::kExplicit);
  EXPECT_EQ(AbortStatus::other().cause(), AbortCause::kOther);
  // Capacity wins over conflict when both bits are set (deterministic cause).
  const AbortStatus both(kAbortCapacityBit | kAbortConflictBit);
  EXPECT_EQ(both.cause(), AbortCause::kCapacity);
}

TEST(AbortStatus, ToStringCoversAllCauses) {
  EXPECT_EQ(to_string(AbortCause::kConflict), "conflict");
  EXPECT_EQ(to_string(AbortCause::kCapacity), "capacity");
  EXPECT_EQ(to_string(AbortCause::kExplicit), "explicit");
  EXPECT_EQ(to_string(AbortCause::kOther), "other");
}

// ------------------------------------------------------ single threaded ----

TEST(SoftHtm, CommitPublishesWrites) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  TmWord w{0};
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) { tx.write(w, 42); });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(w.load(), 42u);
}

TEST(SoftHtm, ReadYourOwnWrites) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  TmWord w{7};
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    tx.write(w, 100);
    EXPECT_EQ(tx.read(w), 100u);
    tx.write(w, 200);
    EXPECT_EQ(tx.read(w), 200u);
  });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(w.load(), 200u);
}

TEST(SoftHtm, ReadOnlyTransactionCommits) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  TmWord w{9};
  std::uint64_t seen = 0;
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) { seen = tx.read(w); });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(seen, 9u);
  EXPECT_FALSE(ctx.in_tx());
}

TEST(SoftHtm, ExplicitAbortRollsBack) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  TmWord w{1};
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    tx.write(w, 99);
    tx.abort(0x5A);
  });
  EXPECT_FALSE(committed(s));
  EXPECT_TRUE(s.is_explicit());
  EXPECT_EQ(s.explicit_code(), 0x5A);
  EXPECT_EQ(w.load(), 1u) << "aborted writes must not be visible";
}

TEST(SoftHtm, WriteCapacityAborts) {
  SoftHtm tm(SoftHtm::Config{.max_read_set = 1024, .max_write_set = 8});
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(16);
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) tx.write(w, 1);
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), AbortCause::kCapacity);
  for (auto& w : words) EXPECT_EQ(w.load(), 0u);
}

TEST(SoftHtm, ReadCapacityAborts) {
  SoftHtm tm(SoftHtm::Config{.max_read_set = 8, .max_write_set = 8});
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(16);
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    std::uint64_t acc = 0;
    for (auto& w : words) acc += tx.read(w);
    (void)acc;
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), AbortCause::kCapacity);
}

TEST(SoftHtm, RewritingSameWordUsesOneWriteSlot) {
  SoftHtm tm(SoftHtm::Config{.max_read_set = 1024, .max_write_set = 4});
  SoftHtm::ThreadContext ctx(tm);
  TmWord w{0};
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (int i = 0; i < 100; ++i) tx.write(w, static_cast<std::uint64_t>(i));
  });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(w.load(), 99u);
}

TEST(SoftHtm, SubscriptionFailsAtRegistrationIfWordChanged) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  std::atomic<std::uint64_t> lock_word{1};  // already "locked"
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    tx.subscribe(lock_word, 0);
    FAIL() << "subscribe must abort when the word differs";
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), AbortCause::kConflict);
}

TEST(SoftHtm, SubscriptionFailsIfWordChangesMidTransaction) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  std::atomic<std::uint64_t> lock_word{0};
  TmWord data{0};
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    tx.subscribe(lock_word, 0);
    lock_word.store(1);  // a fallback path acquires the lock
    tx.write(data, 5);   // next access revalidates subscriptions
    (void)tx.read(data);
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(data.load(), 0u);
}

// Conflict between two contexts, driven deterministically from one thread by
// nesting a committing transaction inside another's body.
TEST(SoftHtm, WriteWriteConflictDetected) {
  SoftHtm tm;
  SoftHtm::ThreadContext a(tm);
  SoftHtm::ThreadContext b(tm);
  TmWord w{0};
  const AbortStatus s = a.attempt([&](SoftHtm::Tx& tx) {
    (void)tx.read(w);
    // B commits a write to the same word while A is speculating.
    const AbortStatus sb = b.attempt([&](SoftHtm::Tx& txb) { txb.write(w, 7); });
    ASSERT_TRUE(committed(sb));
    tx.write(w, 9);  // A's commit must now fail validation
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), AbortCause::kConflict);
  EXPECT_EQ(w.load(), 7u) << "only B's value survives";
}

TEST(SoftHtm, OpacityReadsConsistentSnapshot) {
  SoftHtm tm;
  SoftHtm::ThreadContext a(tm);
  SoftHtm::ThreadContext b(tm);
  TmWord x{1};
  TmWord y{1};  // invariant: x == y
  const AbortStatus s = a.attempt([&](SoftHtm::Tx& tx) {
    const std::uint64_t vx = tx.read(x);
    const AbortStatus sb = b.attempt([&](SoftHtm::Tx& txb) {
      txb.write(x, 2);
      txb.write(y, 2);
    });
    ASSERT_TRUE(committed(sb));
    // A must NOT observe the new y next to the old x: the read aborts.
    const std::uint64_t vy = tx.read(y);
    EXPECT_EQ(vx, vy) << "opacity violated: mixed snapshot observed";
  });
  EXPECT_FALSE(committed(s)) << "A read stale data and must abort";
}

TEST(SoftHtm, ReadOnlyVsWriterStillSerializable) {
  SoftHtm tm;
  SoftHtm::ThreadContext a(tm);
  SoftHtm::ThreadContext b(tm);
  TmWord x{10};
  // A reads x, then B writes x and commits, then A commits read-only. A
  // observed a consistent pre-B snapshot on every read, so it serializes
  // BEFORE B and commits — no write-back, no validation needed.
  const AbortStatus s = a.attempt([&](SoftHtm::Tx& tx) {
    EXPECT_EQ(tx.read(x), 10u);
    const AbortStatus sb = b.attempt([&](SoftHtm::Tx& txb) { txb.write(x, 11); });
    ASSERT_TRUE(committed(sb));
  });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(x.load(), 11u);
}

TEST(SoftHtm, AbortClearsContextState) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  TmWord w{0};
  (void)ctx.attempt([&](SoftHtm::Tx& tx) {
    tx.write(w, 1);
    tx.abort(1);
  });
  EXPECT_EQ(ctx.read_set_size(), 0u);
  EXPECT_EQ(ctx.write_set_size(), 0u);
  EXPECT_FALSE(ctx.in_tx());
  // The context is immediately reusable.
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) { tx.write(w, 2); });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(w.load(), 2u);
}

TEST(SoftHtm, ForeignExceptionRollsBackTheAttempt) {
  // A body may throw something other than an abort. The exception reaches
  // the caller, and the context leaves the transaction as it does after an
  // abort: nothing publishes, and the capacity-exempt fallback path turns
  // capacity enforcement back on.
  SoftHtm tm(SoftHtm::Config{.max_read_set = 4});
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(32);
  auto write_then_throw = [&](SoftHtm::Tx& tx) {
    tx.write(words[0], 1);
    throw std::runtime_error("body failed");
  };
  EXPECT_THROW((void)ctx.attempt(write_then_throw), std::runtime_error);
  EXPECT_FALSE(ctx.in_tx());
  EXPECT_EQ(words[0].load(), 0u);

  auto read_then_throw = [&](SoftHtm::Tx& tx) {
    (void)tx.read(words[0]);
    throw std::runtime_error("fallback body failed");
  };
  EXPECT_THROW((void)ctx.attempt_unbounded(read_then_throw), std::runtime_error);
  EXPECT_FALSE(ctx.in_tx());
  // 32 distinct reads against a budget of 4 must still capacity-abort.
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) (void)tx.read(w);
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), AbortCause::kCapacity);
}

TEST(SoftHtm, SequentialTransactionsSeeEachOther) {
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  TmWord w{0};
  for (std::uint64_t i = 1; i <= 50; ++i) {
    const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
      EXPECT_EQ(tx.read(w), i - 1);
      tx.write(w, i);
    });
    ASSERT_TRUE(committed(s));
  }
  EXPECT_EQ(w.load(), 50u);
}

// ------------------------------------------------------- multi threaded ----

TEST(SoftHtm, ConcurrentCounterIsExact) {
  SoftHtm tm;
  TmWord counter{0};
  constexpr int kThreads = 4;
  constexpr int kIncrements = 4000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      SoftHtm::ThreadContext ctx(tm);
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
            tx.write(counter, tx.read(counter) + 1);
          });
          if (committed(s)) break;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter.load(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(SoftHtm, BankTransferInvariantHolds) {
  SoftHtm tm;
  constexpr int kAccounts = 32;
  constexpr std::uint64_t kInitial = 1000;
  std::vector<TmWord> accounts(kAccounts);
  for (auto& a : accounts) a.store(kInitial);

  constexpr int kThreads = 4;
  constexpr int kTransfers = 3000;
  std::atomic<bool> violation{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      SoftHtm::ThreadContext ctx(tm);
      util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kTransfers; ++i) {
        const auto from = rng.below(kAccounts);
        const auto to = rng.below(kAccounts);
        if (from == to) continue;
        while (true) {
          const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
            const std::uint64_t f = tx.read(accounts[from]);
            if (f == 0) return;
            tx.write(accounts[from], f - 1);
            tx.write(accounts[to], tx.read(accounts[to]) + 1);
          });
          if (committed(s)) break;
        }
        // Occasionally audit the total transactionally.
        if (i % 256 == 0) {
          while (true) {
            std::uint64_t total = 0;
            const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
              total = 0;
              for (auto& a : accounts) total += tx.read(a);
            });
            if (committed(s)) {
              if (total != kAccounts * kInitial) violation.store(true);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load()) << "transactional audit saw a torn total";
  std::uint64_t total = 0;
  for (auto& a : accounts) total += a.load();
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(SoftHtm, SubscribedTransactionsYieldToNonTransactionalWriter) {
  SoftHtm tm;
  TmWord data{0};
  std::atomic<std::uint64_t> lock_word{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> aborted_by_lock{0};

  std::thread worker([&] {
    SoftHtm::ThreadContext ctx(tm);
    while (!stop.load()) {
      const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
        tx.subscribe(lock_word, 0);
        tx.write(data, tx.read(data) + 1);
      });
      if (!committed(s)) aborted_by_lock.fetch_add(1);
    }
  });

  for (int i = 0; i < 200; ++i) {
    lock_word.store(1);
    std::this_thread::yield();
    lock_word.store(0);
  }
  stop.store(true);
  worker.join();
  // The exact count is timing-dependent; the property under test is that the
  // run terminates without torn state and the counter only grew.
  EXPECT_GE(data.load(), 0u);
}

// ------------------------------------- O(1) access-path structures ----
// The constant-time write-set index, signature filter, stripe stamps and
// distinct-word read accounting behind do_read/do_write (access_set.hpp,
// DESIGN.md §10).

TEST(SoftHtm, WriteSetIndexSurvivesGrowthAndCollisions) {
  // 300 distinct words force the 64-slot AddrIndex through two growth
  // rounds mid-transaction; read-own-writes and overwrite dedup must hold
  // across every rehash.
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  constexpr std::size_t kWords = 300;
  std::vector<TmWord> words(kWords);
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (std::size_t i = 0; i < kWords; ++i) tx.write(words[i], i + 1000);
    for (std::size_t i = 0; i < kWords; ++i) {
      if (tx.read(words[i]) != i + 1000) tx.abort(0x01);
    }
    // Second pass overwrites in place: the index must dedup, not append.
    for (std::size_t i = 0; i < kWords; ++i) tx.write(words[i], i);
    if (ctx.write_set_size() != kWords) tx.abort(0x02);
    // Buffered reads never touch shared memory, so the read set stays empty.
    if (ctx.read_set_size() != 0) tx.abort(0x03);
  });
  ASSERT_TRUE(committed(s));
  for (std::size_t i = 0; i < kWords; ++i) EXPECT_EQ(words[i].load(), i);
}

TEST(SoftHtm, SignatureFalsePositiveFallsBackToExactProbe) {
  // Two words sharing a filter bit: writing one makes the filter claim the
  // other "may be mine"; the exact index probe must answer no and the read
  // must come from memory.
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> pool(65);  // 65 words, 64 filter bits: collision certain
  std::size_t ci = 0;
  std::size_t cj = 0;
  bool found = false;
  for (std::size_t i = 0; i < pool.size() && !found; ++i) {
    for (std::size_t j = i + 1; j < pool.size() && !found; ++j) {
      if (AddrSignature::bit_of(&pool[i]) == AddrSignature::bit_of(&pool[j])) {
        ci = i;
        cj = j;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "pigeonhole failed?";
  TmWord& written = pool[ci];
  TmWord& aliased = pool[cj];
  aliased.store(77);
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    tx.write(written, 11);
    if (tx.read(aliased) != 77) tx.abort(0x01);  // filter hit, index miss
    if (tx.read(written) != 11) tx.abort(0x02);  // genuine buffered read
  });
  ASSERT_TRUE(committed(s));
  EXPECT_EQ(written.load(), 11u);
  EXPECT_EQ(aliased.load(), 77u);
}

TEST(SoftHtm, EpochWraparoundDoesNotResurrectState) {
  // The context's first attempt runs under epoch 1. Jumping the counter to
  // its maximum makes the next begin() wrap to 0, which must hard-reset
  // every epoch-tagged structure before recycling epoch 1 — otherwise the
  // first attempt's index entries come back from the dead.
  // A one-word read budget: reading r twice fills the Tier-0 log and
  // promotes, so r lands in the epoch-stamped read index this test exists
  // to exercise.
  SoftHtm tm(SoftHtm::Config{.max_read_set = 1});
  SoftHtm::ThreadContext ctx(tm);
  TmWord w{0};
  TmWord r{0};
  TmWord other{0};
  const AbortStatus first = ctx.attempt([&](SoftHtm::Tx& tx) {
    tx.write(w, 42);
    (void)tx.read(r);
    (void)tx.read(r);  // the boundary read: promotes
    if (!ctx.read_tier_is_exact()) tx.abort(0x04);
    tx.abort(0x01);  // populate the indices under epoch 1, publish nothing
  });
  ASSERT_FALSE(committed(first));
  EXPECT_EQ(first.explicit_code(), 0x01);
  EXPECT_EQ(ctx.epoch_for_testing(), 1u);

  ctx.set_epoch_for_testing(0xFFFFFFFFu);
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    // A resurrected read_words_ entry would swallow this read's accounting.
    (void)tx.read(r);
    (void)tx.read(r);
    if (!ctx.read_tier_is_exact()) tx.abort(0x05);
    if (ctx.read_set_size() != 1) tx.abort(0x02);
    // A resurrected write_index_ entry for w (slot 0 under the stale epoch
    // 1) would redirect this write into `other`'s buffer slot.
    tx.write(other, 5);
    tx.write(w, 7);
    if (ctx.write_set_size() != 2) tx.abort(0x03);
  });
  ASSERT_TRUE(committed(s));
  EXPECT_EQ(ctx.epoch_for_testing(), 1u) << "wrap lands on epoch 1 again";
  EXPECT_EQ(w.load(), 7u);
  EXPECT_EQ(other.load(), 5u);
  EXPECT_EQ(r.load(), 0u);
}

TEST(SoftHtm, ReReadsConsumeNoReadCapacity) {
  // The capacity model is distinct L1d words: re-reading a resident word
  // must be free, no matter how often (re-reads were what the seed's
  // per-access accounting overcounted).
  SoftHtm tm(SoftHtm::Config{.max_read_set = 4, .max_write_set = 8});
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(4);
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (int round = 0; round < 100; ++round) {
      for (auto& w : words) (void)tx.read(w);
    }
    if (ctx.read_set_size() != words.size()) tx.abort(0x01);
  });
  EXPECT_TRUE(committed(s));

  // One more distinct word crosses the cap.
  TmWord extra{0};
  const AbortStatus over = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) (void)tx.read(w);
    (void)tx.read(extra);
  });
  EXPECT_FALSE(committed(over));
  EXPECT_EQ(over.cause(), AbortCause::kCapacity);
}

// ------------------------------------- adaptive read-tracking tiers ----
// DESIGN.md §10.1: reads start log-only (Tier 0, a fixed replay log) and
// promote to the exact per-word index only when the log reaches the
// capacity budget.

TEST(SoftHtm, AdaptiveReadTrackingPromotesAtTheBudgetBoundary) {
  SoftHtm tm(SoftHtm::Config{.max_read_set = 8});
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(8);

  // 8 distinct reads fit the Tier-0 log exactly: no promotion.
  AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) (void)tx.read(w);
    if (ctx.read_tier_is_exact()) tx.abort(0x01);
    if (ctx.read_set_size() != words.size()) tx.abort(0x02);
  });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(ctx.read_promotions_capacity(), 0u);

  // A 9th LOGGED read — a duplicate — fills the log: the boundary read
  // promotes, the replay dedups back to 8 distinct, and the transaction
  // commits instead of capacity-aborting.
  s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) (void)tx.read(w);
    (void)tx.read(words[0]);
    if (!ctx.read_tier_is_exact()) tx.abort(0x03);
    if (ctx.read_set_size() != words.size()) tx.abort(0x04);
  });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(ctx.read_promotions_capacity(), 1u);

  // Every attempt starts over in Tier 0 — the promotion does not stick.
  s = ctx.attempt([&](SoftHtm::Tx& tx) {
    (void)tx.read(words[0]);
    if (ctx.read_tier_is_exact()) tx.abort(0x05);
  });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(ctx.read_promotions_capacity(), 1u);

  // A 9th DISTINCT word is the boundary read: it promotes, and the exact
  // tier raises the capacity abort on that very read.
  TmWord extra{0};
  bool past_extra = false;
  s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) (void)tx.read(w);
    (void)tx.read(extra);
    past_extra = true;
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), AbortCause::kCapacity);
  EXPECT_FALSE(past_extra);
  EXPECT_TRUE(ctx.read_tier_is_exact()) << "only the exact tier raises it";
  EXPECT_EQ(ctx.read_promotions_capacity(), 2u);
}

TEST(SoftHtm, ExactReadTrackingModeNeverEntersTier0) {
  // Once the budget promotes an attempt to exact read tracking it stays
  // exact for the rest of that attempt: re-reads are absorbed by the index
  // instead of refilling the Tier-0 log, so they neither promote again nor
  // grow read_set_size().
  SoftHtm tm(SoftHtm::Config{.max_read_set = 8});
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(8);
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) (void)tx.read(w);
    (void)tx.read(words[0]);  // the boundary read: promotes
    if (!ctx.read_tier_is_exact()) tx.abort(0x01);
    for (int round = 0; round < 100; ++round) {
      for (auto& w : words) (void)tx.read(w);  // free re-reads
    }
    if (!ctx.read_tier_is_exact()) tx.abort(0x02);
    if (ctx.read_set_size() != words.size()) tx.abort(0x03);
  });
  EXPECT_TRUE(committed(s));
  EXPECT_EQ(ctx.read_promotions_capacity(), 1u)
      << "800 re-reads after the promotion must not refill a log";

  // Exact capacity semantics hold after the promotion: one extra distinct
  // word, read well past the boundary, aborts on that very read.
  TmWord extra{0};
  bool past_extra = false;
  const AbortStatus over = ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) (void)tx.read(w);
    for (int i = 0; i < 100; ++i) (void)tx.read(words[0]);
    (void)tx.read(extra);
    past_extra = true;
  });
  EXPECT_FALSE(committed(over));
  EXPECT_EQ(over.cause(), AbortCause::kCapacity);
  EXPECT_FALSE(past_extra);
  EXPECT_TRUE(ctx.read_tier_is_exact());
  EXPECT_EQ(ctx.read_promotions_capacity(), 2u);
}

TEST(SoftHtm, WideReadOnlyTransactionsStayInTheLog) {
  // 2048 distinct reads fit the default 4096-word log: the scan commits
  // without entering the exact tier, and nothing promotes — neither the
  // context's count nor the exported htm.read_promote.capacity counter.
  obs::MetricsRegistry reg(1);
  HtmMetrics metrics;
  metrics.registry = &reg;
  metrics.promote_capacity = reg.counter("htm.read_promote.capacity");
  reg.freeze();
  SoftHtm tm;
  SoftHtm::ThreadContext ctx(tm);
  ctx.set_metrics(metrics);
  std::vector<TmWord> words(2048);
  std::size_t read_set = 0;
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    std::uint64_t acc = 0;
    for (auto& w : words) acc += tx.read(w);
    (void)acc;
    read_set = ctx.read_set_size();
  });
  EXPECT_TRUE(committed(s));
  EXPECT_FALSE(ctx.read_tier_is_exact());
  EXPECT_EQ(read_set, words.size());
  EXPECT_EQ(ctx.read_promotions_capacity(), 0u);
  for (const auto& c : reg.snapshot().counters) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
}

// --------------------------------- duplicate-stripe commit accounting ----

// Two words hashing to the same stripe must acquire that stripe's lock
// exactly once, and an abort part-way through acquisition must release
// exactly the acquired prefix — a leaked lock poisons the stripe forever,
// a double-release corrupts a later owner's lock bit.
TEST(SoftHtm, SameStripeWritesCommitThroughOneLock) {
  SoftHtm tm(SoftHtm::Config{.stripes = 2});
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> pool(32);
  TmWord* s0_a = nullptr;
  TmWord* s0_b = nullptr;
  for (auto& w : pool) {
    if (tm.stripe_index_of(&w) != 0) continue;
    if (s0_a == nullptr) {
      s0_a = &w;
    } else if (s0_b == nullptr) {
      s0_b = &w;
    }
  }
  ASSERT_NE(s0_a, nullptr);
  ASSERT_NE(s0_b, nullptr);
  const AbortStatus s = ctx.attempt([&](SoftHtm::Tx& tx) {
    tx.write(*s0_a, 1);
    tx.write(*s0_b, 2);
  });
  ASSERT_TRUE(committed(s));
  EXPECT_EQ(s0_a->load(), 1u);
  EXPECT_EQ(s0_b->load(), 2u);
  // The stripe lock was fully released: an immediate retouch commits.
  EXPECT_TRUE(committed(ctx.attempt([&](SoftHtm::Tx& tx) { tx.write(*s0_a, 3); })));
}

TEST(SoftHtm, MidAcquisitionAbortReleasesExactlyTheAcquiredStripes) {
  SoftHtm tm(SoftHtm::Config{.stripes = 2});
  SoftHtm::ThreadContext a(tm);
  SoftHtm::ThreadContext b(tm);
  std::vector<TmWord> pool(32);
  TmWord* s0_a = nullptr;
  TmWord* s0_b = nullptr;
  TmWord* s1_w = nullptr;
  for (auto& w : pool) {
    if (tm.stripe_index_of(&w) == 0) {
      if (s0_a == nullptr) {
        s0_a = &w;
      } else if (s0_b == nullptr) {
        s0_b = &w;
      }
    } else if (s1_w == nullptr) {
      s1_w = &w;
    }
  }
  ASSERT_NE(s0_a, nullptr);
  ASSERT_NE(s0_b, nullptr);
  ASSERT_NE(s1_w, nullptr);

  // A writes both stripes (stripe 0 twice — deduplicated to one lock).
  // Mid-body, B commits to stripe 1, bumping its version past A's read
  // version: A's canonical-order acquisition takes stripe 0, then fails on
  // stripe 1 and must release exactly stripe 0, exactly once.
  const AbortStatus s = a.attempt([&](SoftHtm::Tx& tx) {
    tx.write(*s0_a, 10);
    tx.write(*s0_b, 11);
    tx.write(*s1_w, 12);
    const AbortStatus sb =
        b.attempt([&](SoftHtm::Tx& txb) { txb.write(*s1_w, 99); });
    ASSERT_TRUE(committed(sb));
  });
  EXPECT_FALSE(committed(s));
  EXPECT_EQ(s.cause(), AbortCause::kConflict);
  EXPECT_EQ(s0_a->load(), 0u) << "aborted writes must not publish";
  EXPECT_EQ(s1_w->load(), 99u);

  // Neither stripe leaked a lock: transactions touching both commit freely
  // from either context.
  EXPECT_TRUE(committed(a.attempt([&](SoftHtm::Tx& tx) {
    tx.write(*s0_a, 1);
    tx.write(*s1_w, 2);
  })));
  EXPECT_TRUE(committed(b.attempt([&](SoftHtm::Tx& tx) {
    tx.write(*s0_b, 3);
    tx.write(*s1_w, 4);
  })));
  EXPECT_EQ(s0_a->load(), 1u);
  EXPECT_EQ(s0_b->load(), 3u);
  EXPECT_EQ(s1_w->load(), 4u);
}

// ------------------------------------------------- commit-time aborts ----
// DESIGN.md §10: an abort decided in commit() is returned, not thrown. Each
// kind must report its cause and release every stripe it locked — checked
// by committing the same words from a second context afterwards. The
// aborts are driven on one thread: context B commits inside context A's
// body.

// Two contexts over one SoftHtm: A runs the attempt under test, B interferes.
struct Pair {
  explicit Pair(SoftHtm::Config cfg = {}) : tm(cfg), a(tm), b(tm) {}
  static void expect_abort(AbortStatus s, AbortCause cause) {
    EXPECT_FALSE(committed(s));
    EXPECT_EQ(s.cause(), cause);
  }
  SoftHtm tm;
  SoftHtm::ThreadContext a;
  SoftHtm::ThreadContext b;
};

// Writes `words` from context `ctx` and reports whether that committed:
// fails if any of their stripes was left locked.
bool commit_all(SoftHtm::ThreadContext& ctx, std::vector<TmWord>& words,
                std::uint64_t value) {
  return committed(ctx.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) tx.write(w, value);
  }));
}

// Index of the word whose stripe A locks last (the highest stripe index),
// so a conflict there aborts with every other stripe already acquired.
std::size_t last_locked(const SoftHtm& tm, const std::vector<TmWord>& words) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < words.size(); ++i) {
    if (tm.stripe_index_of(&words[i]) > tm.stripe_index_of(&words[best])) best = i;
  }
  return best;
}

TEST(SoftHtmCommitAbort, NewerStripeAtLockTimeReleasesTheAcquiredPrefix) {
  Pair p;
  std::vector<TmWord> words(16);
  const std::size_t victim = last_locked(p.tm, words);
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) tx.write(w, 1);
    // B publishes the last stripe A will lock at a version above A's
    // snapshot; A never read it, so only the lock-time check sees it.
    ASSERT_TRUE(committed(p.b.attempt([&](SoftHtm::Tx& txb) {
      txb.write(words[victim], 99);
    })));
  });
  p.expect_abort(s, AbortCause::kConflict);
  EXPECT_EQ(words[victim].load(), 99u);
  EXPECT_TRUE(commit_all(p.b, words, 5)) << "a stripe lock leaked";
  EXPECT_TRUE(commit_all(p.a, words, 6));
}

TEST(SoftHtmCommitAbort, FailedReadValidationReleasesEveryStripe) {
  // Both read tiers: with a one-word budget, a re-read is the boundary
  // read that promotes the read set to the exact tier.
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact" : "tier 0");
    Pair p(SoftHtm::Config{.max_read_set = 1});
    std::vector<TmWord> words(16);
    TmWord read{0};
    const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
      (void)tx.read(read);
      if (exact) (void)tx.read(read);
      EXPECT_EQ(p.a.read_tier_is_exact(), exact);
      // B overwrites A's read after A read it: every lock A takes is
      // free, and validation fails with all of them held.
      ASSERT_TRUE(committed(p.b.attempt([&](SoftHtm::Tx& txb) { txb.write(read, 7); })));
      for (auto& w : words) tx.write(w, 1);
    });
    p.expect_abort(s, AbortCause::kConflict);
    EXPECT_EQ(words[0].load(), 0u) << "aborted writes must not publish";
    EXPECT_TRUE(commit_all(p.b, words, 5)) << "a stripe lock leaked";
  }
}

TEST(SoftHtmCommitAbort, SglChangeBeforeWriterCommitReleasesEveryStripe) {
  Pair p;
  std::vector<TmWord> words(16);
  std::atomic<std::uint64_t> sgl{0};
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    tx.subscribe(sgl, 0);
    for (auto& w : words) tx.write(w, 1);
    sgl.store(1);  // a fallback thread takes the lock after the last access
  });
  p.expect_abort(s, AbortCause::kConflict);
  EXPECT_EQ(words[0].load(), 0u);
  EXPECT_TRUE(commit_all(p.b, words, 5)) << "a stripe lock leaked";
}

TEST(SoftHtmCommitAbort, SglChangeBeforeReadOnlyCommitAborts) {
  Pair p;
  TmWord read{3};
  std::atomic<std::uint64_t> sgl{0};
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    tx.subscribe(sgl, 0);
    (void)tx.read(read);
    sgl.store(1);
  });
  p.expect_abort(s, AbortCause::kConflict);
  EXPECT_TRUE(committed(p.b.attempt([&](SoftHtm::Tx& tx) { tx.write(read, 4); })));
}

TEST(SoftHtmCommitAbort, InjectedCommitFaultIsReturnedOnce) {
  Pair p;
  check::FaultPlan fault;
  fault.force(/*attempt=*/0, TxOp::kCommit, /*occurrence=*/0,
              AbortStatus::explicit_abort(0x5A));
  p.a.set_fault_injector(&fault);
  std::vector<TmWord> words(16);
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) tx.write(w, 1);
  });
  p.expect_abort(s, AbortCause::kExplicit);
  EXPECT_EQ(s.explicit_code(), 0x5A);
  EXPECT_EQ(words[0].load(), 0u);
  EXPECT_TRUE(commit_all(p.b, words, 5));
  // The capacity-exempt fallback path is never injected.
  EXPECT_TRUE(committed(p.a.attempt_unbounded([&](SoftHtm::Tx& tx) {
    tx.write(words[0], 6);
  })));
}

TEST(SoftHtmCommitAbort, SelfLockedReadStripesValidateThroughTheSortedLockList) {
  // Two stripes for 64 words: every word read is in a stripe this commit
  // locked itself, and the write set maps to each stripe many times — the
  // lock list must be deduplicated, and validation must recognise each
  // locked read stripe as its own.
  SoftHtm tm(SoftHtm::Config{.stripes = 2});
  SoftHtm::ThreadContext ctx(tm);
  std::vector<TmWord> words(64);
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(committed(ctx.attempt([&](SoftHtm::Tx& tx) {
      for (auto& w : words) tx.write(w, tx.read(w) + 1);
    })));
  }
  for (const auto& w : words) EXPECT_EQ(w.load(), 3u);
}

// ---------------------------------------------------- in-body aborts ----
// DESIGN.md §10: an abort decided while the body runs throws from the
// body's own frame. Each kind must report its status, count a capacity
// abort in its read-tier bucket (§10.1) and nothing else, and leave the
// context able to commit its next attempt. As above, context B commits
// inside context A's body.

// Pair with the htm.* counters installed on context A.
struct MeteredPair : Pair {
  explicit MeteredPair(SoftHtm::Config cfg = {}) : Pair(cfg) {
    HtmMetrics m;
    m.registry = &reg;
    m.promote_capacity = reg.counter("htm.read_promote.capacity");
    m.capacity_abort_sig = reg.counter("htm.aborts.capacity.sig_only");
    m.capacity_abort_exact = reg.counter("htm.aborts.capacity.exact");
    m.extensions = reg.counter("htm.extensions");
    m.extension_reads = reg.counter("htm.extension_reads");
    m.lock_wait_timeouts = reg.counter("htm.lock_wait_timeouts");
    reg.freeze();
    a.set_metrics(m);
  }
  // A counter's value; 0 when absent, as every counter is under OBS=OFF.
  [[nodiscard]] std::uint64_t count(std::string_view name) const {
    for (const auto& c : reg.snapshot().counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }
  // `s` is `want`, raised in the body, and the capacity buckets hold
  // `sig_only` and `exact` aborts (OBS=ON counts).
  void expect_body_abort(AbortStatus s, AbortStatus want, std::uint64_t sig_only = 0,
                         std::uint64_t exact = 0) const {
    expect_abort(s, want.cause());
    EXPECT_EQ(s.raw(), want.raw());
    EXPECT_EQ(count("htm.aborts.capacity.sig_only"), SEER_OBS_ENABLED ? sig_only : 0);
    EXPECT_EQ(count("htm.aborts.capacity.exact"), SEER_OBS_ENABLED ? exact : 0);
  }
  // The context's next attempt, over `w`, commits.
  void expect_next_attempt_commits(TmWord& w) {
    EXPECT_TRUE(
        committed(a.attempt([&](SoftHtm::Tx& tx) { tx.write(w, tx.read(w) + 1); })));
  }
  obs::MetricsRegistry reg{1};
};

TEST(SoftHtmBodyAbort, NewerStripeAtReadConflicts) {
  MeteredPair p;
  TmWord w{0};
  bool past_read = false;
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    // A reads w, then B commits w: A's next read of it sees a newer
    // stripe, the snapshot extension finds the word A already read
    // changed, and the read aborts in the body.
    (void)tx.read(w);
    ASSERT_TRUE(committed(p.b.attempt([&](SoftHtm::Tx& txb) { txb.write(w, 7); })));
    (void)tx.read(w);
    past_read = true;
  });
  p.expect_body_abort(s, AbortStatus::conflict());
  EXPECT_FALSE(past_read);
  p.expect_next_attempt_commits(w);
  EXPECT_EQ(w.load(), 8u);
}

TEST(SoftHtmBodyAbort, NewerUnreadStripeExtendsAndCommits) {
  // TSX reads a line committed after the transaction began. B commits w,
  // which A has not read; A's read of it extends A's snapshot past B's
  // commit, because the one word A read before (u) is unchanged. A reads
  // B's value and commits on it, after one extension that
  // revalidated one read. Both read tiers: with a two-word budget, the
  // third read of u promotes the read set to the exact tier.
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact" : "tier 0");
    MeteredPair p(SoftHtm::Config{.max_read_set = 2});
    TmWord u{1};
    TmWord w{0};
    const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
      const std::uint64_t vu = tx.read(u);
      if (exact) (void)(tx.read(u) + tx.read(u));
      EXPECT_EQ(p.a.read_tier_is_exact(), exact);
      ASSERT_TRUE(committed(p.b.attempt([&](SoftHtm::Tx& txb) { txb.write(w, 7); })));
      tx.write(w, tx.read(w) + vu);
    });
    EXPECT_TRUE(committed(s));
    EXPECT_EQ(w.load(), 8u);
    EXPECT_EQ(p.count("htm.extensions"), SEER_OBS_ENABLED ? 1u : 0u);
    EXPECT_EQ(p.count("htm.extension_reads"), SEER_OBS_ENABLED ? 1u : 0u);
    EXPECT_EQ(p.count("htm.lock_wait_timeouts"), 0u);
  }
}

TEST(SoftHtmBodyAbort, ExtensionRevalidatesBothReadTiers) {
  // B overwrites x, which A read, and commits y, which A has not read. A's
  // read of y extends, and the extension must find x changed in either
  // read tier: the Tier-0 log, or the exact tier's stripes after a
  // promotion (with a two-word budget, the third read of x promotes).
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact" : "tier 0");
    MeteredPair p(SoftHtm::Config{.max_read_set = 2});
    TmWord x{1};
    TmWord y{1};
    bool past_read = false;
    const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
      (void)tx.read(x);
      if (exact) (void)(tx.read(x) + tx.read(x));
      EXPECT_EQ(p.a.read_tier_is_exact(), exact);
      ASSERT_TRUE(committed(p.b.attempt([&](SoftHtm::Tx& txb) {
        txb.write(x, 2);
        txb.write(y, 2);
      })));
      (void)tx.read(y);
      past_read = true;
    });
    p.expect_body_abort(s, AbortStatus::conflict());
    EXPECT_FALSE(past_read);
    EXPECT_EQ(p.count("htm.extensions"), SEER_OBS_ENABLED ? 1u : 0u);
    p.expect_next_attempt_commits(x);
  }
}

TEST(SoftHtmBodyAbort, SubscriptionMismatchAtSubscribeConflicts) {
  MeteredPair p;
  TmWord w{0};
  std::atomic<std::uint64_t> sgl{1};
  bool past_subscribe = false;
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    tx.subscribe(sgl, 0);
    past_subscribe = true;
  });
  p.expect_body_abort(s, AbortStatus::conflict());
  EXPECT_FALSE(past_subscribe);
  p.expect_next_attempt_commits(w);
}

TEST(SoftHtmBodyAbort, SubscriptionLostBeforeALaterReadConflicts) {
  MeteredPair p;
  TmWord first{1};
  TmWord second{2};
  std::atomic<std::uint64_t> sgl{0};
  bool past_second = false;
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    tx.subscribe(sgl, 0);
    (void)tx.read(first);
    sgl.store(1);  // a fallback thread takes the lock mid-body
    (void)tx.read(second);
    past_second = true;
  });
  p.expect_body_abort(s, AbortStatus::conflict());
  EXPECT_FALSE(past_second);
  p.expect_next_attempt_commits(first);
}

TEST(SoftHtmBodyAbort, ExplicitAbortCarriesItsCode) {
  MeteredPair p;
  TmWord w{0};
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    tx.write(w, 5);
    tx.abort(0x42);
  });
  p.expect_body_abort(s, AbortStatus::explicit_abort(0x42));
  EXPECT_EQ(s.explicit_code(), 0x42);
  EXPECT_EQ(w.load(), 0u);
  p.expect_next_attempt_commits(w);
  EXPECT_EQ(w.load(), 1u);
}

TEST(SoftHtmBodyAbort, InjectedReadFaultIsRaisedInTheBody) {
  MeteredPair p;
  check::FaultPlan fault;
  fault.force(/*attempt=*/0, TxOp::kRead, /*occurrence=*/1,
              AbortStatus::explicit_abort(0x5A));
  p.a.set_fault_injector(&fault);
  std::vector<TmWord> words(4);
  std::size_t reads = 0;
  const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
    for (auto& w : words) {
      (void)tx.read(w);
      ++reads;
    }
  });
  p.expect_body_abort(s, AbortStatus::explicit_abort(0x5A));
  EXPECT_EQ(s.explicit_code(), 0x5A);
  EXPECT_EQ(reads, 1u) << "the second read raised the fault";
  p.expect_next_attempt_commits(words[0]);
}

TEST(SoftHtmBodyAbort, ReadCapacityAfterPromotionCountsAsExact) {
  // Either the boundary read itself overflows (raised from the promotion),
  // or a re-read promotes and a later distinct read overflows in the exact
  // tier's inline path. Both are exact-tier aborts.
  for (const bool overflow_at_boundary : {true, false}) {
    SCOPED_TRACE(overflow_at_boundary ? "at the boundary" : "after a re-read");
    MeteredPair p(SoftHtm::Config{.max_read_set = 4});
    std::vector<TmWord> words(4);
    TmWord extra{0};
    bool past_extra = false;
    const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
      for (auto& w : words) (void)tx.read(w);
      if (!overflow_at_boundary) {
        (void)tx.read(words[0]);
        EXPECT_TRUE(p.a.read_tier_is_exact());
      }
      (void)tx.read(extra);
      past_extra = true;
    });
    p.expect_body_abort(s, AbortStatus::capacity(), /*sig_only=*/0, /*exact=*/1);
    EXPECT_FALSE(past_extra);
    EXPECT_EQ(p.count("htm.read_promote.capacity"), SEER_OBS_ENABLED ? 1u : 0u);
    p.expect_next_attempt_commits(extra);
  }
}

TEST(SoftHtmBodyAbort, WriteCapacityCountsByReadTier) {
  // Reads still in the Tier-0 log: sig_only. Reads promoted first: exact.
  for (const bool promoted : {false, true}) {
    SCOPED_TRACE(promoted ? "promoted" : "tier 0");
    MeteredPair p(SoftHtm::Config{.max_read_set = 1, .max_write_set = 2});
    TmWord read{0};
    std::vector<TmWord> words(3);
    std::size_t writes = 0;
    const AbortStatus s = p.a.attempt([&](SoftHtm::Tx& tx) {
      (void)tx.read(read);
      if (promoted) (void)tx.read(read);
      EXPECT_EQ(p.a.read_tier_is_exact(), promoted);
      for (auto& w : words) {
        tx.write(w, 1);
        ++writes;
      }
    });
    p.expect_body_abort(s, AbortStatus::capacity(), promoted ? 0 : 1, promoted ? 1 : 0);
    EXPECT_EQ(writes, 2u) << "the third write overflowed";
    EXPECT_EQ(words[0].load(), 0u);
    p.expect_next_attempt_commits(words[0]);
  }
}

TEST(SoftHtmBodyAbort, CommitOutlastingTheLockWaitConflicts) {
  // A read waits a bounded number of pauses for a committer's lock, then
  // aborts. B commits a 256-word write set in a loop on its own thread, so
  // each of its stripes stays locked through 256 lock CASes and write-backs.
  // A reads one of those words per attempt: its read set is empty when it
  // extends, so an extension cannot fail. A's aborts are locks that
  // outlasted the wait, or (rarely) a commit that lands between the read's
  // two stripe loads. The loop ends at the first counted timeout.
  MeteredPair p;
  std::vector<TmWord> words(256);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t v = 1; !stop.load(std::memory_order_relaxed); ++v) {
      (void)commit_all(p.b, words, v);
    }
  });
  std::uint64_t aborts = 0;
  std::uint64_t other_causes = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (std::size_t i = 0; std::chrono::steady_clock::now() < deadline; ++i) {
    const AbortStatus s =
        p.a.attempt([&](SoftHtm::Tx& tx) { (void)tx.read(words[i % words.size()]); });
    if (committed(s)) continue;
    ++aborts;
    if (s.cause() != AbortCause::kConflict) ++other_causes;
    if (!SEER_OBS_ENABLED || p.count("htm.lock_wait_timeouts") > 0) break;
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(aborts, 0u) << "no read met a lock held past the wait";
  EXPECT_EQ(other_causes, 0u);
  if (SEER_OBS_ENABLED) {
    EXPECT_GT(p.count("htm.lock_wait_timeouts"), 0u);
    EXPECT_LE(p.count("htm.lock_wait_timeouts"), aborts);
  }
}

}  // namespace
}  // namespace seer::htm
