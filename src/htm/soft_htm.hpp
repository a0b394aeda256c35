// SoftHtm — a software implementation of a best-effort hardware TM.
//
// Purpose: the paper evaluates on Intel TSX silicon, which is deprecated and
// absent from this machine. SoftHtm gives real multi-threaded programs the
// exact *interface and failure model* of a best-effort HTM: optimistic
// transactions, word-granularity conflict detection, bounded capacity,
// explicit aborts, and a coarse TSX-style abort status. The Seer scheduler
// and all baseline policies run unmodified on top of it.
//
// Design: TL2-style word-based STM.
//   * A global version clock and a striped table of versioned write-locks.
//   * Reads validate their stripe (unlocked, version <= read-version) on
//     every access, so transactions only ever observe consistent snapshots
//     (opacity), mirroring how an HTM aborts eagerly on remote invalidation.
//   * Writes are buffered (lazy versioning) and published at commit after
//     acquiring stripe locks in canonical order (no deadlock, no blocking:
//     a busy stripe aborts the transaction with a CONFLICT status).
//   * Read/write-set sizes are capped to model hardware capacity; exceeding
//     a cap aborts with a CAPACITY status, exactly like L1d overflow in TSX.
//   * Non-transactional writers (the SGL fallback path) are handled by
//     subscriptions: the runtime subscribes to the fallback lock word and
//     the transaction aborts if it changes (the software analogue of the
//     lock sitting in the transaction's read set).
//
// TM-managed memory is arrays of seer::htm::TmWord (relaxed atomics) so that
// concurrent commit write-back never races with speculative reads in the
// C++-memory-model sense.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "htm/abort_code.hpp"
#include "htm/access_set.hpp"
#include "htm/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cacheline.hpp"

namespace seer::htm {

// A transactionally managed machine word.
using TmWord = std::atomic<std::uint64_t>;

// Pre-registered metric ids a ThreadContext bumps at read-tier promotions
// and capacity aborts (never per access — the hot path stays untouched).
// The embedder registers the counters on its MetricsRegistry before
// freeze(), then installs the ids via ThreadContext::set_metrics; the
// registry must outlive every attempt run on the context.
struct HtmMetrics {
  obs::MetricsRegistry* registry = nullptr;
  core::ThreadId lane = 0;
  obs::MetricId promote_capacity = obs::kNoMetric;  // htm.read_promote.capacity
  // htm.aborts.capacity.sig_only: raised while reads were still in the
  // Tier-0 log (perfbench reads the counter by this name).
  obs::MetricId capacity_abort_sig = obs::kNoMetric;
  obs::MetricId capacity_abort_exact = obs::kNoMetric;  // htm.aborts.capacity.exact
};

// Thrown by transactional accesses when the transaction must roll back; the
// driver (SoftHtm::ThreadContext::attempt) catches it — user code must let
// it propagate, the same way a hardware abort jumps back to xbegin.
struct TxAbortException {
  AbortStatus status;
};

class SoftHtm {
 public:
  // Deliberately broken variants of the TM, used ONLY by the check harness
  // (src/check/, DESIGN.md §7) to prove the opacity checker catches a
  // defective implementation. Every real embedding uses kNone.
  enum class Defect : std::uint8_t {
    kNone,
    kSkipCommitValidation,  // commit publishes without read-set validation
    kSkipReadValidation,    // reads skip stripe pre/post-validation
  };

  struct Config {
    // Capacity model. Haswell TSX tracks reads in L1d+L2-victim structures
    // (large) and writes strictly in L1d (small); we default to word counts
    // of comparable magnitude scaled down for test speed.
    std::size_t max_read_set = 4096;
    std::size_t max_write_set = 512;
    // Number of versioned-lock stripes (power of two).
    std::size_t stripes = 1u << 16;
    Defect defect = Defect::kNone;
  };

  SoftHtm() : SoftHtm(Config{}) {}
  explicit SoftHtm(Config cfg);
  SoftHtm(const SoftHtm&) = delete;
  SoftHtm& operator=(const SoftHtm&) = delete;

  class ThreadContext;

  // Handle passed to the transaction body for transactional accesses.
  class Tx {
   public:
    [[nodiscard]] std::uint64_t read(const TmWord& w);
    void write(TmWord& w, std::uint64_t value);

    // Abort programmatically with an 8-bit code (TSX xabort).
    [[noreturn]] void abort(std::uint8_t code);

    // Subscribe to a non-transactional word: the commit (and every later
    // access) fails with CONFLICT if the word no longer equals `expected`.
    void subscribe(const std::atomic<std::uint64_t>& word, std::uint64_t expected);

   private:
    friend class ThreadContext;
    explicit Tx(ThreadContext& ctx) : ctx_(ctx) {}
    ThreadContext& ctx_;
  };

  // Per-thread transaction machinery. Create one per thread; not shareable.
  //
  // Every per-access structure is O(1) and reusable across attempts
  // (DESIGN.md §10): the write set is indexed by an open-addressed hash
  // table behind a 64-bit signature filter (read-own-writes and write
  // dedup in constant time), and reads start in a log-only Tier 0 (an
  // address replay log) and are promoted to the exact distinct-word index
  // only when the log reaches the capacity budget. Both indices are
  // epoch-tagged: one integer bump per attempt clears them. The commit path
  // sorts and deduplicates a reusable stripe list, which then answers "is
  // this locked stripe mine?" by binary search — zero heap allocations once
  // the vectors and tables are warm.
  //
  // Aborts raised inside the body (read validation, capacity, tx.abort,
  // a subscription checked during a read, an injected in-body fault) throw
  // TxAbortException: they must leave user code. Commit-time aborts happen
  // after the body has returned, so commit() reports them as its return
  // value and never unwinds.
  class ThreadContext {
   public:
    explicit ThreadContext(SoftHtm& tm)
        : tm_(tm),
          stripe_mask_(tm.stripe_mask_),
          stripe_tab_(tm.stripes_.get()),
          validate_reads_(tm.cfg_.defect != Defect::kSkipReadValidation),
          t0_buf_(std::make_unique<const TmWord*[]>(tm.cfg_.max_read_set)),
          t0_next_(t0_buf_.get()),
          t0_end_(t0_buf_.get() + tm.cfg_.max_read_set) {}
    ThreadContext(const ThreadContext&) = delete;
    ThreadContext& operator=(const ThreadContext&) = delete;

    // Runs `body(Tx&)` as one optimistic transaction attempt.
    // Returns kXBeginStarted's AbortStatus-equivalent on success
    // (status.raw() == kXBeginStarted) or the abort status. Any other
    // exception the body throws rolls the attempt back and propagates:
    // the context leaves the transaction, with capacity enforcement (and
    // with it fault injection) back on, exactly as after an abort.
    template <typename Body>
    AbortStatus attempt(Body&& body) {
      try {
        begin();
        Tx tx(*this);
        body(tx);
      } catch (const TxAbortException& e) {
        rollback();
        return e.status;
      } catch (...) {
        rollback();
        enforce_capacity_ = true;  // attempt_unbounded's reset is skipped
        throw;
      }
      return commit();
    }

    // Like attempt(), but exempt from the modelled hardware-capacity caps.
    // Used by pessimistic fallback paths, which must execute arbitrary
    // bodies but still need stripe coordination so their updates are atomic
    // with respect to concurrently committing speculative transactions
    // (a raw non-transactional write could interleave with a commit's
    // write-back and lose updates).
    template <typename Body>
    AbortStatus attempt_unbounded(Body&& body) {
      enforce_capacity_ = false;
      const AbortStatus s = attempt(std::forward<Body>(body));
      enforce_capacity_ = true;
      return s;
    }

    // True while a speculative attempt is executing (xtest analogue).
    [[nodiscard]] bool in_tx() const noexcept { return active_; }

    // Introspection for tests: words read / written this attempt — the
    // quantity the capacity model caps (capacity models L1d words;
    // re-accessing a word consumes no new capacity, exactly like TSX).
    // While reads are still Tier 0 (log-only) the read count is the
    // replay-log length: a conservative UPPER bound on the distinct-word
    // count, exact whenever no word was read twice. After promotion it is
    // the exact distinct count.
    [[nodiscard]] std::size_t read_set_size() const noexcept {
      return read_tier_exact_ ? reads_.size()
                              : static_cast<std::size_t>(t0_next_ - t0_buf_.get());
    }
    [[nodiscard]] std::size_t write_set_size() const noexcept { return writes_.size(); }

    // Read-tracking tier introspection (tests and metrics plumbing): which
    // tier the current/last attempt's reads are tracked in, and how many
    // promotions (each one a log that reached the budget) this context has
    // performed.
    [[nodiscard]] bool read_tier_is_exact() const noexcept { return read_tier_exact_; }
    [[nodiscard]] std::uint64_t read_promotions_capacity() const noexcept {
      return promote_capacity_;
    }

    // Jumps the index epoch counter (tests only: exercising the wraparound
    // path without running 2^32 attempts). The next begin() advances from
    // this value.
    void set_epoch_for_testing(std::uint32_t epoch) noexcept { epoch_ = epoch; }
    [[nodiscard]] std::uint32_t epoch_for_testing() const noexcept { return epoch_; }

    // --- check-harness instrumentation (src/check/) ----------------------
    // Installs a deterministic fault injector consulted before every
    // speculative operation; nullptr disables. The injector must outlive
    // every attempt run on this context.
    void set_fault_injector(FaultInjector* injector) noexcept { fault_ = injector; }
    // Enables commit logging for the opacity checker: every committed
    // transaction (speculative or capacity-exempt fallback) appends one
    // TxRecord to `log`. nullptr disables.
    void set_tx_log(TxLog* log) noexcept { log_ = log; }

    // --- observability (src/obs/) ----------------------------------------
    // Emits tx begin/commit/abort events into `lane` of the sink (RDTSC
    // timestamps via obs::now_ticks). The sink must outlive every attempt
    // run on this context; nullptr disables.
    void set_obs(obs::TraceSink* sink, core::ThreadId lane) noexcept {
      obs_ = sink;
      obs_lane_ = lane;
    }
    // Installs pre-registered promotion/capacity-abort counters (see
    // HtmMetrics). Bumped only at tier promotions and capacity aborts —
    // never on the per-access path. The registry must outlive every attempt
    // run on this context; a default-constructed HtmMetrics disables.
    void set_metrics(const HtmMetrics& m) noexcept { metrics_ = m; }

   private:
    friend class Tx;

    struct WriteEntry {
      TmWord* addr;
      std::uint64_t value;
      std::uint32_t stripe;  // index into tm_.stripes_
    };
    struct Subscription {
      const std::atomic<std::uint64_t>* word;
      std::uint64_t expected;
    };

    void begin();
    // Runs after the body returned: every abort here is reported through
    // fail_commit's return value, never thrown.
    AbortStatus commit();
    // The one exit of a commit-time abort: releases the first `locked`
    // entries of lock_stripes_, emits the abort trace event, rolls back.
    AbortStatus fail_commit(AbortStatus status, std::size_t locked) noexcept;
    void rollback() noexcept;

    // The per-access paths (and everything they touch) are defined inline
    // at the bottom of this header: the call itself is the largest single
    // cost left on a warmed-up read, and inlining lets the caller's loop
    // hoist the dormant-feature checks and hot constants into registers.
    std::uint64_t do_read(const TmWord& w);
    void do_write(TmWord& w, std::uint64_t value);
    void do_subscribe(const std::atomic<std::uint64_t>& word, std::uint64_t expected);
    // Tier-1 tracking for one read: the exact dedup-and-account probe.
    void track_read_exact(const TmWord* w, std::uint32_t si, std::uint64_t h) {
      if (read_words_.find_or_insert(w, si, h) == AddrIndex::kNpos) {
        reads_.push_back(si);
        if (enforce_capacity_ && reads_.size() > tm_.cfg_.max_read_set) {
          abort_capacity();
        }
      }
    }
    // Tier-0 slow path, run by the read that finds the log full: replays
    // the log into the exact tier, then tracks that read exactly.
    void promote_reads(const TmWord* w, std::uint64_t h);
    [[noreturn]] void abort_capacity();
    [[noreturn]] void abort_with(AbortStatus status);
    [[nodiscard]] bool subscriptions_hold() const noexcept;
    // Fault injection is dormant in every non-check embedding: the inline
    // wrapper is one pointer test, the consult lives out of line.
    [[nodiscard]] bool faults_armed() const noexcept {
      return fault_ != nullptr && enforce_capacity_;
    }
    void maybe_fault(TxOp op) {
      if (!faults_armed()) return;
      if (const auto forced = injected_fault(op)) abort_with(*forced);
    }
    [[nodiscard]] std::optional<AbortStatus> injected_fault(TxOp op);

    SoftHtm& tm_;
    // Hot-path constants hoisted out of tm_ at construction (the config and
    // stripe table are immutable after the SoftHtm ctor): per-access code
    // loads nothing through the tm_ indirection.
    std::size_t stripe_mask_;
    std::atomic<std::uint64_t>* stripe_tab_;
    bool validate_reads_;  // == (defect != kSkipReadValidation)
    bool active_ = false;
    bool enforce_capacity_ = true;
    std::uint64_t read_version_ = 0;
    // Read set, Tier 1 (exact): the stripe of each distinct word read
    // (deduplicated by the read_words_ probe), which is all commit-time
    // validation needs. Two words sharing a stripe contribute two entries;
    // validation simply re-checks that stripe. The guarded pushes make
    // reads_.size() exactly the distinct-word count, so it doubles as the
    // capacity account (the model is L1d words, deliberately independent of
    // the stripe count). Empty while reads are still Tier 0.
    std::vector<std::uint32_t> reads_;
    std::vector<WriteEntry> writes_;
    std::vector<Subscription> subs_;
    // O(1) access-path structures (all epoch-cleared, reused across
    // attempts; see access_set.hpp and DESIGN.md §10).
    AddrSignature write_sig_;
    AddrIndex write_index_;  // word addr -> writes_ slot
    AddrIndex read_words_;   // distinct-words-read set (payload: stripe index)
    // Tier-0 read tracking (DESIGN.md §10.1). Every read appends its
    // address to the replay log — no hash-table probe, no dedup. Re-reads
    // are logged too, so the log length is a sound upper bound on the
    // distinct-word count and Tier 0 never raises a read-capacity abort
    // itself: the read that finds the log full promotes to exact
    // accounting, strictly before the true distinct count can exceed the
    // budget.
    //
    // The log is a raw cursor over a fixed buffer of max_read_set slots
    // (allocated once, reused across attempts) so the per-read cost is one
    // pointer compare + store.
    std::unique_ptr<const TmWord*[]> t0_buf_;  // replay log, program order
    const TmWord** t0_next_;  // log cursor (== t0_buf_ when empty)
    const TmWord** t0_end_;   // t0_buf_ + cfg_.max_read_set (the budget)
    bool read_tier_exact_ = false;  // false: Tier 0; true: exact accounting
    std::uint64_t promote_capacity_ = 0;  // promotions (log at the budget)
    std::uint32_t epoch_ = 0;  // index epoch, bumped per begin(); 0 is never live
    // Commit scratch (reused; member so the commit path never allocates):
    // the write set's stripes, sorted and deduplicated — the canonical
    // lock order and, by binary search, the set of stripes this commit owns.
    std::vector<std::uint32_t> lock_stripes_;
    // Single-subscription fast path: the executor subscribes to exactly one
    // word (the SGL), so per-read revalidation is one load/compare.
    const std::atomic<std::uint64_t>* sub0_word_ = nullptr;
    std::uint64_t sub0_expected_ = 0;
    // Check-harness state (dormant unless installed).
    FaultInjector* fault_ = nullptr;
    TxLog* log_ = nullptr;
    // Observability trace sink (dormant unless installed).
    obs::TraceSink* obs_ = nullptr;
    core::ThreadId obs_lane_ = 0;
    HtmMetrics metrics_;  // promotion/capacity counters (dormant unless set)
    std::uint64_t attempt_count_ = 0;  // begins seen by this context
    std::uint64_t op_index_ = 0;       // ops within the current attempt
    std::vector<TxRead> read_log_;     // observed reads, program order
  };

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // Which stripe a word maps to (mix the address; words 8 bytes apart land
  // in different stripes). Public so tests can manufacture same-stripe
  // word pairs deterministically.
  [[nodiscard]] std::size_t stripe_index_of(const void* addr) const noexcept {
    return mix_addr(addr) & stripe_mask_;
  }

 private:
  friend class ThreadContext;

  // Versioned lock encoding: bit 0 = locked; bits 63..1 = version.
  static constexpr std::uint64_t kLockedBit = 1ULL;

  [[nodiscard]] std::atomic<std::uint64_t>& stripe_at(std::size_t index) noexcept {
    return stripes_[index];
  }

  Config cfg_;
  std::size_t stripe_mask_;
  // One word per stripe, unpadded: 8 stripes share a cache line, so a
  // commit to one stripe invalidates its neighbours' line (false sharing).
  // Versions stay per stripe, so it never causes a false conflict; the
  // table is 8x smaller than one line per stripe (DESIGN.md §10).
  std::unique_ptr<std::atomic<std::uint64_t>[]> stripes_;
  alignas(util::kCacheLineBytes) std::atomic<std::uint64_t> clock_{0};
};

// ---------------------------------------------------------------------------
// Inline per-access paths. These run once per transactional read/write, so
// they live in the header: inlined into the caller's loop, the dormant
// instrumentation checks (fault injector, tx log, subscriptions) fold into
// single predictable tests and the hoisted constants (stripe_mask_,
// stripe_tab_, validate_reads_) stay in registers. Cold continuations —
// begin/commit, promotion, every abort — remain out of line in soft_htm.cpp.

inline bool SoftHtm::ThreadContext::subscriptions_hold() const noexcept {
  const std::size_t n = subs_.size();
  if (n == 0) return true;
  // Single-subscription fast path: the executor subscribes to exactly one
  // word (the SGL fallback lock), so the per-access revalidation is one
  // load/compare against inline members instead of a vector walk.
  if (sub0_word_->load(std::memory_order_acquire) != sub0_expected_) return false;
  for (std::size_t i = 1; i < n; ++i) {
    const Subscription& s = subs_[i];
    if (s.word->load(std::memory_order_acquire) != s.expected) return false;
  }
  return true;
}

inline std::uint64_t SoftHtm::ThreadContext::do_read(const TmWord& w) {
  assert(active_);
  maybe_fault(TxOp::kRead);
  // One address mix feeds everything below: the write filter (top bits),
  // the stripe map (low bits) and both index probes.
  const std::uint64_t h = mix_addr(&w);
  // Read-own-writes: the write buffer wins over memory. One AND/compare
  // rules out the overwhelmingly common "not in my write set" case; a
  // filter hit falls through to the exact O(1) index probe.
  if (write_sig_.may_contain(h)) {
    const std::uint32_t idx = write_index_.find(&w, h);
    if (idx != AddrIndex::kNpos) return writes_[idx].value;
  }
  const auto si = static_cast<std::uint32_t>(h & stripe_mask_);
  std::atomic<std::uint64_t>& stripe = stripe_tab_[si];
  // TL2 post-validated read: sample the stripe version, read the word,
  // re-check the stripe. Any concurrent commit to this stripe is caught.
  const std::uint64_t v_before = stripe.load(std::memory_order_acquire);
  if (validate_reads_ &&
      ((v_before & kLockedBit) != 0 || v_before > (read_version_ << 1))) {
    abort_with(AbortStatus::conflict());
  }
  const std::uint64_t value = w.load(std::memory_order_acquire);
  const std::uint64_t v_after = stripe.load(std::memory_order_acquire);
  if (validate_reads_ && v_after != v_before) {
    abort_with(AbortStatus::conflict());
  }
  if (!subscriptions_hold()) abort_with(AbortStatus::conflict());
  if (log_ != nullptr) read_log_.push_back(TxRead{&w, value});
  // Two-tier read tracking (DESIGN.md §10.1). Tier 0 (the common case): log
  // the address — no hash-table probe. Every read is logged, re-reads
  // included, so the log length stays a sound UPPER bound on the
  // distinct-word count. The read that finds the log full promotes (out of
  // line in soft_htm.cpp) before it is tracked.
  if (!read_tier_exact_) {
    if (t0_next_ != t0_end_) [[likely]] {
      *t0_next_++ = &w;
      return value;
    }
    promote_reads(&w, h);
    return value;
  }
  // Tier 1 (exact): one L1-resident probe both dedups the read set and
  // accounts capacity — a word seen before adds nothing (its stripe is
  // already in reads_ and, per the L1d model, a resident line consumes no
  // new capacity). A new word appends its stripe — two distinct words can
  // share a stripe, which merely validates that stripe twice at commit.
  track_read_exact(&w, si, h);
  return value;
}

inline void SoftHtm::ThreadContext::do_write(TmWord& w, std::uint64_t value) {
  assert(active_);
  maybe_fault(TxOp::kWrite);
  // One probe both dedups and claims the slot: an existing entry is
  // overwritten in place, a new word appends to the buffer.
  const std::uint64_t h = mix_addr(&w);
  const std::uint32_t existing =
      write_index_.find_or_insert(&w, static_cast<std::uint32_t>(writes_.size()), h);
  if (existing != AddrIndex::kNpos) {
    writes_[existing].value = value;
    return;
  }
  write_sig_.add(h);
  writes_.push_back(
      WriteEntry{&w, value, static_cast<std::uint32_t>(h & stripe_mask_)});
  if (enforce_capacity_ && writes_.size() > tm_.cfg_.max_write_set) {
    // A write overflow can fire in either read tier — this is the one
    // capacity abort that lands in the sig_only bucket, when reads are
    // still in the Tier-0 log.
    abort_capacity();
  }
}

inline std::uint64_t SoftHtm::Tx::read(const TmWord& w) { return ctx_.do_read(w); }
inline void SoftHtm::Tx::write(TmWord& w, std::uint64_t value) {
  ctx_.do_write(w, value);
}

}  // namespace seer::htm
