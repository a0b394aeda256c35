#include "htm/soft_htm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace seer::htm {

SoftHtm::SoftHtm(Config cfg) : cfg_(cfg) {
  assert(std::has_single_bit(cfg_.stripes) && "stripe count must be a power of two");
  assert(cfg_.stripes <= (1ULL << 31) && "stripe indices must fit in 32 bits");
  stripe_mask_ = cfg_.stripes - 1;
  // Value-initialized: every stripe starts unlocked at version 0.
  stripes_ = std::make_unique<std::atomic<std::uint64_t>[]>(cfg_.stripes);
}

void SoftHtm::Tx::abort(std::uint8_t code) {
  ctx_.abort_with(AbortStatus::explicit_abort(code));
}
void SoftHtm::Tx::subscribe(const std::atomic<std::uint64_t>& word,
                            std::uint64_t expected) {
  ctx_.do_subscribe(word, expected);
}

void SoftHtm::ThreadContext::begin() {
  assert(!active_ && "SoftHtm transactions do not nest");
  active_ = true;
  reads_.clear();
  writes_.clear();
  subs_.clear();
  read_log_.clear();
  write_sig_.clear();
  // Reads start log-only (Tier 0): an empty log is one cursor reset.
  read_tier_exact_ = false;
  t0_next_ = t0_buf_.get();
  // One integer bump retires every index slot of the previous attempt. On
  // the (once per 2^32 attempts) wraparound the tagged structures must
  // forget their stale epochs, or a recycled epoch value would resurrect
  // entries from 4 billion attempts ago.
  if (++epoch_ == 0) {
    write_index_.hard_reset();
    read_words_.hard_reset();
    epoch_ = 1;
  }
  write_index_.begin_epoch(epoch_);
  read_words_.begin_epoch(epoch_);
  ++attempt_count_;
  op_index_ = 0;
  read_version_ = tm_.clock_.load(std::memory_order_acquire);
  if (obs_ != nullptr) {
    obs_->emit(obs_lane_, obs::TraceKind::kTxBegin, obs::now_ticks(),
               attempt_count_ - 1);
  }
  maybe_fault(TxOp::kBegin);
}

void SoftHtm::ThreadContext::rollback() noexcept {
  active_ = false;
  reads_.clear();
  writes_.clear();
  subs_.clear();
  t0_next_ = t0_buf_.get();
}

void SoftHtm::ThreadContext::abort_with(AbortStatus status) {
  if (obs_ != nullptr) {
    obs_->emit(obs_lane_, obs::TraceKind::kTxAbort, obs::now_ticks(),
               static_cast<std::uint64_t>(status.cause()));
  }
  throw TxAbortException{status};
}

AbortStatus SoftHtm::ThreadContext::fail_commit(AbortStatus status,
                                                std::size_t locked) noexcept {
  for (std::size_t i = 0; i < locked; ++i) {
    tm_.stripe_at(lock_stripes_[i]).fetch_and(~kLockedBit, std::memory_order_release);
  }
  if (obs_ != nullptr) {
    obs_->emit(obs_lane_, obs::TraceKind::kTxAbort, obs::now_ticks(),
               static_cast<std::uint64_t>(status.cause()));
  }
  rollback();
  return status;
}

std::optional<AbortStatus> SoftHtm::ThreadContext::injected_fault(TxOp op) {
  // Injection models *hardware* abort noise, so the capacity-exempt path
  // (the pessimistic SGL fallback, which is not speculative) is exempt too —
  // otherwise a high-rate plan could starve the fallback's retry loop (the
  // callers check faults_armed() before landing here).
  const std::uint64_t i = op_index_++;
  return fault_->before_op(op, attempt_count_ - 1, i);
}

// Tier-0 → exact promotion, run by the read `w` that finds the log full:
// replay the logged addresses through the exact distinct-word index once,
// then track `w` itself exactly and continue with exact accounting for the
// rest of the attempt. The replay dedups — reads_ ends at the true distinct
// count ≤ log length == budget — so the replay can never overflow the cap.
// `w` is the first read that can, and track_read_exact raises that abort
// at the same read an always-exact tracker would. reserve_for/reserve make
// the rebuild at most one allocation each the first time a context
// promotes at a given size, and none once warm.
void SoftHtm::ThreadContext::promote_reads(const TmWord* w, std::uint64_t h) {
  const auto logged = static_cast<std::size_t>(t0_next_ - t0_buf_.get());
  read_words_.reserve_for(logged + 1);
  if (reads_.capacity() < logged) reads_.reserve(logged);
  for (const TmWord* const* p = t0_buf_.get(); p != t0_next_; ++p) {
    const TmWord* a = *p;
    const std::uint64_t ha = mix_addr(a);
    const auto si = static_cast<std::uint32_t>(ha & stripe_mask_);
    if (read_words_.find_or_insert(a, si, ha) == AddrIndex::kNpos) {
      reads_.push_back(si);
    }
  }
  t0_next_ = t0_buf_.get();
  read_tier_exact_ = true;
  ++promote_capacity_;
  if (metrics_.registry != nullptr) {
    metrics_.registry->add(metrics_.promote_capacity, metrics_.lane);
  }
  assert(reads_.size() <= tm_.cfg_.max_read_set);
  track_read_exact(w, static_cast<std::uint32_t>(h & stripe_mask_), h);
}

// Capacity aborts funnel through here so abort attribution can split them
// by read tier: sig_only counts aborts raised while reads were still in
// the Tier-0 log (a write-set overflow); exact counts those raised after
// promotion. Read-capacity aborts always land in the exact bucket by
// construction — Tier 0 promotes at the budget instead of aborting.
void SoftHtm::ThreadContext::abort_capacity() {
  if (metrics_.registry != nullptr) {
    metrics_.registry->add(read_tier_exact_ ? metrics_.capacity_abort_exact
                                            : metrics_.capacity_abort_sig,
                           metrics_.lane);
  }
  abort_with(AbortStatus::capacity());
}

void SoftHtm::ThreadContext::do_subscribe(const std::atomic<std::uint64_t>& word,
                                          std::uint64_t expected) {
  assert(active_);
  maybe_fault(TxOp::kSubscribe);
  if (word.load(std::memory_order_acquire) != expected) {
    abort_with(AbortStatus::conflict());
  }
  if (subs_.empty()) {
    sub0_word_ = &word;
    sub0_expected_ = expected;
  }
  subs_.push_back(Subscription{&word, expected});
}

AbortStatus SoftHtm::ThreadContext::commit() {
  assert(active_);
  if (faults_armed()) {
    if (const auto forced = injected_fault(TxOp::kCommit)) {
      return fail_commit(*forced, 0);
    }
  }
  if (writes_.empty()) {
    // Read-only transactions were validated on every read; nothing to publish.
    if (!subscriptions_hold()) return fail_commit(AbortStatus::conflict(), 0);
    if (log_ != nullptr) {
      // A read-only commit serializes at its snapshot: it saw every write
      // with version <= read_version_ and none after.
      log_->push_back(TxRecord{.begin_version = read_version_,
                               .commit_version = read_version_,
                               .writer = false,
                               .reads = read_log_,
                               .writes = {}});
    }
    if (obs_ != nullptr) {
      obs_->emit(obs_lane_, obs::TraceKind::kTxCommit, obs::now_ticks(), 0);
    }
    rollback();
    return AbortStatus(kXBeginStarted);
  }

  // The stripes to lock in canonical (stripe-index) order, deadlock-free
  // across committers. Duplicates are distinct words sharing a stripe (the
  // write set itself is deduplicated by word); one lock covers them. Small
  // write sets touch stripes in hash order, which is rarely sorted, but the
  // is_sorted probe is cheap and spares the common single-stripe and
  // sequential-buffer cases the full sort. lock_stripes_ is a reusable
  // member: the commit path performs no heap allocation once warm.
  lock_stripes_.clear();
  for (const WriteEntry& e : writes_) lock_stripes_.push_back(e.stripe);
  if (!std::is_sorted(lock_stripes_.begin(), lock_stripes_.end())) {
    std::sort(lock_stripes_.begin(), lock_stripes_.end());
  }
  lock_stripes_.erase(std::unique(lock_stripes_.begin(), lock_stripes_.end()),
                      lock_stripes_.end());

  // Every abort below this point goes through fail_commit with the number
  // of stripes acquired so far — a leaked stripe lock poisons that stripe
  // forever (all later transactions touching it abort with CONFLICT).
  // Acquire in canonical order; never block — a busy stripe means a
  // concurrent committer, which an HTM would report as a conflict abort.
  std::size_t locked = 0;
  for (const std::uint32_t si : lock_stripes_) {
    std::atomic<std::uint64_t>& s = tm_.stripe_at(si);
    std::uint64_t cur = s.load(std::memory_order_acquire);
    if ((cur & kLockedBit) != 0 || cur > (read_version_ << 1) ||
        !s.compare_exchange_strong(cur, cur | kLockedBit, std::memory_order_acq_rel)) {
      return fail_commit(AbortStatus::conflict(), locked);
    }
    ++locked;
  }

  // Take the write version now, after locking and before validating (the
  // TL2 order). A writer that locks one of our read stripes after we
  // validated it then takes a larger version, so commit-version order is
  // a serialization order; validating first would let it slip in between
  // and publish a smaller version than ours.
  const std::uint64_t wv = tm_.clock_.fetch_add(1, std::memory_order_acq_rel) + 1;

  // Validate the read set against the read version. A locked stripe is
  // fine iff the lock is ours (stripes we own passed the version check
  // just before locking). Only a stripe found locked asks that question,
  // and a binary search of the sorted lock list answers it.
  if (tm_.cfg_.defect != Defect::kSkipCommitValidation) {
    auto stripe_valid = [&](std::uint32_t si) {
      const std::uint64_t v = tm_.stripe_at(si).load(std::memory_order_acquire);
      if ((v & kLockedBit) != 0) {
        return std::binary_search(lock_stripes_.begin(), lock_stripes_.end(), si);
      }
      return v <= (read_version_ << 1);
    };
    // Tier-0 reads never built reads_: walk the replay log instead,
    // recomputing each entry's stripe. Undeduplicated, so a re-read
    // stripe validates more than once — the price a writer pays for
    // having skipped per-read exact accounting, and exactly why a
    // read-only commit (the Tier-0 sweet spot) skips this entirely.
    for (const TmWord* const* p = t0_buf_.get(); p != t0_next_; ++p) {
      if (!stripe_valid(static_cast<std::uint32_t>(mix_addr(*p) & stripe_mask_))) {
        return fail_commit(AbortStatus::conflict(), locked);
      }
    }
    // Tier-1 reads: each distinct stripe entry once. Empty in Tier 0.
    for (const std::uint32_t si : reads_) {
      if (!stripe_valid(si)) return fail_commit(AbortStatus::conflict(), locked);
    }
  }
  if (!subscriptions_hold()) return fail_commit(AbortStatus::conflict(), locked);

  // Publish: write back, release stripes at the new version.
  for (const WriteEntry& e : writes_) {
    e.addr->store(e.value, std::memory_order_release);
  }
  for (const std::uint32_t si : lock_stripes_) {
    tm_.stripe_at(si).store(wv << 1, std::memory_order_release);
  }
  if (log_ != nullptr) {
    TxRecord rec{.begin_version = read_version_,
                 .commit_version = wv,
                 .writer = true,
                 .reads = read_log_,
                 .writes = {}};
    rec.writes.reserve(writes_.size());
    for (const WriteEntry& e : writes_) rec.writes.push_back(TxWrite{e.addr, e.value});
    log_->push_back(std::move(rec));
  }
  if (obs_ != nullptr) {
    obs_->emit(obs_lane_, obs::TraceKind::kTxCommit, obs::now_ticks(), writes_.size());
  }
  rollback();
  return AbortStatus(kXBeginStarted);
}

}  // namespace seer::htm
