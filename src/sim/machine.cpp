#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>

namespace seer::sim {

struct Machine::ThreadCtx {
  core::ThreadId id = 0;
  std::unique_ptr<rt::Policy> policy;
  util::Xoshiro256 rng{0};
  std::uint64_t txs_done = 0;
  std::uint64_t gen = 0;
  // Cycle costs accumulated since the last scheduled event; folded into the
  // delay of the next one.
  std::uint64_t pending_cost = 0;

  TxInstance inst;
  FootprintIndex fp;  // inst's footprint; built by begin(), kept across retries
  Time arrival = 0;  // open loop: when the request in service arrived
  rt::Directive d;
  std::size_t acquire_idx = 0;
  std::size_t wait_idx = 0;
  rt::LockList held;
  bool in_hw = false;
  Time hw_end = 0;
  bool capacity_scheduled = false;
  // Aggressor type behind a scheduled conflict abort — precise information
  // the simulator has but a commodity HTM would not reveal. Forwarded via
  // Policy::on_conflict_attribution (used by the Oracle baseline only).
  core::TxTypeId pending_culprit = core::kNoTx;

  enum class St : std::uint8_t {
    kIdle,        // between transactions
    kAcquiring,   // queued on a lock in d.acquires
    kWaitSglFree, // subscribed to the SGL becoming free
    kCoopWait,    // bounded cooperative wait on a tx/core lock
    kRunningHw,   // speculative execution in flight
    kQueuedSgl,   // fallback: queued on the SGL
    kRunningSgl,  // pessimistic execution in flight
    kDone,        // finished its share of transactions
    kParked,      // open loop: no request to serve
  } st = St::kIdle;
};

Machine::Machine(MachineConfig cfg, std::unique_ptr<Workload> workload)
    : cfg_(with_obs(std::move(cfg))),
      workload_(std::move(workload)),
      shared_(cfg_.policy, cfg_.n_threads, workload_->n_types()),
      tx_locks_(workload_->n_types()),
      core_locks_(cfg_.physical_cores) {
  assert(cfg_.n_threads > 0 && cfg_.physical_cores > 0);
  stats_.commits_by_type.assign(workload_->n_types(), 0);
  stats_.gt_conflicts.assign(workload_->n_types() * workload_->n_types(), 0);

  if (cfg_.metrics != nullptr) {
    obs::MetricsRegistry& m = *cfg_.metrics;
    m_commits_ = m.counter("sim.commits");
    m_hw_attempts_ = m.counter("sim.hw_attempts");
    m_sgl_fallbacks_ = m.counter("sim.sgl_fallbacks");
    h_queue_depth_ = m.histogram("sim.queue_depth");
    for (std::size_t c = 0; c < m_aborts_.size(); ++c) {
      m_aborts_[c] = m.counter(
          std::string("sim.aborts.")
              .append(htm::to_string(static_cast<htm::AbortCause>(c))));
    }
  }

  util::Xoshiro256 master(cfg_.seed);
  threads_.reserve(cfg_.n_threads);
  for (core::ThreadId id = 0; id < cfg_.n_threads; ++id) {
    auto t = std::make_unique<ThreadCtx>();
    t->id = id;
    t->policy = shared_.make_thread_policy(id);
    t->rng = master.split();
    threads_.push_back(std::move(t));
  }
}

Machine::~Machine() = default;

SimLock& Machine::lock_of(rt::LockId id) noexcept {
  switch (id.kind) {
    case rt::LockKind::kSgl: return sgl_;
    case rt::LockKind::kAux: return aux_;
    case rt::LockKind::kSched: return sched_;
    case rt::LockKind::kTx: return tx_locks_[id.index];
    case rt::LockKind::kCore: return core_locks_[id.index];
  }
  __builtin_unreachable();
}

std::uint32_t Machine::effective_capacity(const ThreadCtx& t) const noexcept {
  // Core-mates (Linux-style enumeration: threads {c, c+P, c+2P, ...} share
  // physical core c) simultaneously in transactions split the core's
  // transactional budget — the pathology core locks exist to suppress. With
  // two threads per core this is the halving rule.
  const std::size_t p = cfg_.physical_cores;
  const std::size_t core = t.id % p;
  std::uint32_t sharers = 1;
  for (std::size_t m = core; m < cfg_.n_threads; m += p) {
    if (m != static_cast<std::size_t>(t.id) && threads_[m]->in_hw) ++sharers;
  }
  return cfg_.cache_lines_per_core / sharers;
}

void Machine::push(Time at, core::ThreadId th, EventKind kind, std::uint64_t gen,
                   rt::LockId lockid) {
  Event e;
  e.time = at;
  e.thread = th;
  e.kind = kind;
  e.gen = gen;
  e.lock = lockid;
  queue_.push(e);
}

MachineStats Machine::run() {
  // Stagger thread starts by one think time each (and count those think
  // times toward the sequential-execution estimate). A generator with an
  // empty stream for a thread (e.g. replaying a shorter trace) retires that
  // thread before it ever starts.
  for (auto& t : threads_) {
    workload_->init(t->id);
    if (workload_->exhausted(t->id)) {
      t->st = ThreadCtx::St::kDone;
      ++done_count_;
      continue;
    }
    const std::uint64_t think = workload_->think_time(t->id, t->rng);
    stats_.serial_work += think;
    push(think, t->id, EventKind::kStartTx, kAnyGen);
  }

  while (!queue_.empty() && done_count_ < cfg_.n_threads) step();

  stats_.makespan = now_;
  if (auto* s = shared_.seer()) {
    stats_.final_params = s->params();
    stats_.scheme_rebuilds = s->rebuild_count();
    stats_.final_scheme = s->scheme()->to_rows();
    // End-of-run model capture, whatever the periodic cadence last did.
    if (cfg_.recorder != nullptr) {
      cfg_.recorder->record_final(s->make_model_snapshot(now_));
    }
  }
  return stats_;
}

void Machine::step() {
  const Event e = queue_.pop();
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->observe(h_queue_depth_, 0, queue_.size());
  }
  now_ = std::max(now_, e.time);
  on_event(e);
}

void Machine::serve(std::size_t queue_capacity,
                    std::function<void(const Served&)> on_served) {
  assert(!serving_ && now_ == 0 && queue_.empty());
  serving_ = std::make_unique<Serving>(queue_capacity, std::move(on_served));
  for (auto& t : threads_) t->st = ThreadCtx::St::kParked;
}

void Machine::advance(Time t) {
  while (!queue_.empty() && queue_.top().time <= t) step();
  now_ = std::max(now_, t);
}

bool Machine::arrive(Time at, TxInstance inst) {
  assert(serving_ && "arrive() before serve()");
  advance(at);
  if (!serving_->queue.try_push(Queued{now_, std::move(inst)})) return false;
  for (auto& t : threads_) {
    if (t->st == ThreadCtx::St::kParked) {
      t->st = ThreadCtx::St::kIdle;
      push(now_, t->id, EventKind::kServeNext, kAnyGen);
      break;
    }
  }
  return true;
}

void Machine::drain() {
  // Every accepted request either sits in the queue while all threads are
  // busy or waking, or is in service; each commit pops the next one, so
  // the event queue empties exactly when the admission queue has.
  while (!queue_.empty()) step();
}

void Machine::on_event(const Event& e) {
  ThreadCtx& t = *threads_[e.thread];
  if (t.st == ThreadCtx::St::kDone) return;

  switch (e.kind) {
    case EventKind::kStartTx:
      start_tx(t);
      break;

    case EventKind::kLockGranted:
      // Ownership was already transferred by release(); must be consumed.
      if (t.st == ThreadCtx::St::kAcquiring) {
        t.held.push_back(e.lock);
        ++t.acquire_idx;
        continue_acquire(t);
      } else if (t.st == ThreadCtx::St::kQueuedSgl) {
        sgl_granted(t);
      } else {
        assert(false && "lock granted to a thread that is not waiting");
      }
      break;

    case EventKind::kFreeNotify:
      if (e.gen != t.gen) break;
      if (t.st == ThreadCtx::St::kWaitSglFree) {
        ++t.gen;
        continue_waits(t);  // re-checks the SGL (it may be taken again)
      } else if (t.st == ThreadCtx::St::kCoopWait) {
        ++t.gen;  // invalidates the paired timeout
        continue_waits(t);
      }
      break;

    case EventKind::kWaitTimeout:
      if (e.gen != t.gen) break;
      if (t.st == ThreadCtx::St::kCoopWait) {
        ++t.gen;
        ++t.wait_idx;  // bounded wait expired: move on regardless
        continue_waits(t);
      }
      break;

    case EventKind::kHwCommit:
      if (e.gen != t.gen) break;
      assert(t.in_hw);
      hw_commit(t);
      break;

    case EventKind::kConflictAbort:
      if (e.gen != t.gen) break;
      if (t.in_hw) abort_hw(t, htm::AbortStatus::conflict());
      break;

    case EventKind::kCapacityAbort:
      if (e.gen != t.gen) break;
      // Lazy revalidation: the overflow only materializes if the capacity
      // squeeze still holds when the high-water point is reached (an SMT
      // sibling that finished early releases its share of the cache before
      // our tracked set is evicted). Core locks rely on this: once the
      // sibling is parked, pending doom evaporates.
      if (t.in_hw) {
        if (t.fp.lines() > effective_capacity(t)) {
          abort_hw(t, htm::AbortStatus::capacity());
        } else {
          t.capacity_scheduled = false;  // re-armed if a sibling reappears
        }
      }
      break;

    case EventKind::kOtherAbort:
      if (e.gen != t.gen) break;
      if (t.in_hw) abort_hw(t, htm::AbortStatus::other());
      break;

    case EventKind::kSglBodyDone:
      if (e.gen != t.gen) break;
      sgl_done(t);
      break;

    case EventKind::kResume:
      if (e.gen != t.gen) break;
      dispatch(t);
      break;

    case EventKind::kServeNext:
      serve_next(t);
      break;
  }
}

void Machine::record_abort_obs(const ThreadCtx& t, htm::AbortStatus status) {
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->add(m_aborts_[static_cast<std::size_t>(status.cause())], t.id);
  }
  if (cfg_.trace != nullptr) {
    cfg_.trace->emit(t.id, obs::TraceKind::kTxAbort, now_,
                     static_cast<std::uint64_t>(status.cause()));
  }
}

void Machine::run_maintenance(ThreadCtx& t) {
  if (t.policy->maintenance(now_)) {
    t.pending_cost += cfg_.costs.scheme_rebuild;
  }
}

void Machine::start_tx(ThreadCtx& t) {
  run_maintenance(t);  // DESIGN.md deviation #1: start-path trigger
  const double progress = static_cast<double>(t.txs_done) /
                          static_cast<double>(cfg_.txs_per_thread);
  workload_->next(t.id, progress, t.rng, t.inst);
  begin(t);
}

void Machine::serve_next(ThreadCtx& t) {
  Queued r;
  if (!serving_->queue.try_pop(r)) {
    t.st = ThreadCtx::St::kParked;
    return;
  }
  run_maintenance(t);
  t.arrival = r.arrival;
  t.inst = std::move(r.inst);
  begin(t);
}

void Machine::begin(ThreadCtx& t) {
  t.fp.build(t.inst);
  t.policy->begin_tx(t.inst.type);
  if (is_seer()) t.pending_cost += cfg_.costs.announce;
  assert(t.held.empty());
  dispatch(t);
}

void Machine::dispatch(ThreadCtx& t) {
  t.d = t.policy->next_attempt();
  t.acquire_idx = 0;
  t.wait_idx = 0;
  for (const rt::LockId& id : t.d.releases) release_one(t, id);

  // §5.2 census: how fine-grained is each tx-lock acquisition?
  std::size_t n_tx_locks = 0;
  for (const rt::LockId& id : t.d.acquires) {
    if (id.kind == rt::LockKind::kTx) ++n_tx_locks;
  }
  if (n_tx_locks > 0) {
    stats_.txlock_fraction.add(static_cast<double>(n_tx_locks) /
                               static_cast<double>(workload_->n_types()));
  }
  // Batched (multi-CAS-by-HTM) acquisition costs one synchronization
  // round-trip instead of one per lock (§4's optimization).
  if (t.d.htm_batch && t.d.acquires.size() >= 2) {
    t.pending_cost += cfg_.costs.xbegin + cfg_.costs.cas;
  } else {
    t.pending_cost += cfg_.costs.cas * t.d.acquires.size();
  }
  continue_acquire(t);
}

void Machine::continue_acquire(ThreadCtx& t) {
  while (t.acquire_idx < t.d.acquires.size()) {
    const rt::LockId id = t.d.acquires[t.acquire_idx];
    SimLock& l = lock_of(id);
    if (l.try_acquire(t.id)) {
      t.held.push_back(id);
      ++t.acquire_idx;
    } else {
      l.enqueue(t.id);
      t.st = ThreadCtx::St::kAcquiring;
      return;  // resumed by kLockGranted
    }
  }
  after_acquires(t);
}

void Machine::after_acquires(ThreadCtx& t) {
  if (t.d.mode == rt::Directive::Mode::kFallback) {
    t.pending_cost += cfg_.costs.cas;  // SGL acquisition round-trip
    if (sgl_.try_acquire(t.id)) {
      sgl_granted(t);
    } else {
      sgl_.enqueue(t.id);
      t.st = ThreadCtx::St::kQueuedSgl;
    }
    return;
  }
  continue_waits(t);
}

void Machine::continue_waits(ThreadCtx& t) {
  // Lemming avoidance (Alg. 4 line 55): wait for the SGL to be free, and
  // exploit the wait to run scheme maintenance (lines 52-54).
  if (t.d.wait_sgl && sgl_.is_locked()) {
    t.st = ThreadCtx::St::kWaitSglFree;
    sgl_.subscribe_free(t.id, t.gen);
    run_maintenance(t);
    return;
  }
  // Cooperative bounded waits on tx/core locks (lines 57-58).
  while (t.wait_idx < t.d.waits.size()) {
    const rt::LockId id = t.d.waits[t.wait_idx];
    SimLock& l = lock_of(id);
    if (l.is_locked() && l.owner() != t.id) {
      t.st = ThreadCtx::St::kCoopWait;
      l.subscribe_free(t.id, t.gen);
      push(now_ + cfg_.wait_budget, t.id, EventKind::kWaitTimeout, t.gen, id);
      return;
    }
    ++t.wait_idx;
  }
  start_hw(t);
}

void Machine::start_hw(ThreadCtx& t) {
  ++stats_.hw_attempts;
  if (cfg_.metrics != nullptr) cfg_.metrics->add(m_hw_attempts_, t.id);
  if (cfg_.trace != nullptr) {
    cfg_.trace->emit(t.id, obs::TraceKind::kTxBegin, now_,
                     static_cast<std::uint64_t>(t.inst.type));
  }
  // Alg. 1 lines 11-12: a transaction beginning while the fallback lock is
  // held aborts explicitly (the subscription check).
  if (sgl_.is_locked()) {
    t.pending_cost += cfg_.costs.xbegin;
    const auto status = htm::AbortStatus::explicit_abort(htm::kXAbortCodeSglLocked);
    stats_.aborts_by_cause[static_cast<std::size_t>(status.cause())]++;
    record_abort_obs(t, status);
    t.policy->on_abort(status);
    ++t.gen;
    t.st = ThreadCtx::St::kIdle;
    push(now_ + t.pending_cost + cfg_.costs.abort_penalty + scan_cost(), t.id,
         EventKind::kResume, t.gen);
    t.pending_cost = 0;
    return;
  }

  t.in_hw = true;
  t.st = ThreadCtx::St::kRunningHw;
  ++t.gen;
  const Time commit_at =
      now_ + t.pending_cost + cfg_.costs.xbegin + t.inst.duration;
  t.pending_cost = 0;
  t.hw_end = commit_at;
  push(commit_at, t.id, EventKind::kHwCommit, t.gen);

  // Eager conflict detection (TSX-style): when two concurrent transactions'
  // footprints overlap, the coherence traffic of whichever side issues the
  // conflicting access last aborts the other — one of the pair dies at some
  // point within their coexistence window. The victim learns only
  // "conflict", never the culprit, and its retry (same footprint!)
  // typically strikes back: the mutual-kill thrash that motivates
  // transaction scheduling in the first place. The index decides exactly
  // instances_conflict(), and the id-order visit keeps every draw in place.
  for (auto& other : threads_) {
    if (other->id == t.id || !other->in_hw) continue;
    if (FootprintIndex::conflict(t.inst, t.fp, other->inst, other->fp)) {
      const Time horizon = std::min(other->hw_end, commit_at);
      const Time window = horizon > now_ ? horizon - now_ : 1;
      // The conflict only materializes if the colliding accesses actually
      // interleave inside the coexistence window: accesses are spread over
      // each transaction's duration, so a brief overlap usually slips
      // through. This is what makes HTM conflicts *transient* — retrying
      // often succeeds — and blanket serialization overkill.
      const Time longest = std::max(t.inst.duration, other->inst.duration);
      const double p_hit =
          std::min(1.0, static_cast<double>(window) / static_cast<double>(longest));
      if (!t.rng.bernoulli(p_hit)) continue;
      const Time when = now_ + t.rng.below(window);
      if (t.rng.bernoulli(cfg_.p_newcomer_aborts)) {
        t.pending_culprit = other->inst.type;
        push(when, t.id, EventKind::kConflictAbort, t.gen);
      } else {
        other->pending_culprit = t.inst.type;
        push(when, other->id, EventKind::kConflictAbort, other->gen);
      }
    }
  }

  // Capacity: evaluate for this thread and re-evaluate every transactional
  // core-mate (whose effective budget we just shrank).
  t.capacity_scheduled = false;
  schedule_capacity_check(t);
  const std::size_t p = cfg_.physical_cores;
  for (std::size_t m = t.id % p; m < cfg_.n_threads; m += p) {
    if (m != static_cast<std::size_t>(t.id) && threads_[m]->in_hw) {
      schedule_capacity_check(*threads_[m]);
    }
  }

  // Background aborts (interrupts, ring transitions, ...).
  if (t.rng.bernoulli(cfg_.p_other_abort) && t.inst.duration > 0) {
    push(now_ + t.rng.below(t.inst.duration), t.id, EventKind::kOtherAbort, t.gen);
  }
}

void Machine::schedule_capacity_check(ThreadCtx& t) {
  if (!t.in_hw || t.capacity_scheduled) return;
  if (t.fp.lines() <= effective_capacity(t)) return;
  // The transaction will overflow its buffers partway through its
  // remaining execution. Once scheduled the abort is not cancelled even if
  // the sibling leaves: evicting a tracked line is irrecoverable in real
  // HTMs, so the damage is already committed.
  const Time remaining = t.hw_end > now_ ? t.hw_end - now_ : 0;
  const auto delay =
      static_cast<Time>(cfg_.capacity_abort_point * static_cast<double>(remaining));
  push(now_ + delay, t.id, EventKind::kCapacityAbort, t.gen);
  t.capacity_scheduled = true;
}

void Machine::hw_commit(ThreadCtx& t) {
  t.in_hw = false;
  ++t.gen;
  t.pending_cost += cfg_.costs.xcommit + scan_cost();
  finish_tx(t, /*hardware=*/true);
}

void Machine::abort_hw(ThreadCtx& t, htm::AbortStatus status) {
  assert(t.in_hw);
  t.in_hw = false;
  ++t.gen;  // cancels the pending commit/capacity/other events
  stats_.aborts_by_cause[static_cast<std::size_t>(status.cause())]++;
  record_abort_obs(t, status);
  if (status.cause() == htm::AbortCause::kConflict &&
      t.pending_culprit != core::kNoTx) {
    // Ground truth the HTM would never reveal: who actually killed whom.
    stats_.gt_conflicts[static_cast<std::size_t>(t.inst.type) *
                            workload_->n_types() +
                        static_cast<std::size_t>(t.pending_culprit)]++;
    t.policy->on_conflict_attribution(t.pending_culprit);
  }
  t.pending_culprit = core::kNoTx;
  t.policy->on_abort(status);
  t.st = ThreadCtx::St::kIdle;
  push(now_ + cfg_.costs.abort_penalty + scan_cost(), t.id, EventKind::kResume, t.gen);
}

void Machine::sgl_granted(ThreadCtx& t) {
  assert(sgl_.owner() == t.id);
  t.st = ThreadCtx::St::kRunningSgl;
  ++t.gen;
  if (cfg_.metrics != nullptr) cfg_.metrics->add(m_sgl_fallbacks_, t.id);
  if (cfg_.trace != nullptr) {
    cfg_.trace->emit(t.id, obs::TraceKind::kSglFallback, now_,
                     static_cast<std::uint64_t>(t.inst.type));
  }
  // Taking the fallback lock invalidates the subscription in every running
  // hardware transaction (Alg. 1's correctness handshake).
  for (auto& other : threads_) {
    if (other->in_hw) {
      abort_hw(*other, htm::AbortStatus::explicit_abort(htm::kXAbortCodeSglLocked));
    }
  }
  const auto body = static_cast<Time>(cfg_.sgl_duration_factor *
                                      static_cast<double>(t.inst.duration));
  push(now_ + t.pending_cost + body, t.id, EventKind::kSglBodyDone, t.gen);
  t.pending_cost = 0;
}

void Machine::sgl_done(ThreadCtx& t) {
  const auto out = sgl_.release(t.id);
  t.pending_cost += cfg_.costs.cas;
  if (out.granted) {
    push(now_ + cfg_.costs.lock_handoff, *out.granted,
         EventKind::kLockGranted, kAnyGen, rt::kSglLock);
  }
  for (const auto& n : out.notified) {
    push(now_, n.thread, EventKind::kFreeNotify, n.gen, rt::kSglLock);
  }
  finish_tx(t, /*hardware=*/false);
}

void Machine::finish_tx(ThreadCtx& t, bool hardware) {
  const rt::CommitMode mode = rt::classify_commit(t.held, !hardware);
  stats_.commits_by_mode[static_cast<std::size_t>(mode)]++;
  ++stats_.commits;
  stats_.commits_by_type[static_cast<std::size_t>(t.inst.type)]++;
  if (cfg_.metrics != nullptr) cfg_.metrics->add(m_commits_, t.id);
  if (cfg_.trace != nullptr) {
    cfg_.trace->emit(t.id, obs::TraceKind::kTxCommit, now_,
                     static_cast<std::uint64_t>(t.inst.type));
  }

  const rt::LockList to_release = t.policy->on_commit(hardware);
  for (const rt::LockId& id : to_release) release_one(t, id);
  assert(t.held.empty() && "policy leaked locks at commit");
  t.held.clear();

  stats_.serial_work += t.inst.duration;
  if (serving_) {
    serving_->on_served(Served{t.arrival, now_, mode});
    t.st = ThreadCtx::St::kIdle;
    push(now_ + t.pending_cost, t.id, EventKind::kServeNext, kAnyGen);
    t.pending_cost = 0;
    return;
  }
  ++t.txs_done;
  if (t.txs_done >= cfg_.txs_per_thread || workload_->exhausted(t.id)) {
    t.st = ThreadCtx::St::kDone;
    ++done_count_;
    return;
  }
  t.st = ThreadCtx::St::kIdle;
  const std::uint64_t think = workload_->think_time(t.id, t.rng);
  stats_.serial_work += think;
  push(now_ + t.pending_cost + think, t.id, EventKind::kStartTx, kAnyGen);
  t.pending_cost = 0;
}

void Machine::release_one(ThreadCtx& t, rt::LockId id) {
  auto it = std::find(t.held.begin(), t.held.end(), id);
  assert(it != t.held.end() && "policy released a lock the machine never took");
  if (it != t.held.end()) {
    *it = t.held.back();
    t.held.pop_back();
  }
  t.pending_cost += cfg_.costs.cas;
  const auto out = lock_of(id).release(t.id);
  if (out.granted) {
    push(now_ + cfg_.costs.lock_handoff, *out.granted,
         EventKind::kLockGranted, kAnyGen, id);
  }
  for (const auto& n : out.notified) {
    push(now_, n.thread, EventKind::kFreeNotify, n.gen, id);
  }
}

MachineStats run_machine(const MachineConfig& cfg, std::unique_ptr<Workload> workload) {
  Machine m(cfg, std::move(workload));
  return m.run();
}

}  // namespace seer::sim
