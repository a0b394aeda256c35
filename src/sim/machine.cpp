#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>

namespace seer::sim {

struct Machine::ThreadCtx {
  ThreadCtx(rt::PolicyShared& shared, core::ThreadId self, const rt::TxMetrics& metrics,
            const rt::TxTrace& trace)
      : id(self), driver(shared, self, metrics, trace) {}

  core::ThreadId id = 0;
  rt::TxDriver driver;
  util::Xoshiro256 rng{0};
  std::uint64_t txs_done = 0;
  std::uint64_t gen = 0;
  // Cycle costs accumulated since the last scheduled event; folded into the
  // delay of the next one.
  std::uint64_t pending_cost = 0;

  TxInstance inst;
  FootprintIndex fp;  // inst's footprint; built by begin(), kept across retries
  // inst's serial number, from begin(); retries keep it.
  std::uint64_t serial = 0;
  // Pair verdicts, indexed by the other thread's id: whether this thread's
  // instance `mine` conflicts with that thread's instance `theirs`. Serials
  // start at 1, so a fresh row matches no pair.
  struct Verdict {
    std::uint64_t mine = 0;
    std::uint64_t theirs = 0;
    bool conflict = false;
  };
  std::vector<Verdict> verdicts;
  Time arrival = 0;  // open loop: when the request in service arrived
  // How the transaction in service committed.
  rt::CommitMode mode = rt::CommitMode::kHtmNoLocks;
  // The kAcquire step in progress: its locks, and how many are held.
  const rt::LockList* acquiring = nullptr;
  std::size_t acquire_idx = 0;
  Time hw_end = 0;
  bool capacity_scheduled = false;

  enum class St : std::uint8_t {
    kIdle,        // between transactions
    kAcquiring,   // queued on a lock of the acquire step
    kWaiting,     // subscribed to the next release of the SGL or a tx/core lock
    kRunningHw,   // speculative execution in flight
    kQueuedSgl,   // fallback: queued on the SGL
    kRunningSgl,  // pessimistic execution in flight
    kDone,        // finished its share of transactions
    kParked,      // open loop: no request to serve
  } st = St::kIdle;
};

Machine::Machine(MachineConfig cfg, std::unique_ptr<Workload> workload)
    : cfg_(std::move(cfg)),
      workload_(std::move(workload)),
      shared_(cfg_.policy, cfg_.n_threads, workload_->n_types(), cfg_.physical_cores,
              {.metrics = cfg_.metrics, .trace = cfg_.trace, .recorder = cfg_.recorder}),
      locks_(workload_->n_types(), cfg_.physical_cores),
      in_hw_((cfg_.n_threads + 63) / 64, 0) {
  assert(cfg_.n_threads > 0 && cfg_.physical_cores > 0);
  stats_.commits_by_type.assign(workload_->n_types(), 0);
  stats_.gt_conflicts.assign(workload_->n_types() * workload_->n_types(), 0);

  if (cfg_.metrics != nullptr) {
    tx_metrics_ = rt::TxMetrics(*cfg_.metrics);
    h_queue_depth_ = cfg_.metrics->histogram("sim.queue_depth");
  }

  // The drivers stamp transaction events on the cycle clock.
  const rt::TxTrace trace{
      .sink = cfg_.trace,
      .now = [](const void* now) { return *static_cast<const Time*>(now); },
      .clock = &now_};
  util::Xoshiro256 master(cfg_.seed);
  threads_.reserve(cfg_.n_threads);
  for (core::ThreadId id = 0; id < cfg_.n_threads; ++id) {
    auto t = std::make_unique<ThreadCtx>(shared_, id, tx_metrics_, trace);
    t->rng = master.split();
    t->verdicts.resize(cfg_.n_threads);
    threads_.push_back(std::move(t));
  }
}

Machine::~Machine() = default;

std::uint32_t Machine::effective_capacity(const ThreadCtx& t) const noexcept {
  // Core-mates (Linux-style enumeration: threads {c, c+P, c+2P, ...} share
  // physical core c) simultaneously in transactions split the core's
  // transactional budget — the pathology core locks exist to suppress. With
  // two threads per core this is the halving rule.
  const std::size_t p = cfg_.physical_cores;
  const std::size_t core = t.id % p;
  std::uint32_t sharers = 1;
  for (std::size_t m = core; m < cfg_.n_threads; m += p) {
    if (m != static_cast<std::size_t>(t.id) && in_hw(m)) ++sharers;
  }
  return cfg_.cache_lines_per_core / sharers;
}

void Machine::push(Time at, core::ThreadId th, EventKind kind, std::uint64_t gen,
                   core::TxTypeId culprit) {
  Event e;
  e.time = at;
  e.thread = th;
  e.kind = kind;
  e.culprit = culprit;
  e.gen = gen;
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
  rt::ThreadCounters total;
  for (const auto& t : threads_) total += t->driver.counters();
  stats_.commits_by_mode = total.commits_by_mode;
  stats_.aborts_by_cause = total.aborts_by_cause;
  stats_.hw_attempts = total.hw_attempts;
  for (auto c : total.commits_by_mode) stats_.commits += c;
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
  // Transient events are dropped once the thread has moved on; ownership
  // transfers and transaction starts carry kAnyGen and are always delivered.
  if (e.gen != kAnyGen && e.gen != t.gen) return;

  switch (e.kind) {
    case EventKind::kStartTx:
      start_tx(t);
      break;

    case EventKind::kLockGranted:
      // Ownership was already transferred by release(); must be consumed.
      if (t.st == ThreadCtx::St::kQueuedSgl) {
        sgl_granted(t);
        break;
      }
      assert(t.st == ThreadCtx::St::kAcquiring && "lock granted to a non-waiter");
      ++t.acquire_idx;
      if (acquire_rest(t)) perform(t);
      break;

    case EventKind::kWaitOver:
      // The first release after the wait began, or the cooperative wait's
      // budget: whichever comes first ends the wait, and the bump drops the
      // other.
      ++t.gen;
      t.driver.wait_over(rt::WaitEnd::kBlocked);
      perform(t);
      break;

    case EventKind::kHwCommit:
      assert(in_hw(t.id));
      set_in_hw(t.id, false);
      ++t.gen;
      t.pending_cost += cfg_.costs.xcommit + scan_cost();
      committed(t, /*hardware=*/true);
      break;

    case EventKind::kConflictAbort:
      if (in_hw(t.id)) abort_hw(t, htm::AbortStatus::conflict(), e.culprit);
      break;

    case EventKind::kCapacityAbort:
      // Lazy revalidation: the overflow only materializes if the capacity
      // squeeze still holds when the high-water point is reached (an SMT
      // sibling that finished early releases its share of the cache before
      // our tracked set is evicted). Core locks rely on this: once the
      // sibling is parked, pending doom evaporates.
      if (in_hw(t.id)) {
        if (t.fp.lines() > effective_capacity(t)) {
          abort_hw(t, htm::AbortStatus::capacity());
        } else {
          t.capacity_scheduled = false;  // re-armed if a sibling reappears
        }
      }
      break;

    case EventKind::kOtherAbort:
      if (in_hw(t.id)) abort_hw(t, htm::AbortStatus::other());
      break;

    case EventKind::kSglBodyDone:
      release(t, rt::kSglLock);
      committed(t, /*hardware=*/false);
      break;

    case EventKind::kResume:
      perform(t);
      break;

    case EventKind::kServeNext:
      serve_next(t);
      break;
  }
}

void Machine::run_maintenance(ThreadCtx& t) {
  if (t.driver.maintenance(now_)) t.pending_cost += cfg_.costs.scheme_rebuild;
}

void Machine::start_tx(ThreadCtx& t) {
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
  t.arrival = r.arrival;
  t.inst = std::move(r.inst);
  begin(t);
}

void Machine::begin(ThreadCtx& t) {
  run_maintenance(t);  // DESIGN.md deviation #1: start-path trigger
  t.fp.build(t.inst);
  t.serial = ++serials_;
  t.driver.begin(t.inst.type);
  if (is_seer()) t.pending_cost += cfg_.costs.announce;
  perform(t);
}

// Performs the driver's steps until one has to wait for an event.
void Machine::perform(ThreadCtx& t) {
  while (true) {
    const rt::Step s = t.driver.next();
    switch (s.kind) {
      case rt::Step::Kind::kRelease:
        release(t, s.lock);
        break;

      case rt::Step::Kind::kAcquire: {
        // §5.2 census: how fine-grained is each tx-lock acquisition?
        const auto n_tx_locks =
            std::count_if(s.locks->begin(), s.locks->end(),
                          [](rt::LockId id) { return id.kind == rt::LockKind::kTx; });
        if (n_tx_locks > 0) {
          stats_.txlock_fraction.add(static_cast<double>(n_tx_locks) /
                                     static_cast<double>(workload_->n_types()));
        }
        // Batched (multi-CAS-by-HTM) acquisition costs one synchronization
        // round-trip instead of one per lock (§4's optimization).
        t.pending_cost += s.htm_batch ? cfg_.costs.xbegin + cfg_.costs.cas
                                      : cfg_.costs.cas * s.locks->size();
        t.acquiring = s.locks;
        t.acquire_idx = 0;
        if (!acquire_rest(t)) return;  // resumed by kLockGranted
        break;
      }

      case rt::Step::Kind::kWaitSgl:
      case rt::Step::Kind::kWaitLock: {
        SimLock& l = locks_.get(s.lock);
        if (l.is_locked() && l.owner() != t.id) {
          t.st = ThreadCtx::St::kWaiting;
          l.subscribe(t.id, t.gen);
          if (s.kind == rt::Step::Kind::kWaitSgl) {
            // Lemming avoidance (Alg. 4 line 55) lends the wait to scheme
            // maintenance (lines 52-54).
            run_maintenance(t);
          } else {
            // Cooperative waits on tx/core locks (lines 57-58) are bounded.
            push(now_ + cfg_.wait_budget, t.id, EventKind::kWaitOver, t.gen);
          }
          return;
        }
        t.driver.wait_over(rt::WaitEnd::kFree);
        break;
      }

      case rt::Step::Kind::kHwAttempt:
        start_hw(t);
        return;

      case rt::Step::Kind::kFallback:
        t.pending_cost += cfg_.costs.cas;  // SGL acquisition round-trip
        if (locks_.sgl().try_acquire(t.id)) {
          sgl_granted(t);
        } else {
          locks_.sgl().enqueue(t.id);
          t.st = ThreadCtx::St::kQueuedSgl;
        }
        return;

      case rt::Step::Kind::kDone:
        stats_.serial_work += t.inst.duration;
        t.st = ThreadCtx::St::kIdle;
        if (serving_) {
          serving_->on_served(Served{t.arrival, now_, t.mode});
          push(now_ + t.pending_cost, t.id, EventKind::kServeNext, kAnyGen);
        } else if (++t.txs_done >= cfg_.txs_per_thread || workload_->exhausted(t.id)) {
          t.st = ThreadCtx::St::kDone;
          ++done_count_;
        } else {
          const std::uint64_t think = workload_->think_time(t.id, t.rng);
          stats_.serial_work += think;
          push(now_ + t.pending_cost + think, t.id, EventKind::kStartTx, kAnyGen);
        }
        t.pending_cost = 0;
        return;
    }
  }
}

// Takes the acquire step's locks in order from acquire_idx and tells the
// driver once all are held; false when queued on one (kLockGranted hands it
// over and resumes).
bool Machine::acquire_rest(ThreadCtx& t) {
  const rt::LockList& locks = *t.acquiring;
  for (; t.acquire_idx < locks.size(); ++t.acquire_idx) {
    SimLock& l = locks_.get(locks[t.acquire_idx]);
    if (!l.try_acquire(t.id)) {
      l.enqueue(t.id);
      t.st = ThreadCtx::St::kAcquiring;
      return false;
    }
  }
  t.driver.acquired();
  return true;
}

void Machine::start_hw(ThreadCtx& t) {
  // Alg. 1 lines 11-12: a transaction beginning while the fallback lock is
  // held aborts explicitly (the subscription check).
  if (locks_.sgl().is_locked()) {
    t.pending_cost += cfg_.costs.xbegin;
    abort_hw(t, htm::AbortStatus::explicit_abort(htm::kXAbortCodeSglLocked));
    return;
  }

  set_in_hw(t.id, true);
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
  // instances_conflict(), a pure function of the two instances, so each
  // pair's verdict is computed once and kept in both threads' rows for
  // their retries. The id-order visit keeps every draw in place.
  for_each_in_hw([&](std::size_t j) {
    if (j == static_cast<std::size_t>(t.id)) return;
    ThreadCtx& other = *threads_[j];
    ThreadCtx::Verdict& v = t.verdicts[j];
    if (v.mine != t.serial || v.theirs != other.serial) {
      v = {t.serial, other.serial,
           FootprintIndex::conflict(t.inst, t.fp, other.inst, other.fp)};
      other.verdicts[t.id] = {other.serial, t.serial, v.conflict};
    }
    if (!v.conflict) return;
    const Time horizon = std::min(other.hw_end, commit_at);
    const Time window = horizon > now_ ? horizon - now_ : 1;
    // The conflict only materializes if the colliding accesses actually
    // interleave inside the coexistence window: accesses are spread over
    // each transaction's duration, so a brief overlap usually slips
    // through. This is what makes HTM conflicts *transient* — retrying
    // often succeeds — and blanket serialization overkill.
    const Time longest = std::max(t.inst.duration, other.inst.duration);
    const double p_hit =
        std::min(1.0, static_cast<double>(window) / static_cast<double>(longest));
    if (!t.rng.bernoulli(p_hit)) return;
    const Time when = now_ + t.rng.below(window);
    if (t.rng.bernoulli(cfg_.p_newcomer_aborts)) {
      push(when, t.id, EventKind::kConflictAbort, t.gen, other.inst.type);
    } else {
      push(when, other.id, EventKind::kConflictAbort, other.gen, t.inst.type);
    }
  });

  // Capacity: evaluate for this thread and re-evaluate every transactional
  // core-mate (whose effective budget we just shrank).
  t.capacity_scheduled = false;
  schedule_capacity_check(t);
  const std::size_t p = cfg_.physical_cores;
  for (std::size_t m = t.id % p; m < cfg_.n_threads; m += p) {
    if (m != static_cast<std::size_t>(t.id) && in_hw(m)) {
      schedule_capacity_check(*threads_[m]);
    }
  }

  // Background aborts (interrupts, ring transitions, ...).
  if (t.rng.bernoulli(cfg_.p_other_abort) && t.inst.duration > 0) {
    push(now_ + t.rng.below(t.inst.duration), t.id, EventKind::kOtherAbort, t.gen);
  }
}

void Machine::schedule_capacity_check(ThreadCtx& t) {
  if (!in_hw(t.id) || t.capacity_scheduled) return;
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

// The attempt aborted (or could not begin): the driver hears of it, and the
// thread resumes after the abort penalty. `culprit`: the aggressor's type
// for a conflict abort, else kNoTx.
void Machine::abort_hw(ThreadCtx& t, htm::AbortStatus status, core::TxTypeId culprit) {
  set_in_hw(t.id, false);
  ++t.gen;  // cancels the pending commit/capacity/other events
  if (culprit != core::kNoTx) {
    // Ground truth the HTM would never reveal: who actually killed whom.
    stats_.gt_conflicts[static_cast<std::size_t>(t.inst.type) * workload_->n_types() +
                        static_cast<std::size_t>(culprit)]++;
  }
  t.driver.aborted(status, culprit);
  t.st = ThreadCtx::St::kIdle;
  push(now_ + t.pending_cost + cfg_.costs.abort_penalty + scan_cost(), t.id,
       EventKind::kResume, t.gen);
  t.pending_cost = 0;
}

void Machine::sgl_granted(ThreadCtx& t) {
  assert(locks_.sgl().owner() == t.id);
  t.st = ThreadCtx::St::kRunningSgl;
  ++t.gen;
  t.driver.sgl_acquired();
  // Taking the fallback lock invalidates the subscription in every running
  // hardware transaction (Alg. 1's correctness handshake).
  for_each_in_hw([&](std::size_t j) {
    abort_hw(*threads_[j], htm::AbortStatus::explicit_abort(htm::kXAbortCodeSglLocked));
  });
  const auto body = static_cast<Time>(cfg_.sgl_duration_factor *
                                      static_cast<double>(t.inst.duration));
  push(now_ + t.pending_cost + body, t.id, EventKind::kSglBodyDone, t.gen);
  t.pending_cost = 0;
}

void Machine::committed(ThreadCtx& t, bool hardware) {
  t.mode = t.driver.committed(hardware);
  stats_.commits_by_type[static_cast<std::size_t>(t.inst.type)]++;
  perform(t);  // the driver releases every held lock, then kDone
}

void Machine::release(ThreadCtx& t, rt::LockId id) {
  t.pending_cost += cfg_.costs.cas;
  const auto out = locks_.get(id).release(t.id);
  if (out.granted) {
    push(now_ + cfg_.costs.lock_handoff, *out.granted, EventKind::kLockGranted, kAnyGen);
  }
  for (const auto& n : out.notified) push(now_, n.thread, EventKind::kWaitOver, n.gen);
}

MachineStats run_machine(const MachineConfig& cfg, std::unique_ptr<Workload> workload) {
  Machine m(cfg, std::move(workload));
  return m.run();
}

}  // namespace seer::sim
