// Quickstart: protect a shared data structure with Seer-scheduled
// best-effort transactions.
//
// This is the minimal embedding of the library on real threads:
//   1. create a SoftHtm (the software best-effort HTM the executor drives),
//   2. create a ThreadedExecutor with PolicyKind::kSeer,
//   3. give every thread a ThreadHandle,
//   4. wrap each atomic block in handle.run(<static block id>, body).
//
// The demo runs a tiny key-value store: `put` transactions contend on hot
// buckets, `sum` transactions scan everything. Seer learns which blocks
// contend and schedules them; the program prints the commit-mode breakdown
// and verifies the data structure stayed consistent.
#include <cstdio>
#include <thread>
#include <vector>

#include "htm/soft_htm.hpp"
#include "runtime/threaded_executor.hpp"
#include "util/rng.hpp"

using namespace seer;

namespace {

constexpr std::size_t kBuckets = 64;
constexpr std::size_t kThreads = 4;
constexpr int kOpsPerThread = 20000;

// Static atomic-block ids — "minimalist compiler support" in the paper is
// exactly this enumeration.
enum TxType : core::TxTypeId { kPut = 0, kSum = 1 };

}  // namespace

int main() {
  htm::SoftHtm tm;

  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kSeer;

  rt::ThreadedExecutor::Options opts;
  opts.n_threads = kThreads;
  opts.n_types = 2;
  opts.physical_cores = 2;

  rt::ThreadedExecutor exec(tm, policy, opts);

  // TM-managed memory is arrays of htm::TmWord.
  std::vector<htm::TmWord> buckets(kBuckets);
  htm::TmWord op_count{0};

  std::vector<std::unique_ptr<rt::ThreadedExecutor::ThreadHandle>> handles;
  for (core::ThreadId t = 0; t < kThreads; ++t) handles.push_back(exec.make_handle(t));

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % 16 == 0) {
          // Atomic block "sum": scan all buckets consistently.
          (void)handles[t]->run(kSum, [&](auto& tx) {
            std::uint64_t total = 0;
            for (auto& b : buckets) total += tx.read(b);
            if (total != tx.read(op_count)) {
              std::fprintf(stderr, "CONSISTENCY VIOLATION\n");
              std::abort();
            }
          });
        } else {
          // Atomic block "put": bump one (skewed) bucket and the op count.
          const std::size_t idx = rng.below(8);  // hot head
          (void)handles[t]->run(kPut, [&](auto& tx) {
            tx.write(buckets[idx], tx.read(buckets[idx]) + 1);
            tx.write(op_count, tx.read(op_count) + 1);
          });
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Verify and report.
  std::uint64_t total = 0;
  for (auto& b : buckets) total += b.load();
  std::printf("final state: %llu puts recorded, op_count=%llu -> %s\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(op_count.load()),
              total == op_count.load() ? "consistent" : "CORRUPT");

  const rt::ExecutorStats stats = rt::ThreadedExecutor::aggregate(handles);
  std::printf("\ncommit modes across %llu transactions:\n",
              static_cast<unsigned long long>(stats.commits()));
  for (int m = 0; m < static_cast<int>(rt::CommitMode::kModeCount); ++m) {
    const auto mode = static_cast<rt::CommitMode>(m);
    if (stats.mode_fraction(mode) > 0.0) {
      std::printf("  %-22s %6.2f%%\n", rt::to_string(mode),
                  100.0 * stats.mode_fraction(mode));
    }
  }
  std::printf("aborts: %llu (%.2f per commit)\n",
              static_cast<unsigned long long>(stats.aborts()),
              static_cast<double>(stats.aborts()) /
                  static_cast<double>(stats.commits()));

  // Peek at what the scheduler inferred.
  if (core::SeerScheduler* seer = exec.policy_shared().seer()) {
    const auto scheme = seer->scheme();
    std::printf("\ninferred locking scheme (Th1=%.2f, Th2=%.2f, %llu rebuilds):\n",
                seer->params().th1, seer->params().th2,
                static_cast<unsigned long long>(seer->rebuild_count()));
    const char* names[] = {"put", "sum"};
    for (core::TxTypeId x = 0; x < 2; ++x) {
      std::printf("  %s acquires:", names[x]);
      for (core::TxTypeId y : scheme->row(x)) std::printf(" L(%s)", names[y]);
      if (scheme->row(x).empty()) std::printf(" (nothing)");
      std::printf("\n");
    }
  }
  return total == op_count.load() ? 0 : 1;
}
