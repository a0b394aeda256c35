// Tests for the observability layer (src/obs/): metrics registry semantics,
// concurrent snapshotting, ring-buffer tracing (wraparound, drop counts),
// Chrome trace_event export well-formedness, and the ThreadedExecutor's
// HTM counters. Built only with SEER_OBS=ON — the OFF configuration replaces
// everything here with inline no-op stubs. The cross-backend count tests,
// which state their OFF outcome, live in integration_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "htm/soft_htm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/threaded_executor.hpp"

namespace seer::obs {
namespace {

// ---------------------------------------------------- metrics registry -----

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry reg(1);
  const MetricId a = reg.counter("x.count");
  const MetricId b = reg.counter("y.count");
  EXPECT_EQ(reg.counter("x.count"), a) << "same name, same id";
  EXPECT_NE(a, b);
  const MetricId h = reg.histogram("x.hist");
  EXPECT_EQ(reg.histogram("x.hist"), h);
  // Counters and histograms live in separate id spaces.
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(h, 0u);
}

TEST(MetricsRegistry, CountersSumAcrossThreadLanes) {
  MetricsRegistry reg(3);
  const MetricId c = reg.counter("c");
  reg.freeze();
  reg.add(c, 0, 5);
  reg.add(c, 1, 7);
  reg.add(c, 2);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "c");
  EXPECT_EQ(snap.counters[0].value, 13u);
}

TEST(MetricsRegistry, HistogramLogBucketing) {
  // Bucket b holds values v with bit_width(v) == b: bucket 0 is exactly 0,
  // bucket b >= 1 spans [2^(b-1), 2^b).
  EXPECT_EQ(bucket_of(0), 0u);
  EXPECT_EQ(bucket_of(1), 1u);
  EXPECT_EQ(bucket_of(2), 2u);
  EXPECT_EQ(bucket_of(3), 2u);
  EXPECT_EQ(bucket_of(4), 3u);
  EXPECT_EQ(bucket_of(1023), 10u);
  EXPECT_EQ(bucket_of(1024), 11u);
  EXPECT_EQ(bucket_of(~std::uint64_t{0}), 64u);

  MetricsRegistry reg(2);
  const MetricId h = reg.histogram("h");
  reg.freeze();
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 1000u}) reg.observe(h, 0, v);
  reg.observe(h, 1, 1000);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0];
  EXPECT_EQ(hs.count, 6u);
  EXPECT_EQ(hs.sum, 2006u);
  EXPECT_EQ(hs.buckets[0], 1u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[2], 2u);
  EXPECT_EQ(hs.buckets[10], 2u) << "both lanes' 1000s land in [512, 1024)";
}

TEST(MetricsRegistry, SnapshotUnderConcurrentIncrementIsSafeAndExact) {
  // The no-stop-the-world contract: a collector may snapshot while owner
  // threads keep bumping their lanes. Mid-flight snapshots see valid partial
  // sums (monotonicity is checked against the final total); the snapshot
  // after joining is exact. TSan (the `sanitize` ctest label) verifies the
  // relaxed single-writer/multi-reader protocol is race-free.
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  MetricsRegistry reg(kThreads);
  const MetricId c = reg.counter("ops");
  const MetricId h = reg.histogram("vals");
  reg.freeze();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        reg.add(c, static_cast<core::ThreadId>(t));
        reg.observe(h, static_cast<core::ThreadId>(t), i & 255);
      }
    });
  }
  std::uint64_t last = 0;
  for (int probe = 0; probe < 50; ++probe) {
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_LE(snap.counters[0].value, kThreads * kPerThread);
    EXPECT_GE(snap.counters[0].value, last) << "per-lane counters only grow";
    last = snap.counters[0].value;
  }
  for (auto& w : workers) w.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters[0].value, kThreads * kPerThread);
  EXPECT_EQ(snap.histograms[0].count, kThreads * kPerThread);
}

TEST(MetricsRegistry, ToJsonIsStableAndRegistrationOrdered) {
  MetricsRegistry reg(1);
  const MetricId b = reg.counter("b.second");
  const MetricId a = reg.counter("a.first");  // lexically before, registered after
  const MetricId h = reg.histogram("lat");
  reg.freeze();
  reg.add(b, 0, 2);
  reg.add(a, 0, 1);
  reg.observe(h, 0, 5);
  const std::string json = reg.snapshot().to_json();
  EXPECT_EQ(json,
            "{\"counters\": {\"b.second\": 2, \"a.first\": 1}, "
            "\"histograms\": {\"lat\": {\"count\": 1, \"sum\": 5, "
            "\"buckets\": [[3, 1]]}}}");
  EXPECT_EQ(MetricsSnapshot{}.to_json(), "{}");
}

// -------------------------------------------------------- trace sink -------

TEST(TraceSink, RingWraparoundKeepsNewestAndCountsDrops) {
  TraceSink sink(1, 8);
  ASSERT_EQ(sink.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    sink.emit(0, TraceKind::kTxCommit, /*ts=*/i, /*arg=*/i);
  }
  EXPECT_EQ(sink.emitted(), 20u);
  EXPECT_EQ(sink.dropped(), 12u);
  const std::vector<TraceEvent> events = sink.drain_sorted();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, 12 + i) << "oldest events overwritten first";
  }
}

TEST(TraceSink, CapacityRoundsUpToPowerOfTwo) {
  TraceSink sink(2, 9);
  EXPECT_EQ(sink.capacity(), 16u);
  EXPECT_EQ(sink.n_lanes(), 2u);
}

TEST(TraceSink, DrainMergesLanesByTimestamp) {
  TraceSink sink(3, 16);
  sink.emit(2, TraceKind::kTxBegin, 30, 0);
  sink.emit(0, TraceKind::kTxBegin, 10, 0);
  sink.emit(1, TraceKind::kTxBegin, 20, 0);
  sink.emit(0, TraceKind::kTxCommit, 25, 0);
  const auto events = sink.drain_sorted();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].ts, 10u);
  EXPECT_EQ(events[1].ts, 20u);
  EXPECT_EQ(events[2].ts, 25u);
  EXPECT_EQ(events[3].ts, 30u);
  EXPECT_EQ(events[3].thread, 2u);
}

// Structural validation of the Chrome trace_event output. The format is
// consumed by chrome://tracing and ui.perfetto.dev; this checks the JSON is
// balanced and every event carries the required keys with matched B/E pairs
// per tid (what those UIs actually require to render spans).
void validate_chrome_json(const std::string& json) {
  // String values here never contain structural characters, so bracket
  // counting is exact.
  long braces = 0;
  long brackets = 0;
  for (char ch : json) {
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos) << "top-level wrapper";

  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\": \"B\""), count("\"ph\": \"E\""))
      << "span begins and ends must pair up";
  const std::size_t events =
      count("\"ph\": \"B\"") + count("\"ph\": \"E\"") + count("\"ph\": \"i\"");
  EXPECT_EQ(count("\"ts\": "), events) << "every event is timestamped";
  EXPECT_EQ(count("\"pid\": "), events);
  EXPECT_EQ(count("\"tid\": "), events);
}

std::string write_and_read(const TraceSink& sink) {
  // One file per test: ctest runs the test cases as concurrent processes.
  const std::string path =
      ::testing::TempDir() + "obs_test_trace_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  EXPECT_TRUE(sink.write_chrome_json(path));
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(TraceSink, DroppedPerLaneResolvesWhichRingWrapped) {
  TraceSink sink(2, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.emit(0, TraceKind::kTxCommit, i, 0);
  }
  sink.emit(1, TraceKind::kTxCommit, 99, 0);
  const auto lanes = sink.dropped_per_lane();
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0], 6u) << "10 emitted into a 4-slot ring";
  EXPECT_EQ(lanes[1], 0u);
  EXPECT_EQ(sink.dropped(), 6u);
}

TEST(TraceSink, ChromeJsonCarriesDropAccountingInSeerMeta) {
  TraceSink sink(2, 4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    sink.emit(0, TraceKind::kTxCommit, i, 0);
  }
  sink.emit(1, TraceKind::kTxCommit, 50, 0);
  const std::string json = write_and_read(sink);
  validate_chrome_json(json);
  EXPECT_NE(json.find("\"seerMeta\": {\"emitted\": 8, \"dropped\": 3, "
                      "\"droppedPerThread\": [3, 0]}"),
            std::string::npos)
      << json;
}

TEST(TraceSink, ChromeJsonPairsSpansAndIsWellFormed) {
  TraceSink sink(2, 32);
  // Lane 0: begin -> abort -> begin -> commit (one retry).
  sink.emit(0, TraceKind::kTxBegin, 10, 1);
  sink.emit(0, TraceKind::kTxAbort, 20, 0);
  sink.emit(0, TraceKind::kTxBegin, 30, 1);
  sink.emit(0, TraceKind::kTxCommit, 40, 1);
  // Lane 1: an instant plus an unclosed begin (must be closed at last ts).
  sink.emit(1, TraceKind::kSchemeRebuild, 15, 6);
  sink.emit(1, TraceKind::kTxBegin, 35, 2);
  const std::string json = write_and_read(sink);
  validate_chrome_json(json);
  EXPECT_NE(json.find("\"scheme_rebuild\""), std::string::npos);
}

TEST(TraceSink, ChromeJsonDemotesUnmatchedEndsToInstants) {
  TraceSink sink(1, 8);
  sink.emit(0, TraceKind::kTxCommit, 5, 0);  // commit with no begin (SGL path)
  const std::string json = write_and_read(sink);
  validate_chrome_json(json);
  EXPECT_EQ(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

// ------------------------------------------------- executor integration ----

TEST(ObsIntegration, ThreadedExecutorRecordsCommitsAndTraces) {
  constexpr std::size_t kThreads = 2;
  constexpr int kTxPerThread = 200;
  MetricsRegistry reg(kThreads);
  TraceSink trace(kThreads);

  htm::SoftHtm tm;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = kThreads;
  opts.n_types = 2;
  opts.physical_cores = 2;
  opts.metrics = &reg;
  opts.trace = &trace;
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kSeer;
  policy.seer.update_period = 64;
  rt::ThreadedExecutor exec(tm, policy, opts);
  reg.freeze();

  std::vector<htm::TmWord> words(64);
  std::vector<std::thread> threads;
  for (core::ThreadId id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      auto h = exec.make_handle(id);
      for (int i = 0; i < kTxPerThread; ++i) {
        h->run(static_cast<core::TxTypeId>(i % 2), [&](auto& tx) {
          const std::size_t slot = (static_cast<std::size_t>(i) * 7 + id) % words.size();
          tx.write(words[slot], tx.read(words[slot]) + 1);
        });
      }
    });
  }
  for (auto& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  std::uint64_t commits = 0;
  std::uint64_t announces = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "rt.commits") commits = c.value;
    if (c.name == "seer.announces") announces = c.value;
  }
  EXPECT_EQ(commits, kThreads * static_cast<std::uint64_t>(kTxPerThread));
  EXPECT_GT(announces, 0u) << "executor-level sinks reach the Seer scheduler";
  for (const auto& h : snap.histograms) {
    if (h.name == "rt.retry_depth") {
      EXPECT_EQ(h.count, kThreads * static_cast<std::uint64_t>(kTxPerThread));
    }
  }
  EXPECT_GT(trace.emitted(), 0u);
  validate_chrome_json(write_and_read(trace));
}

// A counter's value in `snap`; 0 when absent.
std::uint64_t counter_of(const MetricsSnapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(ObsIntegration, ThreadedExecutorRegistersAndBumpsHtmTierCounters) {
  // The executor registers SoftHtm's telemetry (DESIGN.md §10) alongside
  // its own rt.* metrics and installs it into every handle's SoftHtm
  // context. A workload whose Tier-0 log fills every transaction must show
  // up in htm.read_promote.capacity; nothing here capacity-aborts, so both
  // htm.aborts.capacity.* counters stay zero.
  constexpr std::size_t kThreads = 2;
  constexpr int kTxPerThread = 50;
  MetricsRegistry reg(kThreads);
  htm::SoftHtm tm{htm::SoftHtm::Config{.max_read_set = 16}};
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = kThreads;
  opts.n_types = 1;
  opts.physical_cores = 2;
  opts.metrics = &reg;
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kRtm;
  rt::ThreadedExecutor exec(tm, policy, opts);
  reg.freeze();

  std::vector<std::thread> threads;
  for (core::ThreadId id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      auto h = exec.make_handle(id);
      std::vector<htm::TmWord> words(16);  // per-thread: no conflicts
      for (int i = 0; i < kTxPerThread; ++i) {
        h->run(0, [&](auto& tx) {
          std::uint64_t acc = 0;
          for (auto& w : words) acc += tx.read(w);
          acc += tx.read(words[0]);  // 17th logged read: promotes
          tx.write(words[0], acc);
        });
      }
    });
  }
  for (auto& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  std::uint64_t found = 0;
  for (const auto& c : snap.counters) {
    if (c.name.rfind("htm.", 0) == 0) ++found;
  }
  EXPECT_EQ(found, 6u) << "all six htm.* counters must be registered";
  EXPECT_GE(counter_of(snap, "htm.read_promote.capacity"),
            kThreads * static_cast<std::uint64_t>(kTxPerThread))
      << "every committed transaction crossed the tier boundary";
  EXPECT_EQ(counter_of(snap, "htm.aborts.capacity.sig_only"), 0u);
  EXPECT_EQ(counter_of(snap, "htm.aborts.capacity.exact"), 0u);
}

TEST(ObsIntegration, ThreadedExecutorBumpsHtmExtensionCountersUnderContention) {
  // A contended 3-thread run reaches the read slow path's counters. Thread
  // 0 commits to a shared word in a loop; threads 1 and 2 read a word of
  // their own, wait until two more of thread 0's commits have published
  // (so at least one began after their snapshot), then read the shared
  // word. Its stripe is newer than their snapshot and the word they read
  // before is unchanged, so the read extends the snapshot, revalidating
  // that one read. A lock-wait timeout depends on timing; it is a conflict
  // abort, so it never outnumbers them.
  constexpr std::size_t kThreads = 3;
  constexpr int kTxPerReader = 20;
  constexpr int kMaxYields = 20000;  // a reader on the SGL stalls thread 0
  MetricsRegistry reg(kThreads);
  htm::SoftHtm tm;
  rt::ThreadedExecutor::Options opts;
  opts.n_threads = kThreads;
  opts.n_types = 1;
  opts.physical_cores = kThreads;
  opts.metrics = &reg;
  rt::PolicyConfig policy;
  policy.kind = rt::PolicyKind::kRtm;
  rt::ThreadedExecutor exec(tm, policy, opts);
  reg.freeze();

  htm::TmWord shared{0};
  std::vector<htm::TmWord> own(kThreads);
  std::atomic<std::uint64_t> published{0};
  std::atomic<int> readers_done{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    auto h = exec.make_handle(0);
    while (readers_done.load() < 2) {
      h->run(0, [&](auto& tx) { tx.write(shared, tx.read(shared) + 1); });
      published.fetch_add(1);
    }
  });
  for (core::ThreadId id = 1; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      auto h = exec.make_handle(id);
      for (int i = 0; i < kTxPerReader; ++i) {
        h->run(0, [&](auto& tx) {
          const std::uint64_t mine = tx.read(own[id]);
          const std::uint64_t seen = published.load();
          for (int y = 0; published.load() < seen + 2 && y < kMaxYields; ++y) {
            std::this_thread::yield();
          }
          tx.write(own[id], mine + tx.read(shared));
        });
      }
      readers_done.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  const std::uint64_t extensions = counter_of(snap, "htm.extensions");
  EXPECT_GT(extensions, 0u);
  EXPECT_GE(counter_of(snap, "htm.extension_reads"), extensions)
      << "every reader's extension revalidates its own word";
  EXPECT_LE(counter_of(snap, "htm.lock_wait_timeouts"),
            counter_of(snap, "rt.aborts.conflict"));
  EXPECT_EQ(counter_of(snap, "rt.commits"), published.load() + 2 * kTxPerReader);
}

}  // namespace
}  // namespace seer::obs
