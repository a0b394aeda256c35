// ModelSnapshot — a point-in-time capture of the Seer scheduler's full
// probabilistic state: the merged Alg. 3 abort/commit matrices, the derived
// pairwise conflict probabilities, the active fine-grained lock scheme, and
// the hill climber's position in (Th1, Th2) space.
//
// The struct is plain data and always compiles (it carries no hot-path
// machinery); the FlightRecorder that retains and serializes snapshots is
// what the SEER_OBS gate stubs out. Snapshots are built on the maintenance
// path only (scheme rebuilds, end of run) — never on the per-transaction
// record_commit/record_abort path — so the allocations here cost the same
// class of work as the rebuild that triggers them.
//
// Serialization is a versioned JSON object (kModelSnapshotVersion). The
// format is append-only by contract: consumers (tools/seer_inspect) must
// tolerate unknown keys, and any key removal or meaning change bumps the
// version. Every number is spelled by util/json_writer.hpp, so dumps are
// byte-identical across runs of the same deterministic embedding — the
// property the bench harness's --jobs invariance tests pin down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/json_writer.hpp"

namespace seer::obs {

inline constexpr int kModelSnapshotVersion = 1;

enum class SnapshotReason : std::uint8_t {
  kPeriodic,  // every kSnapshotPeriod-th scheme rebuild (flight_recorder.hpp)
  kAnomaly,   // the scheduler entered an abort storm
  kFinal,     // end-of-run capture
};

[[nodiscard]] constexpr const char* to_string(SnapshotReason r) noexcept {
  switch (r) {
    case SnapshotReason::kPeriodic: return "periodic";
    case SnapshotReason::kAnomaly: return "anomaly";
    case SnapshotReason::kFinal: return "final";
  }
  return "?";
}

struct ModelSnapshot {
  // Capture identity (seq is assigned by the FlightRecorder on record()).
  std::uint64_t seq = 0;
  SnapshotReason reason = SnapshotReason::kPeriodic;
  std::uint64_t now = 0;      // logical clock of the embedding (cycles/ticks)
  std::uint64_t rebuild = 0;  // scheduler rebuild count at capture

  // Exact (unsampled) lifetime tallies at capture.
  std::uint64_t executions = 0;
  std::uint64_t commits = 0;
  std::uint64_t sgl_fallbacks = 0;

  // Inference thresholds live at capture (Th1, Th2).
  double th1 = 0.0;
  double th2 = 0.0;

  // Hill-climber search state.
  double climber_cur_x = 0.0;
  double climber_cur_y = 0.0;
  double climber_best_x = 0.0;
  double climber_best_y = 0.0;
  double climber_best_score = 0.0;
  std::uint64_t climber_epochs = 0;

  // Merged Alg. 3 statistics (row-major n_types x n_types).
  std::size_t n_types = 0;
  std::vector<std::uint64_t> aborts;
  std::vector<std::uint64_t> commit_pairs;
  std::vector<std::uint64_t> execs;  // n_types

  // Active locksToAcquire rows: scheme[x] lists the lock owners x acquires.
  std::vector<std::vector<core::TxTypeId>> scheme;

  [[nodiscard]] std::uint64_t abort(core::TxTypeId x, core::TxTypeId y) const noexcept {
    return aborts[static_cast<std::size_t>(x) * n_types + static_cast<std::size_t>(y)];
  }

  // Appends this snapshot as one JSON object. Pairs with zero evidence are
  // omitted (the matrices are sparse in practice); each emitted pair carries
  // the raw tallies AND the derived probabilities the paper's inference
  // consumes — P(x aborts | x||y) and P(x aborts ∩ x||y) — so offline tools
  // need not re-derive them.
  void append_json(util::json::Writer& w) const;
  void append_json(std::string& out) const {
    util::json::Writer w(out);
    append_json(w);
  }
};

// Writes locksToAcquire rows as an array of arrays of lock owners: a
// snapshot's "scheme" and the bench dump's "final_scheme".
void append_scheme_json(util::json::Writer& w,
                        const std::vector<std::vector<core::TxTypeId>>& rows);

}  // namespace seer::obs
