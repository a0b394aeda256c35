#include "obs/snapshot.hpp"

namespace seer::obs {

void append_scheme_json(util::json::Writer& w,
                        const std::vector<std::vector<core::TxTypeId>>& rows) {
  w.begin_array();
  for (const std::vector<core::TxTypeId>& row : rows) {
    w.begin_array();
    for (const core::TxTypeId owner : row) w.u64(static_cast<std::uint64_t>(owner));
    w.end_array();
  }
  w.end_array();
}

// Thresholds and climber state print as %.9g, probabilities as %.6f: the
// formatting half of the --jobs byte-identity contract.
void ModelSnapshot::append_json(util::json::Writer& w) const {
  w.begin_object()
      .u64("seq", seq)
      .str("reason", to_string(reason))
      .u64("now", now)
      .u64("rebuild", rebuild)
      .u64("executions", executions)
      .u64("commits", commits)
      .u64("sgl_fallbacks", sgl_fallbacks);
  w.begin_object("params").g9("th1", th1).g9("th2", th2).end_object();
  w.begin_object("climber");
  w.begin_array("cur").g9(climber_cur_x).g9(climber_cur_y).end_array();
  w.begin_array("best").g9(climber_best_x).g9(climber_best_y).end_array();
  w.g9("best_score", climber_best_score).u64("epochs", climber_epochs).end_object();

  w.u64("n_types", n_types).begin_array("execs");
  for (const std::uint64_t e : execs) w.u64(e);
  w.end_array();

  w.begin_array("pairs");
  for (std::size_t x = 0; x < n_types; ++x) {
    for (std::size_t y = 0; y < n_types; ++y) {
      const std::uint64_t a = aborts[x * n_types + y];
      const std::uint64_t c = commit_pairs[x * n_types + y];
      if (a + c == 0) continue;  // no joint evidence: omit (sparse format)
      // P(x aborts | x || y) and P(x aborts ∩ x || y) — core/probability.hpp.
      const std::uint64_t e = execs[x];
      w.begin_object()
          .u64("x", x)
          .u64("y", y)
          .u64("aborts", a)
          .u64("commits", c)
          .f6("p_cond", static_cast<double>(a) / static_cast<double>(a + c))
          .f6("p_conj",
              e == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(e))
          .end_object();
    }
  }
  w.end_array();

  w.key("scheme");
  append_scheme_json(w, scheme);
  w.end_object();
}

}  // namespace seer::obs
