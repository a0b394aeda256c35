// Machine topology: sockets x cores-per-socket x SMT-per-core.
//
// The paper's testbed is one 4-core/8-thread Haswell socket, and the flat
// `physical_cores` knob the configs grew up with describes exactly that. To
// simulate 64-128 hardware threads the placement structure has to become
// explicit: which threads share a physical core (they split the L1d
// transactional budget).
//
// Thread enumeration stays Linux-style: hardware thread t runs on physical
// core `t % physical_cores()`, so core c hosts threads {c, c + P, c + 2P,
// ...} — with smt_per_core == 2 that is exactly the legacy `t <->
// t + physical_cores` sibling rule, which keeps every existing config the
// 1-socket special case.
#pragma once

#include <cstddef>

#include "core/types.hpp"

namespace seer::core {

struct Topology {
  std::size_t sockets = 1;
  std::size_t cores_per_socket = 4;
  std::size_t smt_per_core = 2;

  [[nodiscard]] constexpr std::size_t physical_cores() const noexcept {
    return sockets * cores_per_socket;
  }
  [[nodiscard]] constexpr std::size_t hw_threads() const noexcept {
    return physical_cores() * smt_per_core;
  }
  [[nodiscard]] constexpr bool valid() const noexcept {
    return sockets >= 1 && cores_per_socket >= 1 && smt_per_core >= 1 &&
           hw_threads() <= kMaxThreads;
  }

  [[nodiscard]] constexpr std::size_t core_of(ThreadId t) const noexcept {
    return static_cast<std::size_t>(t) % physical_cores();
  }

  // The legacy flat config as a topology: one socket, SMT pairs.
  [[nodiscard]] static constexpr Topology flat(std::size_t physical_cores,
                                               std::size_t smt = 2) noexcept {
    return Topology{1, physical_cores, smt};
  }

  friend constexpr bool operator==(const Topology& a, const Topology& b) noexcept {
    return a.sockets == b.sockets && a.cores_per_socket == b.cores_per_socket &&
           a.smt_per_core == b.smt_per_core;
  }
};

}  // namespace seer::core
