// Machine topology: sockets x cores-per-socket x SMT-per-core.
//
// The paper's testbed is one 4-core/8-thread Haswell socket. A workload
// config's "topology" section spells the shape out so `seer_serve` can size
// 64-128 hardware threads: the product sockets x cores_per_socket is the
// physical core count both serve backends give the machine, and
// hw_threads() bounds the worker count. Placement stays Linux-style —
// hardware thread t runs on core t % physical_cores() — so the shape's only
// other effect is that limit.
#pragma once

#include <cstddef>

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
};

}  // namespace seer::core
