#include "sim/workload.hpp"

#include <algorithm>

namespace seer::sim {

namespace {

// Any-overlap test on two sorted unique sequences: O(n + m).
bool sorted_intersects(const std::vector<std::uint32_t>& a,
                       const std::vector<std::uint32_t>& b) noexcept {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

std::size_t TxInstance::footprint_lines() const noexcept {
  // reads and writes are sorted unique; count the union without allocating.
  std::size_t n = 0;
  auto ir = reads.begin();
  auto iw = writes.begin();
  while (ir != reads.end() && iw != writes.end()) {
    if (*ir < *iw) {
      ++ir;
    } else if (*iw < *ir) {
      ++iw;
    } else {
      ++ir;
      ++iw;
    }
    ++n;
  }
  n += static_cast<std::size_t>(reads.end() - ir);
  n += static_cast<std::size_t>(writes.end() - iw);
  return n;
}

bool write_conflicts(const TxInstance& a, const TxInstance& b) noexcept {
  return sorted_intersects(a.writes, b.reads) || sorted_intersects(a.writes, b.writes);
}

void FootprintIndex::build(const TxInstance& inst) {
  const std::size_t keys = inst.reads.size() + inst.writes.size();
  unsigned bits = 4;
  while ((std::size_t{1} << bits) < 2 * keys) ++bits;
  slots_.assign(std::size_t{1} << bits, kEmpty);
  mask_ = slots_.size() - 1;
  shift_ = 64 - bits;
  holds_empty_key_ = false;
  lines_ = 0;
  for (const std::uint32_t l : inst.reads) insert(l);
  for (const std::uint32_t l : inst.writes) insert(l);
}

void FootprintIndex::insert(std::uint32_t line) {
  if (line == kEmpty) {
    lines_ += holds_empty_key_ ? 0 : 1;
    holds_empty_key_ = true;
    return;
  }
  std::size_t i = slot_of(line);
  for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
    if (slots_[i] == line) return;
  }
  slots_[i] = line;
  ++lines_;
}

}  // namespace seer::sim
