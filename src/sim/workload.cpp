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
  const auto& r = inst.reads;
  const auto& w = inst.writes;
  union_.resize(r.size() + w.size());
  const auto end = std::set_union(r.begin(), r.end(), w.begin(), w.end(), union_.begin());
  union_.erase(end, union_.end());
  unsigned bits = 6;
  while ((std::size_t{1} << bits) < kBitsPerLine * union_.size()) ++bits;
  filter_.assign(std::size_t{1} << (bits - 6), 0);
  shift_ = 64 - bits;
  for (const std::uint32_t l : union_) {
    const std::uint64_t bit = bit_of(l);
    filter_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
}

}  // namespace seer::sim
