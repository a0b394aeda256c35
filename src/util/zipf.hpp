// Zipf-distributed sampling over a finite universe [0, n).
//
// The STAMP stand-in workloads use Zipfian access skew to model hot data
// (e.g. popular customers in vacation, frequent flows in intruder). For the
// universe sizes involved (up to a few hundred thousand lines) a precomputed
// inverse-CDF table is both exact and fast to sample from.
//
// A guide table over the CDF (Chen & Asau's indexed search) returns the
// rank a binary search over all n ranks would. guide_[j] counts the CDF
// entries whose bucket lies below j, and bucket() is monotone, so for u in
// bucket j every entry before guide_[j] is < u and the entry at
// guide_[j + 1] is >= u (the last bucket ends at n, the +inf sentinel after
// the last entry). A draw binary-searches its own bucket. There are 8
// buckets per rank up to 2^16 ranks, then 2^19 (a larger table only misses
// cache) until that is one per rank, so the bucket a draw lands in holds at
// most n / buckets <= 1 entries on average, whatever the skew. A heavy skew
// (s >= 2) over many ranks crowds the top bucket, and a draw landing there
// still costs at most log2(n) + 1 comparisons.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace seer::util {

class Zipf {
 public:
  // `n` — universe size (1 <= n < 2^32); `s` — skew exponent (0 = uniform;
  // 0.99 ~ YCSB-hot).
  Zipf(std::uint64_t n, double s) : n_(n), s_(s) {
    assert(n >= 1 && n < (std::uint64_t{1} << 32));
    cdf_.reserve(static_cast<std::size_t>(n) + 1);
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(acc);
    }
    const double total = acc;
    for (auto& c : cdf_) c /= total;
    cdf_.push_back(std::numeric_limits<double>::infinity());

    // Buckets 0..buckets_ (u * buckets_ can round up to buckets_), then the
    // end of the last one.
    const auto ranks = static_cast<std::size_t>(n);
    buckets_ = std::max(ranks, std::min(kBucketsPerRank * ranks, kMaxFineBuckets));
    guide_.resize(buckets_ + 2);
    std::size_t i = 0;
    for (std::size_t j = 0; j <= buckets_; ++j) {
      while (i < n && bucket(cdf_[i]) < j) ++i;
      guide_[j] = static_cast<std::uint32_t>(i);
    }
    guide_[buckets_ + 1] = static_cast<std::uint32_t>(n);
  }

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double skew() const noexcept { return s_; }

  // Samples a rank in [0, n); rank 0 is the hottest element.
  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng) const noexcept {
    return rank_of(rng.uniform01());
  }

  // The rank a uniform draw u in [0, 1) selects: the first CDF entry >= u,
  // or the last rank when rounding left every entry below u. A binary
  // search narrows u's bucket to one candidate and adds the result of one
  // last compare, so a draw into a bucket of 0–1 entries, the common case,
  // costs one compare and never branches on it.
  [[nodiscard]] std::uint64_t rank_of(double u) const noexcept {
    const std::size_t j = bucket(u);
    const double* base = cdf_.data() + guide_[j];
    for (std::size_t len = guide_[j + 1] - guide_[j]; len > 1; len -= len / 2) {
      if (base[len / 2 - 1] < u) base += len / 2;
    }
    // The first entry >= u is now base or base + 1 (an empty bucket reads
    // the next bucket's first entry, or the sentinel).
    base += *base < u;
    return std::min<std::uint64_t>(static_cast<std::uint64_t>(base - cdf_.data()), n_ - 1);
  }

  // cdf()[k] = P(rank <= k), n entries (diagnostics / tests; a copy
  // without the sentinel).
  [[nodiscard]] std::vector<double> cdf() const { return {cdf_.begin(), cdf_.end() - 1}; }

  // Probability mass of rank k (diagnostics / tests).
  [[nodiscard]] double pmf(std::uint64_t k) const noexcept {
    if (k >= n_) return 0.0;
    const double hi = cdf_[static_cast<std::size_t>(k)];
    const double lo = (k == 0) ? 0.0 : cdf_[static_cast<std::size_t>(k) - 1];
    return hi - lo;
  }

 private:
  // Buckets per rank, and the cap on the bucket count, which never falls
  // below one per rank. Constants, not knobs: no rank depends on them.
  static constexpr std::size_t kBucketsPerRank = 8;
  static constexpr std::size_t kMaxFineBuckets = std::size_t{1} << 19;

  // Guide bucket of a value in [0, 1]: one of buckets_ equal slices, plus
  // bucket buckets_ for 1.0 itself.
  [[nodiscard]] std::size_t bucket(double x) const noexcept {
    return static_cast<std::size_t>(x * static_cast<double>(buckets_));
  }

  std::uint64_t n_;
  double s_;
  std::vector<double> cdf_;  // n entries, then the +inf sentinel
  std::size_t buckets_ = 0;
  std::vector<std::uint32_t> guide_;  // buckets_ + 1 bucket starts, then n
};

}  // namespace seer::util
