// Zipf-distributed sampling over a finite universe [0, n).
//
// The STAMP stand-in workloads use Zipfian access skew to model hot data
// (e.g. popular customers in vacation, frequent flows in intruder). For the
// universe sizes involved (up to a few hundred thousand lines) a precomputed
// inverse-CDF table is both exact and fast to sample from.
//
// A guide table over the CDF (Chen & Asau's indexed search) narrows each
// draw to one bucket's CDF entries — about one on average — instead of a
// binary search over all n ranks, and returns the same rank for the same
// uniform draw: guide_[j] counts the CDF entries whose bucket lies below j,
// and bucket() is monotone, so for u in bucket j every entry before
// guide_[j] is < u and the entry at guide_[j + 1], if any, is >= u.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace seer::util {

class Zipf {
 public:
  // `n` — universe size (1 <= n < 2^32); `s` — skew exponent (0 = uniform;
  // 0.99 ~ YCSB-hot).
  Zipf(std::uint64_t n, double s) : n_(n), s_(s) {
    assert(n >= 1 && n < (std::uint64_t{1} << 32));
    cdf_.reserve(static_cast<std::size_t>(n));
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(acc);
    }
    const double total = acc;
    for (auto& c : cdf_) c /= total;

    // Buckets 0..n (u * n can round up to n), plus an end marker so that
    // guide_[j + 1] exists for every bucket j.
    guide_.resize(cdf_.size() + 2);
    std::size_t i = 0;
    for (std::size_t j = 0; j < guide_.size(); ++j) {
      while (i < cdf_.size() && bucket(cdf_[i]) < j) ++i;
      guide_[j] = static_cast<std::uint32_t>(i);
    }
  }

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double skew() const noexcept { return s_; }

  // Samples a rank in [0, n); rank 0 is the hottest element.
  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng) const noexcept {
    return rank_of(rng.uniform01());
  }

  // The rank a uniform draw u in [0, 1) selects: the first CDF entry >= u,
  // or the last rank when rounding left every entry below u.
  [[nodiscard]] std::uint64_t rank_of(double u) const noexcept {
    const std::size_t j = bucket(u);
    const auto first = cdf_.begin() + guide_[j];
    const auto end = cdf_.begin() + guide_[j + 1];
    const auto i =
        static_cast<std::size_t>(std::lower_bound(first, end, u) - cdf_.begin());
    return static_cast<std::uint64_t>(std::min(i, cdf_.size() - 1));
  }

  // cdf()[k] = P(rank <= k) (diagnostics / tests).
  [[nodiscard]] const std::vector<double>& cdf() const noexcept { return cdf_; }

  // Probability mass of rank k (diagnostics / tests).
  [[nodiscard]] double pmf(std::uint64_t k) const noexcept {
    if (k >= n_) return 0.0;
    const double hi = cdf_[static_cast<std::size_t>(k)];
    const double lo = (k == 0) ? 0.0 : cdf_[static_cast<std::size_t>(k) - 1];
    return hi - lo;
  }

 private:
  // Guide bucket of a value in [0, 1]: one of cdf_.size() equal slices,
  // plus bucket cdf_.size() for 1.0 itself.
  [[nodiscard]] std::size_t bucket(double x) const noexcept {
    return static_cast<std::size_t>(x * static_cast<double>(cdf_.size()));
  }

  std::uint64_t n_;
  double s_;
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
};

}  // namespace seer::util
