// Summary statistics for the repo benchmark: nearest-rank percentiles with
// the "ten samples beyond" rule, medians, and quartiles computed exactly as
// Python's statistics.quantiles(values, n=4) does (method "exclusive"), so
// the spread the C++ side reports matches the one the Python tooling checks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "seeded.hpp"

namespace dlrbench {

/// Samples a tail percentile needs beyond it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// 0-based index of the nearest-rank p-percentile of n sorted samples: the
/// smallest sample with at least a fraction p of all samples at or below it.
inline std::size_t rank_index(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("rank_index: no samples");
  // The epsilon keeps p * n = 990.0000000001 (binary rounding) at rank 990.
  auto k = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  k = std::clamp<std::size_t>(k, 1, n);
  return k - 1;
}

/// Samples strictly above the nearest-rank p-percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - 1 - rank_index(n, p);
}

/// True when the p-percentile of n samples has at least kMinBeyond samples
/// beyond it (p99 needs n >= 1000).
inline bool tail_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinBeyond;
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentile(const std::vector<double>& sorted, double p) {
  return sorted.at(rank_index(sorted.size(), p));
}

/// Median; the mean of the two middle samples for an even count.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median: no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};

/// statistics.quantiles(v, n=4) with the default "exclusive" method: cut
/// point i sits at position i * (len + 1) / 4 (1-based), linearly
/// interpolated, with the position clamped into [1, len - 1].
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles: need at least two samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// benchmark's bounds are checked against.
inline double relative_spread(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  const double med = median(v);
  return med == 0 ? 0 : (q.q3 - q.q1) / std::fabs(med);
}

/// Fixed-capacity uniform sample of a stream (Vitter's algorithm R). The
/// storage is allocated and written up front, so the process's memory does
/// not depend on how many samples a window produces; past `cap` samples each
/// new one replaces a seeded-random slot with probability cap / seen.
class Reservoir {
 public:
  Reservoir(std::size_t cap, std::uint64_t seed) : buf_(cap, 0.0), state_(seed) {}

  void push_back(double v) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = v;
    } else {
      const std::uint64_t j = splitmix64(state_) % (seen_ + 1);
      if (j < buf_.size()) buf_[j] = v;
    }
    ++seen_;
  }

  [[nodiscard]] std::size_t seen() const { return seen_; }
  [[nodiscard]] std::size_t kept() const { return std::min<std::size_t>(seen_, buf_.size()); }
  [[nodiscard]] const double* begin() const { return buf_.data(); }
  [[nodiscard]] const double* end() const { return buf_.data() + kept(); }

 private:
  std::vector<double> buf_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
};

}  // namespace dlrbench
