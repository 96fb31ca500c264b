// Seeded workload shaping for the repo benchmark: splitmix64, a Zipf(s)
// sampler over ranks and a Fisher-Yates shuffle. Kept apart from
// crypto::Rng so shaping a workload never consumes protocol coins: the same
// --seed replays the same key sequence and request order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace dlrbench {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Zipf(s) over ranks 0..n-1 (rank 0 hottest), P(k) proportional to
/// 1/(k+1)^s, sampled by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t seed) : state_(seed ^ 0x21f0aa11ULL) {
    cdf_.reserve(n);
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
  }

  [[nodiscard]] std::size_t next() {
    const double u =
        static_cast<double>(splitmix64(state_) >> 11) * 0x1.0p-53 * cdf_.back();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
  std::uint64_t state_;
};

/// Seeded Fisher-Yates (std::shuffle's output is implementation-defined).
template <class T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5eed5eedULL;
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[splitmix64(state) % i]);
}

}  // namespace dlrbench
