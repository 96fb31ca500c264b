// Shared helpers for the experiment binaries: fixed-width table printing and
// wall-clock timing of protocol-level operations (google-benchmark is used
// for the microbenchmarks; the table experiments print paper-style rows).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/export.hpp"

namespace dlr::bench {

/// Bench-side deterministic randomness (splitmix64). Kept separate from
/// crypto::Rng so workload shaping never consumes protocol coins -- two runs
/// with the same --seed replay the same request schedule bit for bit.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from splitmix64 output.
inline double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Deterministic Zipf(s) sampler over ranks {0..n-1} (rank 0 hottest):
/// P(k) ∝ 1/(k+1)^s, drawn by inverse CDF over a precomputed table, so a
/// 10k-key keyspace samples in O(log n) with no rejection loop. Seeded --
/// the same (n, s, seed) replays the same key sequence.
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t seed) : state_(seed ^ 0x5a17f00dULL) {
    cdf_.reserve(n);
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
  }

  [[nodiscard]] std::size_t next() {
    const double u = uniform01(state_) * cdf_.back();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  std::uint64_t state_;
};

/// Seeded Fisher-Yates shuffle (workload orders must replay under --seed;
/// std::shuffle's distribution is implementation-defined).
template <class T>
inline void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x0ddc0ffeeULL;
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[splitmix64(state) % i]);
}

/// Value of a `--<name> N` u64 flag; `def` if absent.
inline std::uint64_t u64_flag(int argc, char** argv, const char* name,
                              std::uint64_t def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0)
      return std::strtoull(argv[i + 1], nullptr, 10);
  return def;
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], r[c].size());

    auto line = [&] {
      std::string s = "+";
      for (auto w : width) s += std::string(w + 2, '-') + "+";
      std::printf("%s\n", s.c_str());
    };
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::string s = "|";
      for (std::size_t c = 0; c < width.size(); ++c) {
        const std::string& v = c < cells.size() ? cells[c] : std::string{};
        s += " " + v + std::string(width[c] - v.size(), ' ') + " |";
      }
      std::printf("%s\n", s.c_str());
    };
    line();
    print_row(headers_);
    line();
    for (const auto& r : rows_) print_row(r);
    line();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// DLR_BENCH_RUNS environment override for time_ms run counts (0 = unset).
/// Lets telemetry-driven comparisons raise the sample count without touching
/// per-call-site defaults.
inline int env_runs_override() {
  if (const char* e = std::getenv("DLR_BENCH_RUNS")) {
    const int v = std::atoi(e);
    if (v > 0) return v;
  }
  return 0;
}

/// min/median/max of the timed runs, in milliseconds. The median is the
/// headline number (robust to a straggler run); min and max bound the spread
/// so a row with heavy jitter is visible as such instead of silently
/// averaged away.
struct TimeStats {
  double min = 0;
  double med = 0;
  double max = 0;
};

/// Wall-time samples over `runs` runs, after one discarded warmup run
/// (caches/branch predictors/lazy per-period state settle before the first
/// sample). A compiler barrier after each run keeps the optimizer from
/// eliding result computations whose values the timed lambda discards.
/// DLR_BENCH_RUNS overrides `runs` when set.
inline TimeStats time_stats(const std::function<void()>& fn, int runs = 3) {
  if (const int env = env_runs_override()) runs = env;
  if (runs < 1) runs = 1;
  fn();  // warmup, discarded
  asm volatile("" ::: "memory");
  std::vector<double> samples;
  samples.reserve(runs);
  for (int i = 0; i < runs; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    asm volatile("" ::: "memory");
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return TimeStats{samples.front(), samples[samples.size() / 2], samples.back()};
}

/// Median-of-runs wall time in milliseconds (time_stats().med).
inline double time_ms(const std::function<void()>& fn, int runs = 3) {
  return time_stats(fn, runs).med;
}

/// Opaque consumer: forces the compiler to materialize v inside timed code.
template <class T>
inline void sink(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_bytes(std::size_t b) {
  char buf[64];
  if (b >= 1024 * 1024)
    std::snprintf(buf, sizeof(buf), "%.1f MiB", static_cast<double>(b) / (1024 * 1024));
  else if (b >= 1024)
    std::snprintf(buf, sizeof(buf), "%.1f KiB", static_cast<double>(b) / 1024);
  else
    std::snprintf(buf, sizeof(buf), "%zu B", b);
  return buf;
}

inline void banner(const std::string& title, const std::string& source) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("    (reproduces: %s)\n\n", source.c_str());
}

/// Value of a `--json <path>` / `--json=<path>` flag; empty if absent.
inline std::string json_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) return argv[i + 1];
    if (a.rfind("--json=", 0) == 0) return a.substr(7);
  }
  return {};
}

/// Dump the global telemetry registry's counters, gauges and histograms to
/// `path` as JSON lines (works -- with empty content -- in a
/// DLR_TELEMETRY=OFF build, so the flag never breaks). Spans stay out:
/// bench_diff compares metrics only, and a span dump would swamp a committed
/// baseline.
inline void export_json(const std::string& path, const std::string& bench) {
  const std::string body = telemetry::to_jsonl(telemetry::ExportMeta{bench},
                                               telemetry::Registry::global().snapshot(), {});
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr && std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (ok)
    std::printf("\ntelemetry: wrote %s\n", path.c_str());
  else
    std::fprintf(stderr, "\ntelemetry: FAILED to write %s\n", path.c_str());
}

/// export_json to the `--json` path, if the user passed one.
inline void export_json_if_requested(int argc, char** argv, const std::string& bench) {
  const std::string path = json_flag(argc, argv);
  if (!path.empty()) export_json(path, bench);
}

}  // namespace dlr::bench
