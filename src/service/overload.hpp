// Overload accounting for the decryption server (DESIGN.md §13).
//
// One OverloadGovernor per server instance tracks an EWMA of the per-item
// crypto cost (updated by the crypto workers after every batch) and turns
// the current queue depth into a retry-after hint:
//
//   retry_after_ms ~= queue_depth * ewma_cost_us / workers / 1000
//
// i.e. "how long until the backlog ahead of you would have drained" --
// clamped to [1, kHintCapMs] so a shed response always carries a nonzero,
// bounded hint. Before the first sample a conservative default cost stands
// in, so the very first shed of a cold server still hints something sane.
//
// The governor also decides DEGRADED mode: queue depth at or above
// kHighWater * queue_cap. Degraded servers deprioritize background refresh
// traffic (PREPAREs answered with retryable Overloaded) before they shed
// decrypts -- availability degrades before the leakage budget does; the
// keystore carves out keys whose spent fraction crossed the refresh floor
// (see KsServer), which are refreshed no matter what.
//
// Shed decisions are counted twice: in the process-global telemetry registry
// (svc.shed.*) and in local atomics the admin health section reads without
// touching any lock (PR 5 scrape rule).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "telemetry/metrics.hpp"

namespace dlr::service {

class OverloadGovernor {
 public:
  struct Options {
    int workers = 4;               // crypto parallelism the hint divides by
    std::size_t queue_cap = 1024;  // the queue the depth is measured against
  };

  static constexpr double kHighWater = 0.75;       // depth/cap fraction that enters degraded
  static constexpr std::uint32_t kHintCapMs = 2000;  // retry-after ceiling
  static constexpr double kDefaultCostUs = 500.0;  // per-item cost before the first sample
  static constexpr double kAlpha = 0.2;            // EWMA smoothing factor

  explicit OverloadGovernor(Options opt) : opt_(opt) {
    if (opt_.workers < 1) opt_.workers = 1;
    if (opt_.queue_cap == 0) opt_.queue_cap = 1;
  }

  /// Crypto worker: fold one batch's measured cost into the EWMA.
  void record_batch(std::size_t items, double total_us) {
    if (items == 0) return;
    const double per_item = total_us / static_cast<double>(items);
    double prev = cost_us_.load(std::memory_order_relaxed);
    for (;;) {
      const double next = prev <= 0.0 ? per_item : prev + kAlpha * (per_item - prev);
      if (cost_us_.compare_exchange_weak(prev, next, std::memory_order_relaxed)) break;
    }
  }

  /// Smoothed per-item crypto cost in microseconds (default until sampled).
  [[nodiscard]] double cost_us() const {
    const double c = cost_us_.load(std::memory_order_relaxed);
    return c > 0.0 ? c : kDefaultCostUs;
  }

  /// Server-computed backoff hint for a request shed at `queue_depth`:
  /// the estimated drain time of the backlog, never 0, never absurd.
  [[nodiscard]] std::uint32_t retry_after_ms(std::size_t queue_depth) const {
    const double drain_ms = static_cast<double>(queue_depth) * cost_us() /
                            static_cast<double>(opt_.workers) / 1000.0;
    const auto ms = static_cast<std::uint64_t>(drain_ms) + 1;  // ceil-ish, >= 1
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(ms, kHintCapMs));
  }

  /// Sustained-overload gate for graceful degradation (refresh
  /// deprioritization). Distinct from the hard shed at queue_cap: the server
  /// starts turning away background work while decrypts still fit.
  [[nodiscard]] bool degraded(std::size_t queue_depth) const {
    return static_cast<double>(queue_depth) >=
           kHighWater * static_cast<double>(opt_.queue_cap);
  }

  void count_shed_overload() {
    shed_overload_.fetch_add(1, std::memory_order_relaxed);
    static telemetry::Counter& c = telemetry::Registry::global().counter("svc.shed.overload");
    c.add();
  }
  void count_shed_deadline() {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    static telemetry::Counter& c = telemetry::Registry::global().counter("svc.shed.deadline");
    c.add();
  }
  void count_shed_refresh() {
    shed_refresh_.fetch_add(1, std::memory_order_relaxed);
    static telemetry::Counter& c = telemetry::Registry::global().counter("svc.shed.refresh");
    c.add();
  }

  [[nodiscard]] std::uint64_t shed_overload() const {
    return shed_overload_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shed_deadline() const {
    return shed_deadline_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shed_refresh() const {
    return shed_refresh_.load(std::memory_order_relaxed);
  }

 private:
  Options opt_;
  std::atomic<double> cost_us_{0.0};  // 0 = no sample yet
  std::atomic<std::uint64_t> shed_overload_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> shed_refresh_{0};
};

}  // namespace dlr::service
