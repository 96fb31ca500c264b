// Structured event log -- pillar 4 of the telemetry layer (DESIGN.md §10).
//
// A bounded, thread-safe ring of typed events recording the service's
// decision points: epoch prepare/commit/rollback, reconciliation verdicts,
// fault injections, client retries and reconnects, drain timeouts, journal
// recoveries, and slow requests. Metrics say *how much*; the event log says
// *what happened, in what order* -- which is what makes a failed
// DLR_CHAOS_SEED soak diagnosable from one artifact instead of a rerun.
//
// Events are cheap (one mutex, one string move), bounded (the ring keeps the
// newest kCapacity events; total() exposes how many were ever emitted so
// overflow is visible), and trace-correlated (each event captures the trace
// id of the thread's open span at emission, if any). The admin endpoint
// serves dump_jsonl(); the test listener auto-dumps it on failure.
//
// With -DDLR_TELEMETRY=OFF everything collapses to inline no-ops.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"  // DLR_TELEMETRY_ENABLED

namespace dlr::telemetry {

enum class EventKind : std::uint8_t {
  EpochPrepare,
  EpochCommit,
  EpochRollback,
  Reconcile,        // reconnect reconciliation verdict
  FaultInjected,    // transport fault injector fired
  Retry,            // client retried a request
  Reconnect,        // client re-dialed the server
  JournalRecovery,  // runtime resolved a pending refresh from its journal
  SlowRequest,      // server-side request latency over threshold
  Shed,             // server turned a request away (overload / deadline)
  BreakerOpen,      // client circuit breaker tripped open
  BreakerClose,     // client circuit breaker probe succeeded; closed again
  Migrate,          // live-resharding hand-off step (DESIGN.md §14)
};

/// Stable kebab-case name ("epoch-commit", "slow-request", ...).
[[nodiscard]] const char* event_kind_name(EventKind k);

struct Event {
  std::uint64_t seq = 0;    // 1-based global emission order
  EventKind kind = EventKind::EpochPrepare;
  std::int64_t t_ns = 0;    // tracer's process-local monotonic epoch
  std::uint64_t trace_id = 0;  // trace active on the emitting thread; 0 = none
  std::string detail;       // free-form "k=v k=v" context
};

#if DLR_TELEMETRY_ENABLED

class EventLog {
 public:
  [[nodiscard]] static EventLog& global();

  /// Record an event. Captures timestamp and the emitting thread's current
  /// trace id automatically.
  void emit(EventKind kind, std::string detail);

  /// Retained window, oldest first.
  [[nodiscard]] std::vector<Event> events() const;
  /// Events ever emitted (> kCapacity means the ring wrapped).
  [[nodiscard]] std::uint64_t total() const;
  void reset();

  /// One JSON object per retained event -- the admin `adm.events` payload and
  /// the on-failure test artifact.
  [[nodiscard]] std::string dump_jsonl() const;

  static constexpr std::size_t kCapacity = 4096;

 private:
  mutable std::mutex mu_;
  std::vector<Event> ring_;  // ring_[seq % kCapacity] once full
  std::uint64_t total_ = 0;
};

/// Free-function shorthand: telemetry::event(EventKind::Retry, "attempt=2").
inline void event(EventKind kind, std::string detail) {
  EventLog::global().emit(kind, std::move(detail));
}

#else  // !DLR_TELEMETRY_ENABLED

class EventLog {
 public:
  [[nodiscard]] static EventLog& global() {
    static EventLog e;
    return e;
  }
  void emit(EventKind, std::string) {}
  [[nodiscard]] std::vector<Event> events() const { return {}; }
  [[nodiscard]] std::uint64_t total() const { return 0; }
  void reset() {}
  [[nodiscard]] std::string dump_jsonl() const { return {}; }
  static constexpr std::size_t kCapacity = 0;
};

inline void event(EventKind, std::string) {}

#endif  // DLR_TELEMETRY_ENABLED

}  // namespace dlr::telemetry
