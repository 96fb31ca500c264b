#include "telemetry/events.hpp"

#include "telemetry/export.hpp"  // json_escape
#include "telemetry/trace.hpp"

namespace dlr::telemetry {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::EpochPrepare: return "epoch-prepare";
    case EventKind::EpochCommit: return "epoch-commit";
    case EventKind::EpochRollback: return "epoch-rollback";
    case EventKind::Reconcile: return "reconcile";
    case EventKind::FaultInjected: return "fault-injected";
    case EventKind::Retry: return "retry";
    case EventKind::Reconnect: return "reconnect";
    case EventKind::JournalRecovery: return "journal-recovery";
    case EventKind::SlowRequest: return "slow-request";
    case EventKind::Shed: return "shed";
    case EventKind::BreakerOpen: return "breaker-open";
    case EventKind::BreakerClose: return "breaker-close";
    case EventKind::Migrate: return "migrate";
  }
  return "unknown";
}

#if DLR_TELEMETRY_ENABLED

EventLog& EventLog::global() {
  static EventLog e;
  return e;
}

void EventLog::emit(EventKind kind, std::string detail) {
  Event ev;
  ev.kind = kind;
  ev.t_ns = trace_now_ns();
  ev.trace_id = Tracer::global().current().trace_id;
  ev.detail = std::move(detail);
  std::lock_guard<std::mutex> lk(mu_);
  ev.seq = ++total_;
  if (ring_.size() < kCapacity) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[(ev.seq - 1) % kCapacity] = std::move(ev);
  }
}

std::vector<Event> EventLog::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (total_ <= ring_.size()) return ring_;
  // Ring wrapped: unroll oldest-first starting at the slot the next emit
  // would overwrite.
  std::vector<Event> out;
  out.reserve(ring_.size());
  const std::size_t head = static_cast<std::size_t>(total_ % kCapacity);
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head + i) % kCapacity]);
  return out;
}

std::uint64_t EventLog::total() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

void EventLog::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.clear();
  total_ = 0;
}

std::string EventLog::dump_jsonl() const {
  std::string out;
  for (const auto& e : events()) {
    out += "{\"type\":\"event\",\"seq\":" + std::to_string(e.seq) + ",\"t_ns\":" +
           std::to_string(e.t_ns) + ",\"kind\":\"" + event_kind_name(e.kind) +
           "\",\"trace\":" + std::to_string(e.trace_id) + ",\"detail\":\"" +
           json_escape(e.detail) + "\"}\n";
  }
  return out;
}

#endif  // DLR_TELEMETRY_ENABLED

}  // namespace dlr::telemetry
