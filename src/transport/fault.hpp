// Deterministic fault injection for chaos testing the framed transport.
//
// FaultInjector wraps a FramedConn behind the Conn interface and perturbs
// traffic at chosen frame indices: drop, duplicate, delay, truncate
// mid-frame, flip a bit, sever the connection, or hold a frame back one slot
// (reordering). Faults come from a FaultPlan, which is either scripted
// (exact action at exact index, for the refresh-interrupted-at-every-frame
// matrix in service_test) or seeded (splitmix64 over (seed, direction,
// index) against configured rates, for the chaos soak) -- the same seed
// always produces the same fault schedule, so every chaos failure replays.
//
// Outbound faults mutate real bytes on the wire (truncate/bit-flip go
// through FramedConn::send_raw, so the peer's CRC/deframer sees genuine
// corruption). Inbound faults act on received frames before the caller sees
// them. Every injected fault increments a fault.injected.<kind> counter.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "transport/endpoint.hpp"

namespace dlr::transport {

enum class FaultKind : std::uint8_t {
  Pass = 0,
  Drop,           // frame vanishes
  Duplicate,      // frame delivered twice
  Delay,          // frame delivered after `param` ms
  Truncate,       // first `param` wire bytes sent, then the conn is severed
  BitFlip,        // wire bit `param` (mod frame bits) flipped
  Sever,          // connection shut down at this index
  HoldUntilNext,  // frame held back and delivered after the next one (reorder)
};

[[nodiscard]] constexpr const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::Pass: return "pass";
    case FaultKind::Drop: return "drop";
    case FaultKind::Duplicate: return "duplicate";
    case FaultKind::Delay: return "delay";
    case FaultKind::Truncate: return "truncate";
    case FaultKind::BitFlip: return "bitflip";
    case FaultKind::Sever: return "sever";
    case FaultKind::HoldUntilNext: return "hold";
  }
  return "unknown";
}

struct FaultAction {
  FaultKind kind = FaultKind::Pass;
  std::uint32_t param = 0;  // Delay: ms; Truncate: wire bytes; BitFlip: bit index
};

/// Where a fault applies, from the wrapped endpoint's point of view.
enum class Direction : std::uint8_t { Outbound = 0, Inbound = 1 };

class FaultPlan {
 public:
  /// Rates for seeded plans, each the probability (0..1) that a frame at a
  /// given index draws that fault. Evaluated in order drop, duplicate,
  /// delay, bitflip, sever against one uniform draw, so the effective rates
  /// are exactly the configured values.
  struct Rates {
    double drop = 0.0;
    double duplicate = 0.0;
    double delay = 0.0;
    double bitflip = 0.0;
    double sever = 0.0;
    std::uint32_t delay_ms = 2;
  };

  FaultPlan() = default;

  /// Scripted plan: exact action at exact frame index (per direction).
  FaultPlan& at(Direction d, std::uint64_t index, FaultAction a) {
    (d == Direction::Outbound ? out_ : in_)[index] = a;
    return *this;
  }
  FaultPlan& out_at(std::uint64_t index, FaultAction a) {
    return at(Direction::Outbound, index, a);
  }
  FaultPlan& in_at(std::uint64_t index, FaultAction a) {
    return at(Direction::Inbound, index, a);
  }

  /// Seeded plan: deterministic pseudo-random faults at the given rates.
  /// Scripted entries (if any) take precedence at their indices.
  static FaultPlan seeded(std::uint64_t seed, Rates rates) {
    FaultPlan p;
    p.seeded_ = true;
    p.seed_ = seed;
    p.rates_ = rates;
    return p;
  }

  [[nodiscard]] FaultAction action(Direction d, std::uint64_t index) const;

 private:
  std::map<std::uint64_t, FaultAction> out_, in_;
  bool seeded_ = false;
  std::uint64_t seed_ = 0;
  Rates rates_{};
};

/// Conn wrapper applying a FaultPlan to a real FramedConn.
class FaultInjector final : public Conn {
 public:
  FaultInjector(std::shared_ptr<FramedConn> under, FaultPlan plan)
      : under_(std::move(under)), plan_(std::move(plan)) {}

  void send(const Frame& f) override;
  Frame recv(std::optional<Millis> timeout) override;
  /// Also ends an inbound Delay early: the held frame dies with the
  /// connection, so stopping a mux never waits out an injected delay.
  void shutdown() noexcept override;

  /// Total faults injected (both directions) by this wrapper.
  [[nodiscard]] std::uint64_t injected() const {
    std::lock_guard lock(mu_);
    return injected_;
  }

 private:
  void count(FaultKind k);
  void deliver(const Frame& f);  // apply one outbound non-hold action

  std::shared_ptr<FramedConn> under_;
  FaultPlan plan_;
  mutable std::mutex mu_;                // guards all mutable state below
  std::uint64_t out_index_ = 0;
  std::uint64_t in_index_ = 0;
  std::optional<Frame> held_out_;        // HoldUntilNext (outbound)
  std::optional<Frame> held_in_;         // HoldUntilNext (inbound)
  std::deque<Frame> redeliver_;          // inbound duplicates / released holds
  std::uint64_t injected_ = 0;
  std::mutex shut_mu_;                   // guards shut_ (apart from mu_, which an
  std::condition_variable shut_cv_;      // outbound Delay holds while it sleeps)
  bool shut_ = false;
};

}  // namespace dlr::transport
