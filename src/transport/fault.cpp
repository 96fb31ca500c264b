#include "transport/fault.hpp"

#include <algorithm>
#include <thread>

#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"

namespace dlr::transport {

namespace {

/// splitmix64 -- tiny, stateless, and plenty for fault scheduling. The
/// transport layer deliberately does not depend on crypto::Rng.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultAction FaultPlan::action(Direction d, std::uint64_t index) const {
  const auto& scripted = (d == Direction::Outbound) ? out_ : in_;
  if (const auto it = scripted.find(index); it != scripted.end()) return it->second;
  if (!seeded_) return {};
  const std::uint64_t word =
      mix64(seed_ ^ mix64(index * 2 + static_cast<std::uint64_t>(d)));
  const double u = static_cast<double>(word >> 11) * 0x1.0p-53;  // [0,1)
  double edge = rates_.drop;
  if (u < edge) return {FaultKind::Drop, 0};
  edge += rates_.duplicate;
  if (u < edge) return {FaultKind::Duplicate, 0};
  edge += rates_.delay;
  if (u < edge) return {FaultKind::Delay, rates_.delay_ms};
  edge += rates_.bitflip;
  if (u < edge) return {FaultKind::BitFlip, static_cast<std::uint32_t>(word >> 32)};
  edge += rates_.sever;
  if (u < edge) return {FaultKind::Sever, 0};
  return {};
}

void FaultInjector::count(FaultKind k) {
  if (k == FaultKind::Pass) return;
  ++injected_;  // caller holds mu_
  telemetry::Registry::global()
      .counter(std::string("fault.injected.") + fault_kind_name(k))
      .add();
  telemetry::event(telemetry::EventKind::FaultInjected,
                   std::string("kind=") + fault_kind_name(k));
}

void FaultInjector::deliver(const Frame& f) {
  // Caller holds mu_; `act` was already counted. Non-hold outbound actions.
  const FaultAction act = plan_.action(Direction::Outbound, out_index_++);
  count(act.kind);
  switch (act.kind) {
    case FaultKind::Drop:
      return;  // vanishes; the peer sees nothing
    case FaultKind::Duplicate:
      under_->send(f);
      under_->send(f);
      return;
    case FaultKind::Delay:
      std::this_thread::sleep_for(Millis{act.param});
      under_->send(f);
      return;
    case FaultKind::Truncate: {
      const Bytes wire = encode_frame(f);
      std::size_t keep = act.param ? act.param : wire.size() / 2;
      keep = std::clamp<std::size_t>(keep, 1, wire.size() - 1);
      under_->send_raw(std::span<const std::uint8_t>(wire.data(), keep));
      under_->shutdown();  // mid-frame cut: peer sees EOF inside a frame
      return;
    }
    case FaultKind::BitFlip: {
      Bytes wire = encode_frame(f);
      const std::size_t bit = act.param % (wire.size() * 8);
      wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      under_->send_raw(wire);
      return;
    }
    case FaultKind::Sever:
      under_->shutdown();
      throw TransportError(Errc::ConnectionClosed, "fault: connection severed on send");
    case FaultKind::Pass:
    case FaultKind::HoldUntilNext:  // handled by send() before deliver()
      under_->send(f);
      return;
  }
}

void FaultInjector::send(const Frame& f) {
  std::lock_guard lock(mu_);
  // Peek the action for THIS index only to catch holds; deliver() consumes
  // the index for everything else.
  if (plan_.action(Direction::Outbound, out_index_).kind == FaultKind::HoldUntilNext) {
    ++out_index_;
    count(FaultKind::HoldUntilNext);
    if (held_out_) {
      const Frame prev = *std::exchange(held_out_, std::nullopt);
      held_out_ = f;
      under_->send(prev);
    } else {
      held_out_ = f;
    }
    return;
  }
  deliver(f);
  if (held_out_) {
    const Frame prev = *std::exchange(held_out_, std::nullopt);
    under_->send(prev);  // released AFTER its successor: the reorder
  }
}

void FaultInjector::shutdown() noexcept {
  {
    std::lock_guard lock(shut_mu_);
    shut_ = true;
  }
  shut_cv_.notify_all();
  under_->shutdown();
}

Frame FaultInjector::recv(std::optional<Millis> timeout) {
  for (;;) {
    {
      std::lock_guard lock(mu_);
      if (!redeliver_.empty()) {
        Frame f = std::move(redeliver_.front());
        redeliver_.pop_front();
        return f;
      }
    }
    Frame f = under_->recv(timeout);  // blocking: do NOT hold mu_ here
    std::unique_lock lock(mu_);
    const FaultAction act = plan_.action(Direction::Inbound, in_index_++);
    count(act.kind);
    switch (act.kind) {
      case FaultKind::Drop:
        continue;  // as if the frame never arrived
      case FaultKind::Duplicate:
        redeliver_.push_back(f);
        break;
      case FaultKind::Delay: {
        lock.unlock();
        std::unique_lock shut(shut_mu_);
        if (shut_cv_.wait_for(shut, Millis{act.param}, [&] { return shut_; }))
          throw TransportError(Errc::ConnectionClosed, "fault: shut down during an inbound delay");
        return f;
      }
      case FaultKind::Truncate:
        under_->shutdown();
        throw TransportError(Errc::Truncated, "fault: inbound frame truncated");
      case FaultKind::BitFlip:
        under_->shutdown();
        throw TransportError(Errc::ChecksumMismatch, "fault: inbound frame corrupted");
      case FaultKind::Sever:
        under_->shutdown();
        throw TransportError(Errc::ConnectionClosed, "fault: connection severed on recv");
      case FaultKind::HoldUntilNext:
        if (held_in_) redeliver_.push_back(*std::exchange(held_in_, std::nullopt));
        held_in_ = std::move(f);
        continue;  // surfaces after the NEXT inbound frame
      case FaultKind::Pass:
        break;
    }
    if (held_in_) redeliver_.push_back(*std::exchange(held_in_, std::nullopt));
    return f;
  }
}

}  // namespace dlr::transport
