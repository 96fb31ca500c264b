// MuxChannel -- the adapter that makes a mux session look like the in-process
// net::Channel, so scheme protocol code (Bytes-in/Bytes-out party methods
// driven through a recording channel) runs over a real socket unchanged.
//
//   * send(from, ...) with from == the local device transmits the message as
//     a Data frame AND records it in the transcript (the public-channel
//     contract of Section 3.2 -- both directions appear in comm^t). The frame
//     carries the sending thread's current trace context (DESIGN.md §10).
//   * recv() blocks for the peer's next frame, records it in the transcript
//     under the peer's device id, and returns the body by reference exactly
//     like the in-process Channel::send does for the consuming side.
//
// An Error frame received where a Data frame was expected surfaces as a
// TransportError(Protocol) carrying the frame's label+body in what() -- the
// service layer decodes richer errors itself before they reach this point.
#pragma once

#include "net/transcript.hpp"
#include "telemetry/trace.hpp"
#include "transport/mux.hpp"

namespace dlr::transport {

class MuxChannel final : public net::Channel {
 public:
  MuxChannel(SessionMux::Session& session, net::DeviceId local)
      : session_(session), local_(local) {}

  [[nodiscard]] net::DeviceId local() const { return local_; }
  [[nodiscard]] net::DeviceId peer() const {
    return local_ == net::DeviceId::P1 ? net::DeviceId::P2 : net::DeviceId::P1;
  }

  /// Trace envelope of the last received frame (empty if the peer sent none).
  [[nodiscard]] telemetry::TraceContext last_trace() const { return last_trace_; }

  /// Local messages go over the wire and into the transcript; a message
  /// attributed to the peer is record-only (it already traveled -- this arm
  /// exists so in-process driver code that replays both sides still works).
  const Bytes& send(net::DeviceId from, std::string label, Bytes body) override {
    if (from == local_)
      session_.send(FrameType::Data, static_cast<std::uint8_t>(from), label, body,
                    telemetry::Tracer::global().current());
    return record(from, std::move(label), std::move(body));
  }

  /// Receive the peer's next protocol message; records it and returns the
  /// body for consumption (mirror of the in-process rendezvous).
  const Bytes& recv(std::optional<Millis> timeout = std::nullopt) {
    Frame f = session_.recv(timeout);
    if (f.type != FrameType::Data)
      throw TransportError(Errc::Protocol,
                           "expected Data frame, got type " +
                               std::to_string(static_cast<int>(f.type)) + " label '" +
                               f.label + "'");
    last_trace_ = telemetry::TraceContext{f.trace_id, f.parent_span};
    const auto from = f.from == 0 ? peer() : static_cast<net::DeviceId>(f.from);
    return record(from, std::move(f.label), std::move(f.body));
  }

 private:
  SessionMux::Session& session_;
  net::DeviceId local_;
  telemetry::TraceContext last_trace_;
};

}  // namespace dlr::transport
