// A pre-observability (wire v1) svc.* peer for interop tests: a raw loopback
// relay in front of a real server. It answers a versioned svc.hello with
// BadRequest, exactly as a v1 server's decode_hello rejected the trailing
// version byte, and forwards every other frame to the real server and every
// reply back. A v1 peer would also reject a trace envelope, so the relay
// counts every frame that carries one, in either direction; envelopes() must
// stay 0 for a client that negotiated correctly.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/transcript.hpp"
#include "service/protocol.hpp"
#include "transport/endpoint.hpp"

namespace dlr::service {

class LegacyPeer {
 public:
  explicit LegacyPeer(std::uint16_t upstream_port)
      : upstream_port_(upstream_port), listener_(transport::Listener::loopback()) {
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~LegacyPeer() {
    stopping_.store(true);
    listener_.close();
    accept_thread_.join();
    {
      std::lock_guard lk(mu_);
      for (auto& c : conns_) c->shutdown();
    }
    for (auto& t : relays_) t.join();
  }

  LegacyPeer(const LegacyPeer&) = delete;
  LegacyPeer& operator=(const LegacyPeer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// Frames seen carrying a trace envelope (a v1 peer would reject each).
  [[nodiscard]] std::uint64_t envelopes() const { return envelopes_.load(); }
  /// Versioned hellos answered with BadRequest.
  [[nodiscard]] std::uint64_t rejected_hellos() const { return rejected_hellos_.load(); }

 private:
  void accept_loop() {
    while (!stopping_.load()) {
      std::shared_ptr<transport::FramedConn> down, up;
      try {
        down = std::make_shared<transport::FramedConn>(listener_.accept(transport::Millis{100}),
                                                       transport::TransportOptions{});
        up = std::make_shared<transport::FramedConn>(
            transport::connect_loopback(upstream_port_), transport::TransportOptions{});
      } catch (const transport::TransportError& e) {
        if (down) {  // upstream is gone: hang up on the client
          down->shutdown();
          continue;
        }
        if (e.code() == transport::Errc::Timeout) continue;
        return;  // listener closed
      }
      std::lock_guard lk(mu_);
      conns_.push_back(down);
      conns_.push_back(up);
      relays_.emplace_back([this, down, up] { pump(*down, *up, /*from_client=*/true); });
      relays_.emplace_back([this, down, up] { pump(*up, *down, /*from_client=*/false); });
    }
  }

  /// Copy frames from `in` to `out` until either side dies, then take both
  /// down so the opposite pump ends too.
  void pump(transport::Conn& in, transport::Conn& out, bool from_client) {
    try {
      for (;;) {
        transport::Frame f = in.recv_blocking();
        if (f.trace_id != 0) envelopes_.fetch_add(1);
        if (from_client && f.label == kLabelHello && decode_hello(f.body).version != 0) {
          rejected_hellos_.fetch_add(1);
          in.send(transport::Frame{f.session, transport::FrameType::Error,
                                   static_cast<std::uint8_t>(net::DeviceId::P2), kLabelErr,
                                   encode_error(ServiceErrc::BadRequest, 0,
                                                "svc.hello: trailing bytes")});
          continue;
        }
        out.send(f);
      }
    } catch (const std::exception&) {
    }
    in.shutdown();
    out.shutdown();
  }

  std::uint16_t upstream_port_;
  transport::Listener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> envelopes_{0};
  std::atomic<std::uint64_t> rejected_hellos_{0};
  std::mutex mu_;  // guards conns_ and relays_
  std::vector<std::shared_ptr<transport::FramedConn>> conns_;
  std::vector<std::thread> relays_;
  std::thread accept_thread_;
};

}  // namespace dlr::service
