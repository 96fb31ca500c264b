// Session multiplexing: many logical channels over one FramedConn.
//
// A SessionMux owns the connection's single reader ("pump") thread. Incoming
// frames are routed by session id into per-session queues; a Session handle
// is the receive end of one queue plus a send path that stamps its id on
// outgoing frames. When the connection dies (peer close, checksum failure,
// shutdown) every open session is poisoned with the terminal error, and every
// session opened later starts poisoned with it, so no receiver can block
// forever and none waits out its timeout on a dead connection.
//
// Sends from any thread are safe (FramedConn serializes writers); each
// Session's recv() is single-consumer. Frames for unknown sessions are
// dropped and counted (transport.orphan_frames) -- responses racing a client
// that gave up are expected in a soft-teardown world, not an error.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "telemetry/trace.hpp"
#include "transport/endpoint.hpp"

namespace dlr::transport {

class SessionMux {
  struct SessionState {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Frame> queue;
    bool poisoned = false;
    Errc poison_code = Errc::SessionClosed;
    std::string poison_what;
  };

 public:
  /// Receive/send handle for one logical session. Destroying the handle
  /// unregisters the session; late frames for it become orphans.
  class Session {
   public:
    Session(SessionMux* mux, std::uint32_t id, std::shared_ptr<SessionState> st)
        : mux_(mux), id_(id), st_(std::move(st)) {}
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session() { mux_->unregister(id_); }

    [[nodiscard]] std::uint32_t id() const { return id_; }

    void send(FrameType type, std::uint8_t from, std::string label, Bytes body) {
      send(type, from, std::move(label), std::move(body), telemetry::TraceContext{});
    }

    /// Traced send: stamp `ctx` into the frame's trace envelope. An empty
    /// context sends no envelope (see frame.hpp).
    void send(FrameType type, std::uint8_t from, std::string label, Bytes body,
              telemetry::TraceContext ctx) {
      Frame f{id_, type, from, std::move(label), std::move(body)};
      f.trace_id = ctx.trace_id;
      f.parent_span = ctx.span_id;
      mux_->conn().send(f);
    }

    /// Next frame for this session; throws the mux's terminal TransportError
    /// once poisoned and Timeout if `timeout` elapses first.
    Frame recv(std::optional<Millis> timeout = std::nullopt);

   private:
    SessionMux* mux_;
    std::uint32_t id_;
    std::shared_ptr<SessionState> st_;
  };

  /// Takes ownership of the connection and starts the pump thread. Accepts
  /// any Conn implementation (real FramedConn or a FaultInjector wrapper).
  explicit SessionMux(std::shared_ptr<Conn> conn);
  ~SessionMux() { stop(); }
  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  /// Open a session with a fresh id (client side; ids count up from 1).
  [[nodiscard]] std::unique_ptr<Session> open();
  /// Open a session with an agreed-upon id (both ends of a static pairing).
  [[nodiscard]] std::unique_ptr<Session> open_with_id(std::uint32_t id);

  [[nodiscard]] Conn& conn() { return *conn_; }
  [[nodiscard]] std::uint64_t orphaned() const { return orphans_.load(); }

  /// Shut the connection down, join the pump, poison all sessions. Idempotent.
  void stop();

 private:
  friend class Session;
  void pump();
  void poison_all(Errc code, const std::string& what);
  /// Register a new session under `id`; it starts poisoned on a dead mux.
  /// Caller holds mu_.
  [[nodiscard]] std::unique_ptr<Session> add_locked(std::uint32_t id);
  void unregister(std::uint32_t id);

  std::shared_ptr<Conn> conn_;
  std::mutex mu_;  // guards sessions_, next_id_ and the terminal error
  std::map<std::uint32_t, std::shared_ptr<SessionState>> sessions_;
  std::uint32_t next_id_ = 1;
  bool dead_ = false;  // the pump exited or stop() ran: dead_code_/dead_what_ hold why
  Errc dead_code_ = Errc::SessionClosed;
  std::string dead_what_;
  std::atomic<std::uint64_t> orphans_{0};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  // serializes stop(); guards stopped_
  bool stopped_ = false;
  std::thread pump_thread_;
};

}  // namespace dlr::transport
