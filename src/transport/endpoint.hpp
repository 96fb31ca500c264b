// Blocking-style socket endpoints with poll()-based deadlines.
//
// Every file descriptor here is non-blocking under the hood; send_all /
// recv_exact loop poll()+read/write so each call honours a deadline and
// surfaces Timeout / ConnectionClosed / Io as typed TransportErrors.
// connect_loopback dials once: a caller that wants another attempt retries
// on its own schedule (service::RetryCore for the P1 clients, the migration
// loop for peer shards).
//
// FramedConn layers the frame codec on a Socket: writes are mutex-serialized
// so many worker threads can reply over one shared connection, reads are
// single-consumer (one reader/pump thread per connection, the SessionMux
// pattern). shutdown() from any thread wakes a blocked reader with
// ConnectionClosed, which is the orderly way to stop a pump thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "transport/frame.hpp"

namespace dlr::transport {

using Millis = std::chrono::milliseconds;

/// Bound on one frame's send, on a connect's handshake and on a one-shot
/// reply wait (AdminClient::fetch). Request replies wait the caller's own
/// timeout instead.
inline constexpr Millis kIoTimeout{10000};

/// RAII non-blocking socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd);
  Socket(Socket&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  /// Connected AF_UNIX stream pair (same-host two-process setups).
  static std::pair<Socket, Socket> pair();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Write the whole span before `timeout` elapses, else Timeout.
  void send_all(std::span<const std::uint8_t> data, Millis timeout);
  /// Read exactly out.size() bytes; EOF mid-read is ConnectionClosed.
  /// timeout == nullopt blocks indefinitely (used by pump threads, which are
  /// woken by shutdown()).
  void recv_exact(std::span<std::uint8_t> out, std::optional<Millis> timeout);

  /// Wake any blocked reader/writer on this fd with ConnectionClosed.
  /// Safe to call from another thread while recv/send are in flight.
  void shutdown_both() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Loopback TCP listener (port 0 = ephemeral; port() reports the binding).
class Listener {
 public:
  Listener() = default;
  static Listener loopback(std::uint16_t port = 0);
  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&&) noexcept = default;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool valid() const { return sock_.valid(); }

  /// Accept one connection; throws Timeout if none arrives in time and
  /// ConnectionClosed once close()/shutdown() has been called.
  Socket accept(Millis timeout);

  void close() noexcept { sock_.shutdown_both(); }

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connect to 127.0.0.1:port: one dial, waiting at most kIoTimeout for the
/// handshake. A refused or failed dial throws Io at once; a handshake that
/// outlasts the bound throws Timeout.
Socket connect_loopback(std::uint16_t port);

/// Frame-granular connection interface. FramedConn is the real socket
/// implementation; FaultInjector (transport/fault.hpp) wraps one to inject
/// deterministic failures. SessionMux and the service layer program against
/// this interface so chaos tests swap transports without touching them.
class Conn {
 public:
  virtual ~Conn() = default;

  virtual void send(const Frame& f) = 0;
  /// Send several frames back-to-back. The default loops send() per frame;
  /// implementations may coalesce into fewer writes, but the byte stream must
  /// be identical to the sequential sends. Wrappers that fault or count per
  /// frame (FaultInjector) keep the per-frame default on purpose.
  virtual void send_many(std::span<const Frame> fs) {
    for (const Frame& f : fs) send(f);
  }
  /// timeout == nullopt blocks indefinitely (pump threads, woken by
  /// shutdown()).
  virtual Frame recv(std::optional<Millis> timeout) = 0;
  /// Block until a frame arrives or the connection dies (pump threads).
  Frame recv_blocking() { return recv(std::nullopt); }

  virtual void shutdown() noexcept = 0;
};

/// Frame-granular connection over a Socket. Thread-safe concurrent send(),
/// each bounded by kIoTimeout; recv() is single-consumer and rejects a
/// length prefix above kMaxFrameBytes before allocating.
class FramedConn : public Conn {
 public:
  explicit FramedConn(Socket sock) : sock_(std::move(sock)) {}

  void send(const Frame& f) override;
  /// Encodes every frame into one buffer and writes it with a single
  /// send_all under the send mutex -- one syscall (and one wakeup on the
  /// peer's poller) per batch instead of one per reply.
  void send_many(std::span<const Frame> fs) override;
  Frame recv(std::optional<Millis> timeout) override;

  /// Write raw bytes as-is (no frame header, no CRC). Exists solely so the
  /// fault injector can put malformed data on the wire; honest peers never
  /// call this.
  void send_raw(std::span<const std::uint8_t> wire);

  void shutdown() noexcept override { sock_.shutdown_both(); }

 private:
  Socket sock_;
  std::mutex send_mu_;
};

}  // namespace dlr::transport
