#include "transport/endpoint.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "telemetry/metrics.hpp"

namespace dlr::transport {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(Errc code, const char* op) {
  throw TransportError(code, std::string(op) + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno(Errc::Io, "fcntl(O_NONBLOCK)");
}

/// Wait for `events` on fd. deadline == nullopt waits forever. Throws Timeout
/// when the deadline expires and ConnectionClosed on hangup-with-no-data.
void wait_ready(int fd, short events, const std::optional<Clock::time_point>& deadline) {
  for (;;) {
    int wait_ms = -1;
    if (deadline) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(*deadline - Clock::now());
      if (left.count() <= 0) throw TransportError(Errc::Timeout, "deadline expired");
      wait_ms = static_cast<int>(std::min<long long>(left.count(), 1000 * 3600));
    }
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno(Errc::Io, "poll");
    }
    if (rc == 0) {
      if (deadline) continue;  // re-check deadline at loop top
      continue;
    }
    // POLLHUP/POLLERR still allow a final read to drain buffered bytes; let
    // the caller's read()/write() observe EOF/EPIPE and classify it.
    return;
  }
}

}  // namespace

Socket::Socket(int fd) : fd_(fd) {
  if (fd_ >= 0) set_nonblocking(fd_);
}

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
  }
  return *this;
}

Socket::~Socket() { close(); }

std::pair<Socket, Socket> Socket::pair() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) throw_errno(Errc::Io, "socketpair");
  return {Socket(sv[0]), Socket(sv[1])};
}

void Socket::send_all(std::span<const std::uint8_t> data, Millis timeout) {
  if (!valid()) throw TransportError(Errc::ConnectionClosed, "send on closed socket");
  const auto deadline = Clock::now() + timeout;
  std::size_t off = 0;
  while (off < data.size()) {
    const auto k =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_ready(fd_, POLLOUT, deadline);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EPIPE || errno == ECONNRESET))
      throw TransportError(Errc::ConnectionClosed, "peer closed during send");
    throw_errno(Errc::Io, "send");
  }
}

void Socket::recv_exact(std::span<std::uint8_t> out, std::optional<Millis> timeout) {
  if (!valid()) throw TransportError(Errc::ConnectionClosed, "recv on closed socket");
  std::optional<Clock::time_point> deadline;
  if (timeout) deadline = Clock::now() + *timeout;
  std::size_t off = 0;
  while (off < out.size()) {
    const auto k = ::recv(fd_, out.data() + off, out.size() - off, 0);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k == 0) throw TransportError(Errc::ConnectionClosed, "peer closed (EOF)");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(fd_, POLLIN, deadline);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == ECONNRESET)
      throw TransportError(Errc::ConnectionClosed, "connection reset");
    throw_errno(Errc::Io, "recv");
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener Listener::loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(Errc::Io, "socket");
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    throw_errno(Errc::Io, "bind");
  if (::listen(fd, 64) != 0) throw_errno(Errc::Io, "listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno(Errc::Io, "getsockname");
  Listener l;
  l.sock_ = std::move(sock);
  l.port_ = ntohs(addr.sin_port);
  return l;
}

Socket Listener::accept(Millis timeout) {
  if (!sock_.valid()) throw TransportError(Errc::ConnectionClosed, "accept on closed listener");
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      wait_ready(sock_.fd(), POLLIN, deadline);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EINVAL || errno == EBADF)
      throw TransportError(Errc::ConnectionClosed, "listener shut down");
    throw_errno(Errc::Io, "accept");
  }
}

Socket connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(Errc::Io, "socket");
  Socket sock(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // EINTR on a non-blocking connect means the attempt proceeds
  // asynchronously (POSIX) -- treat it exactly like EINPROGRESS.
  int err = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS && errno != EINTR) {
    err = errno;
  } else {
    wait_ready(fd, POLLOUT, Clock::now() + kIoTimeout);
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
  }
  if (err != 0)
    throw TransportError(Errc::Io, "connect 127.0.0.1:" + std::to_string(port) + ": " +
                                       std::strerror(err));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

void FramedConn::send(const Frame& f) {
  const Bytes wire = encode_frame(f);
  static telemetry::Counter& c_frames =
      telemetry::Registry::global().counter("transport.frames.sent");
  static telemetry::Counter& c_bytes =
      telemetry::Registry::global().counter("transport.bytes.sent");
  std::lock_guard lock(send_mu_);
  sock_.send_all(wire, kIoTimeout);
  c_frames.add();
  c_bytes.add(wire.size());
}

void FramedConn::send_many(std::span<const Frame> fs) {
  if (fs.empty()) return;
  if (fs.size() == 1) {
    send(fs.front());
    return;
  }
  Bytes wire;
  for (const Frame& f : fs) {
    const Bytes one = encode_frame(f);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  static telemetry::Counter& c_frames =
      telemetry::Registry::global().counter("transport.frames.sent");
  static telemetry::Counter& c_bytes =
      telemetry::Registry::global().counter("transport.bytes.sent");
  std::lock_guard lock(send_mu_);
  sock_.send_all(wire, kIoTimeout);
  c_frames.add(fs.size());
  c_bytes.add(wire.size());
}

void FramedConn::send_raw(std::span<const std::uint8_t> wire) {
  std::lock_guard lock(send_mu_);
  sock_.send_all(wire, kIoTimeout);
}

Frame FramedConn::recv(std::optional<Millis> timeout) {
  std::uint8_t hdr[kFrameHeaderBytes];
  sock_.recv_exact(hdr, timeout);
  const std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                            static_cast<std::uint32_t>(hdr[1]) << 8 |
                            static_cast<std::uint32_t>(hdr[2]) << 16 |
                            static_cast<std::uint32_t>(hdr[3]) << 24;
  const std::uint32_t crc = static_cast<std::uint32_t>(hdr[4]) |
                            static_cast<std::uint32_t>(hdr[5]) << 8 |
                            static_cast<std::uint32_t>(hdr[6]) << 16 |
                            static_cast<std::uint32_t>(hdr[7]) << 24;
  // Cap check BEFORE the allocation: a corrupt prefix cannot size a buffer.
  check_frame_len(len);
  Bytes payload(len);
  sock_.recv_exact(payload, timeout);
  return decode_checked(crc, payload);
}

}  // namespace dlr::transport
