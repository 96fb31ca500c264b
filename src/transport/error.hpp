// Typed error taxonomy for the wire transport.
//
// Every failure mode of the framed socket layer surfaces as a TransportError
// carrying a machine-checkable Errc -- never std::abort(), never a raw errno
// escape. Callers branch on code(): Timeout and Io (a refused dial among
// them) are transient-infrastructure failures that the caller's own retry
// loop may try again, ConnectionClosed ends a peer session, and the codec
// codes (FrameTooLarge/Malformed/ChecksumMismatch/Truncated) indicate a
// corrupt or hostile byte stream that must be dropped.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dlr::transport {

enum class Errc : std::uint8_t {
  FrameTooLarge = 1,   // length prefix exceeds the hard cap (kMaxFrameBytes)
  Malformed = 2,       // payload does not parse as a frame
  ChecksumMismatch = 3,  // CRC over the payload does not match the header
  Truncated = 4,       // byte stream ended inside a frame
  ConnectionClosed = 5,  // peer closed / EOF / EPIPE
  Timeout = 6,         // send/recv deadline expired
  Io = 7,              // other OS-level I/O failure, a refused dial included
  // 8 is unused, so no other number changes meaning.
  SessionClosed = 9,   // logical session torn down while a receiver waited
  Protocol = 10,       // well-formed frame violating higher-level expectations
};

[[nodiscard]] constexpr const char* errc_name(Errc c) {
  switch (c) {
    case Errc::FrameTooLarge: return "FrameTooLarge";
    case Errc::Malformed: return "Malformed";
    case Errc::ChecksumMismatch: return "ChecksumMismatch";
    case Errc::Truncated: return "Truncated";
    case Errc::ConnectionClosed: return "ConnectionClosed";
    case Errc::Timeout: return "Timeout";
    case Errc::Io: return "Io";
    case Errc::SessionClosed: return "SessionClosed";
    case Errc::Protocol: return "Protocol";
  }
  return "Unknown";
}

class TransportError : public std::runtime_error {
 public:
  TransportError(Errc code, const std::string& what)
      : std::runtime_error(std::string("transport: ") + errc_name(code) + ": " + what),
        code_(code) {}

  [[nodiscard]] Errc code() const { return code_; }

 private:
  Errc code_;
};

}  // namespace dlr::transport
