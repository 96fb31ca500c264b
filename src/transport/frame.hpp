// Framed wire codec -- the byte-level unit of the transport layer.
//
// Wire layout (little-endian):
//
//   u32 len      payload byte length; hard-capped at kMaxFrameBytes so a
//                corrupt or attacker-controlled prefix can never drive an
//                allocation (the cap is checked BEFORE any buffer is sized)
//   u32 crc      CRC-32 (IEEE, reflected) over the payload bytes
//   payload:
//     u32 session    logical session id (multiplexing key)
//     u8  type       FrameType
//     u8  from       bits 0-6: device id (0 = unspecified, 1 = P1, 2 = P2);
//                    bit 7 (kTraceFlag): a 16-byte trace envelope follows
//                    the label
//     u8  label_len  protocol message label, e.g. "dec.r1" / "ks.dec"
//     label bytes
//     [u64 trace_id, u64 parent_span]   iff bit 7 of `from` is set
//     body bytes     everything remaining
//
// The trace envelope (DESIGN.md §10) carries the sender's TraceContext so a
// request's spans form one tree across processes. Every peer decodes it; a
// sender stamps its current context whenever a span is open, with no
// negotiation.
//
// The CRC makes single-bit corruption of any frame field a typed
// ChecksumMismatch instead of a silently different message; length-prefix
// corruption yields FrameTooLarge or Truncated. Decoding never crashes and
// never silently accepts a mutated frame (tests/transport_test.cpp fuzzes
// exactly this contract, mirroring the protocol-message fuzz of DESIGN §6).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/bytes.hpp"
#include "transport/error.hpp"

namespace dlr::transport {

/// Hard upper bound on a frame payload. A length prefix above this is
/// rejected as FrameTooLarge before any allocation happens. 16 MiB comfortably
/// holds the largest protocol message (SS1024 refresh round 1 is < 1 MiB)
/// while bounding what a hostile peer can make us reserve.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;

/// Fixed bytes preceding the payload: u32 len + u32 crc.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Payload bytes before the label: session + type + from + label_len.
inline constexpr std::size_t kPayloadFixedBytes = 7;

/// Bit 7 of the `from` byte: a trace envelope follows the label.
inline constexpr std::uint8_t kTraceFlag = 0x80;
/// Trace envelope size: u64 trace_id + u64 parent_span.
inline constexpr std::size_t kTraceEnvelopeBytes = 16;

enum class FrameType : std::uint8_t {
  Data = 1,   // protocol message body
  Error = 2,  // service-level error report
  Close = 3,  // orderly session teardown
};

struct Frame {
  std::uint32_t session = 0;
  FrameType type = FrameType::Data;
  std::uint8_t from = 0;  // matches net::DeviceId values; 0 = unspecified
  std::string label;
  Bytes body;
  // Trace envelope (0 = absent). encode_frame emits the envelope -- and sets
  // kTraceFlag -- iff trace_id is nonzero. Declared after `body` so existing
  // positional aggregate initializers keep meaning what they meant.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool operator==(const Frame&) const = default;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), init/xorout ~0.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Validate a length prefix against kMaxFrameBytes; throws
/// FrameTooLarge/Malformed.
void check_frame_len(std::uint32_t len);

/// Serialize header + payload. Throws FrameTooLarge if the frame exceeds the
/// cap and Malformed if the label does not fit its u8 length field.
[[nodiscard]] Bytes encode_frame(const Frame& f);

/// Parse a payload (the bytes after the 8-byte header) whose CRC has already
/// been verified. Throws Malformed on any structural violation.
[[nodiscard]] Frame decode_payload(std::span<const std::uint8_t> payload);

/// Verify crc against payload, then decode. Throws ChecksumMismatch/Malformed.
[[nodiscard]] Frame decode_checked(std::uint32_t crc, std::span<const std::uint8_t> payload);

/// Incremental deframer for a byte stream: feed() arbitrary chunks, poll()
/// complete frames, finish() at end-of-stream (throws Truncated if bytes of a
/// partial frame remain). Oversize length prefixes throw during feed(),
/// before the payload is buffered.
class FrameDeframer {
 public:
  void feed(std::span<const std::uint8_t> data);
  [[nodiscard]] std::optional<Frame> poll();
  /// End of stream: throws Truncated if a partial frame is pending.
  void finish() const;
  [[nodiscard]] std::size_t pending_bytes() const { return buf_.size(); }

 private:
  Bytes buf_;
};

}  // namespace dlr::transport
