#include "transport/frame.hpp"

#include <array>

namespace dlr::transport {

namespace {

std::uint32_t rd_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t rd_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(rd_u32(p)) |
         static_cast<std::uint64_t>(rd_u32(p + 4)) << 32;
}

// Slice-by-8 tables: t[0] is the classic reflected CRC-32 table; t[s][b] is
// the CRC of byte b followed by s zero bytes, so eight lookups advance the
// state by eight input bytes at once.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (int s = 1; s < 8; ++s)
      t[s][i] = t[0][t[s - 1][i] & 0xFF] ^ (t[s - 1][i] >> 8);
  return t;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const auto t = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint32_t lo = c ^ rd_u32(p);
    const std::uint32_t hi = rd_u32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n != 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void check_frame_len(std::uint32_t len) {
  if (len > kMaxFrameBytes)
    throw TransportError(Errc::FrameTooLarge,
                         "length prefix " + std::to_string(len) + " exceeds cap " +
                             std::to_string(kMaxFrameBytes));
  if (len < kPayloadFixedBytes)
    throw TransportError(Errc::Malformed,
                         "length prefix " + std::to_string(len) + " below minimum payload");
}

Bytes encode_frame(const Frame& f) {
  if (f.label.size() > 255)
    throw TransportError(Errc::Malformed, "label longer than 255 bytes");
  if (f.from & kTraceFlag)
    throw TransportError(Errc::Malformed, "device id collides with trace flag");
  const bool traced = f.trace_id != 0;
  const std::size_t payload_len = kPayloadFixedBytes + f.label.size() +
                                  (traced ? kTraceEnvelopeBytes : 0) + f.body.size();
  if (payload_len > kMaxFrameBytes)
    throw TransportError(Errc::FrameTooLarge,
                         "frame payload " + std::to_string(payload_len) + " exceeds cap " +
                             std::to_string(kMaxFrameBytes));

  ByteWriter payload;
  payload.u32(f.session);
  payload.u8(static_cast<std::uint8_t>(f.type));
  payload.u8(traced ? static_cast<std::uint8_t>(f.from | kTraceFlag) : f.from);
  payload.u8(static_cast<std::uint8_t>(f.label.size()));
  payload.raw({reinterpret_cast<const std::uint8_t*>(f.label.data()), f.label.size()});
  if (traced) {
    payload.u64(f.trace_id);
    payload.u64(f.parent_span);
  }
  payload.raw(f.body);

  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload.bytes()));
  w.raw(payload.bytes());
  return w.take();
}

Frame decode_payload(std::span<const std::uint8_t> payload) {
  if (payload.size() < kPayloadFixedBytes)
    throw TransportError(Errc::Malformed, "payload shorter than fixed fields");
  Frame f;
  f.session = rd_u32(payload.data());
  const std::uint8_t type = payload[4];
  if (type < static_cast<std::uint8_t>(FrameType::Data) ||
      type > static_cast<std::uint8_t>(FrameType::Close))
    throw TransportError(Errc::Malformed, "unknown frame type " + std::to_string(type));
  f.type = static_cast<FrameType>(type);
  const bool traced = (payload[5] & kTraceFlag) != 0;
  f.from = payload[5] & static_cast<std::uint8_t>(~kTraceFlag);
  if (f.from > 2)
    throw TransportError(Errc::Malformed, "bad device id " + std::to_string(f.from));
  const std::size_t label_len = payload[6];
  std::size_t off = kPayloadFixedBytes;
  if (off + label_len > payload.size())
    throw TransportError(Errc::Malformed, "label length overruns payload");
  f.label.assign(reinterpret_cast<const char*>(payload.data()) + off, label_len);
  off += label_len;
  if (traced) {
    if (off + kTraceEnvelopeBytes > payload.size())
      throw TransportError(Errc::Malformed, "trace envelope overruns payload");
    f.trace_id = rd_u64(payload.data() + off);
    f.parent_span = rd_u64(payload.data() + off + 8);
    if (f.trace_id == 0)
      throw TransportError(Errc::Malformed, "trace envelope with zero trace id");
    off += kTraceEnvelopeBytes;
  }
  f.body.assign(payload.begin() + static_cast<std::ptrdiff_t>(off), payload.end());
  return f;
}

Frame decode_checked(std::uint32_t crc, std::span<const std::uint8_t> payload) {
  const std::uint32_t actual = crc32(payload);
  if (actual != crc)
    throw TransportError(Errc::ChecksumMismatch, "payload CRC mismatch");
  return decode_payload(payload);
}

void FrameDeframer::feed(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
  // Validate the length prefix as soon as it is complete, so an oversize
  // frame is rejected long before its payload could be buffered.
  if (buf_.size() >= 4) check_frame_len(rd_u32(buf_.data()));
}

std::optional<Frame> FrameDeframer::poll() {
  if (buf_.size() < kFrameHeaderBytes) return std::nullopt;
  const std::uint32_t len = rd_u32(buf_.data());
  check_frame_len(len);
  if (buf_.size() < kFrameHeaderBytes + len) return std::nullopt;
  const std::uint32_t crc = rd_u32(buf_.data() + 4);
  Frame f = decode_checked(
      crc, {buf_.data() + kFrameHeaderBytes, static_cast<std::size_t>(len)});
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes + len));
  if (buf_.size() >= 4) check_frame_len(rd_u32(buf_.data()));
  return f;
}

void FrameDeframer::finish() const {
  if (!buf_.empty())
    throw TransportError(Errc::Truncated, "stream ended inside a frame (" +
                                              std::to_string(buf_.size()) +
                                              " pending bytes)");
}

}  // namespace dlr::transport
