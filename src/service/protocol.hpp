// Wire schema of the DLR decryption service, layered on transport frames.
//
// Every request is one Data frame on its own mux session; the response is one
// Data frame (label *.ok) or one Error frame (label svc.err) on the same
// session. Requests carry the client's view of the key epoch; the server
// coordinator rejects mismatches with StaleEpoch and requests that land
// while a refresh drains/runs with Draining -- both retryable: the client
// re-issues once its epoch catches up.
//
//   svc.dec  (Data)  body = u64 epoch | blob dec.r1 [| u32 deadline_ms]
//                                                        -> svc.dec.ok | svc.err
//   svc.ref  (Data)  body = u64 epoch | blob ref.r1      -> svc.ref.ok | svc.err
//   svc.err  (Error) body = u8 code | u64 server_epoch | str message
//                           [| u32 retry_after_ms]
//
// Refresh is a two-phase epoch commit (DESIGN.md §9). svc.ref is the PREPARE
// phase: the server computes and journals the next share but does not
// install it. The commit phase installs on the server first, then the
// client:
//
//   svc.ref.commit  (Data)  body = u64 epoch | blob digest  -> svc.ref.commit.ok | svc.err
//   svc.ref.commit.ok       body = u64 new_epoch
//
// where digest = SHA-256 of the ref round-1 message, identifying WHICH
// prepared refresh is being committed (duplicated/stale commits are
// detected, never applied twice).
//
// Reconnect reconciliation: the first frames on every new connection are a
// hello exchange. The client reports its epoch and any journaled
// PendingRefresh; the server answers with its epoch and a deterministic
// disposition for the pending refresh -- Commit iff the server already
// installed it (server epoch == pending epoch + 1), Rollback otherwise.
//
//   svc.hello     (Data)  body = u64 epoch | u8 has_pending | u64 pending_epoch | blob digest
//                                 [| u8 version]
//   svc.hello.ok  (Data)  body = u64 server_epoch | u8 disposition (RefDisposition)
//                                 [| u8 version]
//
// Version negotiation (DESIGN.md §10): a client that understands the wire
// trace envelope appends version = kWireTraceVersion to its hello. A v1
// server rejects the trailing byte as BadRequest, which the client treats as
// "peer is v1" -- it re-hellos without the byte and keeps wire tracing off.
// A v2 server accepts and echoes the version in hello.ok; only then do both
// sides stamp trace envelopes on Data frames. An un-versioned peer therefore
// never sees an envelope (whose flag bit it would reject as a bad device id).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "crypto/bytes.hpp"
#include "transport/frame.hpp"

namespace dlr::service {

inline constexpr char kLabelDecReq[] = "svc.dec";
inline constexpr char kLabelDecOk[] = "svc.dec.ok";
inline constexpr char kLabelRefReq[] = "svc.ref";
inline constexpr char kLabelRefOk[] = "svc.ref.ok";
inline constexpr char kLabelErr[] = "svc.err";
inline constexpr char kLabelRefCommit[] = "svc.ref.commit";
inline constexpr char kLabelRefCommitOk[] = "svc.ref.commit.ok";
inline constexpr char kLabelHello[] = "svc.hello";
inline constexpr char kLabelHelloOk[] = "svc.hello.ok";

enum class ServiceErrc : std::uint8_t {
  StaleEpoch = 1,  // request epoch != server epoch; retry after local refresh
  Draining = 2,    // a refresh is draining/running; retry shortly
  BadRequest = 3,  // request did not parse
  Internal = 4,    // server-side exception
  Shutdown = 5,    // server is draining for shutdown; retry elsewhere/later
  DrainTimeout = 6,  // refresh drain deadline expired; retry the refresh.
                     // No server sends it any more; kept for old peers
  WrongShard = 7,  // (tenant, key) hashes to another shard; refetch the shard
                   // map (ks.map) and re-route -- retryable redirect
  UnknownKey = 8,  // (tenant, key) not provisioned on this shard (and the
                   // shard map says it should be here) -- not retryable
  Overloaded = 9,  // queue saturated; shed before any crypto was spent.
                   // Retryable -- the error body carries a retry-after hint
                   // (queue depth x EWMA per-item crypto cost) the client's
                   // RetrySchedule honors as a backoff floor
  DeadlineExceeded = 10,  // the request's deadline budget expired before the
                          // server could (or did) answer -- not retryable
                          // here: the client's budget is spent by definition
};

[[nodiscard]] constexpr const char* service_errc_name(ServiceErrc c) {
  switch (c) {
    case ServiceErrc::StaleEpoch: return "StaleEpoch";
    case ServiceErrc::Draining: return "Draining";
    case ServiceErrc::BadRequest: return "BadRequest";
    case ServiceErrc::Internal: return "Internal";
    case ServiceErrc::Shutdown: return "Shutdown";
    case ServiceErrc::DrainTimeout: return "DrainTimeout";
    case ServiceErrc::WrongShard: return "WrongShard";
    case ServiceErrc::UnknownKey: return "UnknownKey";
    case ServiceErrc::Overloaded: return "Overloaded";
    case ServiceErrc::DeadlineExceeded: return "DeadlineExceeded";
  }
  return "Unknown";
}

/// A decoded svc.err response. StaleEpoch and Draining are transient
/// consequences of epoch-coordinated refresh, not failures of the request
/// itself -- callers retry them (DecryptionClient::decrypt does so itself).
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ServiceErrc code, std::uint64_t server_epoch, const std::string& msg,
               std::uint32_t retry_after_ms = 0)
      : std::runtime_error(std::string("service: ") + service_errc_name(code) + ": " + msg),
        code_(code),
        server_epoch_(server_epoch),
        detail_(msg),
        retry_after_ms_(retry_after_ms) {}

  [[nodiscard]] ServiceErrc code() const { return code_; }
  [[nodiscard]] std::uint64_t server_epoch() const { return server_epoch_; }
  /// The message without what()'s "service: <code>: " prefix -- the text an
  /// svc.err body carries.
  [[nodiscard]] const std::string& detail() const { return detail_; }
  /// Server-computed backoff floor in ms (Overloaded only; 0 = no hint).
  [[nodiscard]] std::uint32_t retry_after_ms() const { return retry_after_ms_; }
  [[nodiscard]] bool retryable() const {
    return code_ == ServiceErrc::StaleEpoch || code_ == ServiceErrc::Draining ||
           code_ == ServiceErrc::DrainTimeout || code_ == ServiceErrc::Shutdown ||
           code_ == ServiceErrc::WrongShard || code_ == ServiceErrc::Overloaded;
  }

 private:
  ServiceErrc code_;
  std::uint64_t server_epoch_;
  std::string detail_;
  std::uint32_t retry_after_ms_;
};

struct Request {
  std::uint64_t epoch = 0;
  Bytes round1;
  // Remaining deadline budget in ms at send time; 0 = no deadline. Carried as
  // an optional trailing u32, appended only when nonzero AND the hello
  // negotiation settled on >= kWireDeadlineVersion (a pre-deadline server
  // rejects trailing request bytes as BadRequest).
  std::uint32_t deadline_ms = 0;
};

[[nodiscard]] inline Bytes encode_request(std::uint64_t epoch, const Bytes& round1,
                                          std::uint32_t deadline_ms = 0) {
  ByteWriter w;
  w.u64(epoch);
  w.blob(round1);
  if (deadline_ms != 0) w.u32(deadline_ms);
  return w.take();
}

[[nodiscard]] inline Request decode_request(const Bytes& body) {
  ByteReader r(body);
  Request req;
  req.epoch = r.u64();
  req.round1 = r.blob();
  if (!r.done()) req.deadline_ms = r.u32();  // optional trailing deadline (v2)
  if (!r.done()) throw std::invalid_argument("service request: trailing bytes");
  return req;
}

[[nodiscard]] inline Bytes encode_error(ServiceErrc code, std::uint64_t server_epoch,
                                        const std::string& msg,
                                        std::uint32_t retry_after_ms = 0) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(code));
  w.u64(server_epoch);
  w.str(msg);
  // Optional trailing retry-after hint. Always backward compatible:
  // decode_error has never checked done() after the message, so a legacy
  // client simply ignores the extra bytes.
  if (retry_after_ms != 0) w.u32(retry_after_ms);
  return w.take();
}

[[nodiscard]] inline ServiceError decode_error(const Bytes& body) {
  ByteReader r(body);
  const auto code = static_cast<ServiceErrc>(r.u8());
  const std::uint64_t epoch = r.u64();
  const std::string msg = r.str();
  std::uint32_t retry_after_ms = 0;
  if (!r.done()) retry_after_ms = r.u32();  // optional hint (PR 9 servers)
  return {code, epoch, msg, retry_after_ms};
}

/// Highest hello/wire-format version this build speaks. Version 1 adds the
/// frame trace envelope (transport/frame.hpp); 0 means the legacy format.
inline constexpr std::uint8_t kWireTraceVersion = 1;

/// Version 2 adds the per-request deadline budget (trailing u32 on svc.dec /
/// ks.dec bodies) and the retry-after hint on svc.err. Negotiated exactly
/// like kWireTraceVersion: the client offers its highest version in hello,
/// the server echoes min(client, server). Deadlines are only stamped on the
/// wire when both sides settled on >= 2; the error hint needs no gate
/// because decode_error tolerates trailing bytes.
inline constexpr std::uint8_t kWireDeadlineVersion = 2;

/// How a reconnecting client must resolve a journaled PendingRefresh.
enum class RefDisposition : std::uint8_t {
  None = 0,      // nothing pending; epochs already agree
  Commit = 1,    // server installed the refresh: client must roll forward
  Rollback = 2,  // server did not install: client must discard the pending
};

struct HelloMsg {
  std::uint64_t epoch = 0;
  bool has_pending = false;
  std::uint64_t pending_epoch = 0;
  Bytes pending_digest;
  std::uint8_t version = 0;  // 0 = legacy peer; kWireTraceVersion = traced wire
};

[[nodiscard]] inline Bytes encode_hello(const HelloMsg& h) {
  ByteWriter w;
  w.u64(h.epoch);
  w.u8(h.has_pending ? 1 : 0);
  w.u64(h.pending_epoch);
  w.blob(h.pending_digest);
  // The version byte is appended only when nonzero, exactly so a v1 server
  // sees a byte-identical legacy hello.
  if (h.version != 0) w.u8(h.version);
  return w.take();
}

[[nodiscard]] inline HelloMsg decode_hello(const Bytes& body) {
  ByteReader r(body);
  HelloMsg h;
  h.epoch = r.u64();
  h.has_pending = r.u8() != 0;
  h.pending_epoch = r.u64();
  h.pending_digest = r.blob();
  if (!r.done()) h.version = r.u8();  // optional trailing version (v2 client)
  if (!r.done()) throw std::invalid_argument("svc.hello: trailing bytes");
  return h;
}

struct HelloOk {
  std::uint64_t server_epoch = 0;
  RefDisposition disposition = RefDisposition::None;
  std::uint8_t version = 0;  // echo of the negotiated version (0 = legacy)
};

[[nodiscard]] inline Bytes encode_hello_ok(const HelloOk& h) {
  ByteWriter w;
  w.u64(h.server_epoch);
  w.u8(static_cast<std::uint8_t>(h.disposition));
  if (h.version != 0) w.u8(h.version);
  return w.take();
}

[[nodiscard]] inline HelloOk decode_hello_ok(const Bytes& body) {
  ByteReader r(body);
  HelloOk h;
  h.server_epoch = r.u64();
  const std::uint8_t d = r.u8();
  if (d > 2) throw std::invalid_argument("svc.hello.ok: malformed");
  h.disposition = static_cast<RefDisposition>(d);
  if (!r.done()) h.version = r.u8();
  if (!r.done()) throw std::invalid_argument("svc.hello.ok: trailing bytes");
  return h;
}

struct CommitMsg {
  std::uint64_t epoch = 0;  // epoch being refreshed AWAY from
  Bytes digest;             // sha256 of the prepared round-1 message
};

[[nodiscard]] inline Bytes encode_commit(const CommitMsg& c) {
  ByteWriter w;
  w.u64(c.epoch);
  w.blob(c.digest);
  return w.take();
}

[[nodiscard]] inline CommitMsg decode_commit(const Bytes& body) {
  ByteReader r(body);
  CommitMsg c;
  c.epoch = r.u64();
  c.digest = r.blob();
  if (!r.done()) throw std::invalid_argument("svc.ref.commit: trailing bytes");
  return c;
}

[[nodiscard]] inline Bytes encode_commit_ok(std::uint64_t new_epoch) {
  ByteWriter w;
  w.u64(new_epoch);
  return w.take();
}

[[nodiscard]] inline std::uint64_t decode_commit_ok(const Bytes& body) {
  ByteReader r(body);
  const std::uint64_t e = r.u64();
  if (!r.done()) throw std::invalid_argument("svc.ref.commit.ok: trailing bytes");
  return e;
}

/// Classify a response frame: return the body of a successful `ok_label`
/// response, or throw the decoded ServiceError / a transport Protocol error.
[[nodiscard]] inline Bytes expect_ok(transport::Frame f, const char* ok_label) {
  if (f.type == transport::FrameType::Error && f.label == kLabelErr)
    throw decode_error(f.body);
  if (f.type != transport::FrameType::Data || f.label != ok_label)
    throw transport::TransportError(
        transport::Errc::Protocol,
        "expected '" + std::string(ok_label) + "', got label '" + f.label + "'");
  return std::move(f.body);
}

}  // namespace dlr::service
