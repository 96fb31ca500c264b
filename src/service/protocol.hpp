// Wire conventions the DLR decryption service shares with the keystore
// routes (keystore/ks_protocol.hpp), layered on transport frames.
//
// Every request is one Data frame on its own mux session; the response is one
// Data frame (label *.ok) or one Error frame (label svc.err) on the same
// session. Requests carry the client's view of the key epoch; the server
// rejects mismatches with StaleEpoch and requests that land while the key's
// refresh drains with Draining -- both retryable: the client re-issues once
// its epoch catches up.
//
//   svc.err  (Error) body = u8 code | u64 server_epoch | str message
//                           [| u32 retry_after_ms]
//
// This file holds the codecs of the bodies every key's routes share: the
// error, the hello reconciliation and the commit acknowledgement.
//
// Refresh is a two-phase epoch commit (DESIGN.md §9): PREPARE computes and
// journals the next share without installing it; COMMIT installs it on the
// server first, then the client, and is acknowledged with the new epoch:
//
//   commit.ok  body = u64 new_epoch
//
// Reconnect reconciliation: a client reports its epoch and any journaled
// PendingRefresh in a hello; the server answers with its epoch and a
// deterministic disposition for the pending refresh -- Commit iff the server
// already installed it (server epoch == pending epoch + 1), Rollback
// otherwise.
//
//   hello     body = u64 epoch | u8 has_pending | u64 pending_epoch | blob digest
//   hello.ok  body = u64 server_epoch | u8 disposition (RefDisposition)
//
// There is one wire dialect and no negotiation: every request frame may carry
// a trace envelope (transport/frame.hpp) and a decryption its deadline
// budget.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "crypto/bytes.hpp"
#include "transport/frame.hpp"

namespace dlr::service {

inline constexpr char kLabelErr[] = "svc.err";

enum class ServiceErrc : std::uint8_t {
  StaleEpoch = 1,  // request epoch != server epoch; retry after local refresh
  Draining = 2,    // a refresh is draining/running; retry shortly
  BadRequest = 3,  // request did not parse
  Internal = 4,    // server-side exception
  Shutdown = 5,    // server is draining for shutdown; retry elsewhere/later
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
           code_ == ServiceErrc::Shutdown || code_ == ServiceErrc::WrongShard ||
           code_ == ServiceErrc::Overloaded;
  }

 private:
  ServiceErrc code_;
  std::uint64_t server_epoch_;
  std::string detail_;
  std::uint32_t retry_after_ms_;
};

[[nodiscard]] inline Bytes encode_error(ServiceErrc code, std::uint64_t server_epoch,
                                        const std::string& msg,
                                        std::uint32_t retry_after_ms = 0) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(code));
  w.u64(server_epoch);
  w.str(msg);
  // Optional trailing retry-after hint (Overloaded only).
  if (retry_after_ms != 0) w.u32(retry_after_ms);
  return w.take();
}

[[nodiscard]] inline ServiceError decode_error(const Bytes& body) {
  ByteReader r(body);
  const auto code = static_cast<ServiceErrc>(r.u8());
  const std::uint64_t epoch = r.u64();
  const std::string msg = r.str();
  std::uint32_t retry_after_ms = 0;
  if (!r.done()) retry_after_ms = r.u32();  // optional hint
  return {code, epoch, msg, retry_after_ms};
}

/// The wire version this build speaks: 2 carries the per-request deadline
/// budget (trailing u32 on ks.dec bodies) and the retry-after hint on
/// svc.err. It is not negotiated; ks.map.propose names the minimum version
/// every shard of a reshard must speak and a shard checks it.
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
};

[[nodiscard]] inline Bytes encode_hello(const HelloMsg& h) {
  ByteWriter w;
  w.u64(h.epoch);
  w.u8(h.has_pending ? 1 : 0);
  w.u64(h.pending_epoch);
  w.blob(h.pending_digest);
  return w.take();
}

[[nodiscard]] inline HelloMsg decode_hello(const Bytes& body) {
  ByteReader r(body);
  HelloMsg h;
  h.epoch = r.u64();
  h.has_pending = r.u8() != 0;
  h.pending_epoch = r.u64();
  h.pending_digest = r.blob();
  if (!r.done()) throw std::invalid_argument("hello: trailing bytes");
  return h;
}

struct HelloOk {
  std::uint64_t server_epoch = 0;
  RefDisposition disposition = RefDisposition::None;
};

[[nodiscard]] inline Bytes encode_hello_ok(const HelloOk& h) {
  ByteWriter w;
  w.u64(h.server_epoch);
  w.u8(static_cast<std::uint8_t>(h.disposition));
  return w.take();
}

[[nodiscard]] inline HelloOk decode_hello_ok(const Bytes& body) {
  ByteReader r(body);
  HelloOk h;
  h.server_epoch = r.u64();
  const std::uint8_t d = r.u8();
  if (d > 2) throw std::invalid_argument("hello.ok: malformed");
  h.disposition = static_cast<RefDisposition>(d);
  if (!r.done()) throw std::invalid_argument("hello.ok: trailing bytes");
  return h;
}

[[nodiscard]] inline Bytes encode_commit_ok(std::uint64_t new_epoch) {
  ByteWriter w;
  w.u64(new_epoch);
  return w.take();
}

[[nodiscard]] inline std::uint64_t decode_commit_ok(const Bytes& body) {
  ByteReader r(body);
  const std::uint64_t e = r.u64();
  if (!r.done()) throw std::invalid_argument("commit.ok: trailing bytes");
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
