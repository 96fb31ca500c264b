// Admin/observability endpoint (DESIGN.md §10) -- a read-only sidecar server
// on its own port, speaking the same framed wire protocol as the service so
// no second protocol stack exists. One request frame yields one response
// frame on the same session:
//
//   adm.metrics  (Data, empty body) -> adm.metrics.ok  body = Prometheus text
//                                      exposition of the global registry
//   adm.health   (Data, empty body) -> adm.health.ok   body = JSON status
//                                      document (uptime, telemetry mode, one
//                                      section per registered component)
//   adm.events   (Data, empty body) -> adm.events.ok   body = structured
//                                      event log as JSONL (newest window)
//   adm.spans    (Data, empty body) -> adm.spans.ok    body = finished spans
//                                      as JSONL (same schema as --json)
//   anything else                   -> adm.err (Error frame)
//
// The endpoint is strictly read-only and lock-cheap: a scrape snapshots the
// registry via stable metric pointers (never blocking the hot path for the
// duration of the copy) and serializes outside all locks. Components expose
// state by registering a named health provider -- KsServer (and so the
// single-key P2Server) registers "keystore" (keys, queue and shed state,
// journal, uptime), P1Runtime registers "p1".
//
// AdminClient::fetch is the curl-equivalent one-shot used by tests, the CI
// observability probe, and bench --scrape polling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "transport/endpoint.hpp"

namespace dlr::service {

inline constexpr char kAdmMetrics[] = "adm.metrics";
inline constexpr char kAdmMetricsOk[] = "adm.metrics.ok";
inline constexpr char kAdmHealth[] = "adm.health";
inline constexpr char kAdmHealthOk[] = "adm.health.ok";
inline constexpr char kAdmEvents[] = "adm.events";
inline constexpr char kAdmEventsOk[] = "adm.events.ok";
inline constexpr char kAdmSpans[] = "adm.spans";
inline constexpr char kAdmSpansOk[] = "adm.spans.ok";
inline constexpr char kAdmErr[] = "adm.err";

class AdminServer {
 public:
  /// Ordered key/value pairs contributing one named section to the health
  /// document. Providers are called on the scrape thread and must be
  /// thread-safe and non-blocking (read atomics, take only short locks).
  using HealthProvider =
      std::function<std::vector<std::pair<std::string, std::string>>()>;

  struct Options {
    transport::TransportOptions transport{};
  };

  AdminServer() : AdminServer(Options{}) {}
  explicit AdminServer(Options opt) : opt_(std::move(opt)) {}
  ~AdminServer() { stop(); }
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Bind a loopback listener (port 0 = ephemeral) and start serving.
  void start(std::uint16_t port = 0);
  /// Close the listener, hang up connections, join all threads. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] std::uint64_t scrapes() const;

  void register_health(const std::string& section, HealthProvider provider);

  /// The health JSON document (exposed for tests; adm.health serves this).
  [[nodiscard]] std::string health_json() const;

 private:
  struct ConnState {
    std::shared_ptr<transport::FramedConn> conn;
    std::thread reader;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve(const std::shared_ptr<transport::FramedConn>& conn);
  [[nodiscard]] std::string respond(const std::string& label, std::string& ok_label) const;

  Options opt_;
  transport::Listener listener_;
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<ConnState>> conns_;
  mutable std::mutex health_mu_;
  std::vector<std::pair<std::string, HealthProvider>> providers_;
  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
};

/// One-shot admin fetch: connect, send `label`, return the response body as
/// text. Throws TransportError on connection trouble and std::runtime_error
/// on an adm.err response.
class AdminClient {
 public:
  [[nodiscard]] static std::string fetch(std::uint16_t port, const std::string& label,
                                         const transport::TransportOptions& opt = {});
};

}  // namespace dlr::service
