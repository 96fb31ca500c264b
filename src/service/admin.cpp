#include "service/admin.hpp"

#include <stdexcept>

#include "telemetry/events.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace dlr::service {

namespace {

telemetry::Counter& scrape_counter() {
  static telemetry::Counter& c = telemetry::Registry::global().counter("adm.scrapes");
  return c;
}

}  // namespace

void AdminServer::start(std::uint16_t port) {
  listener_ = transport::Listener::loopback(port);
  started_at_ = std::chrono::steady_clock::now();
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void AdminServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (started_.load()) listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<ConnState>> conns;
  {
    std::lock_guard lock(conns_mu_);
    conns = conns_;
  }
  for (auto& c : conns) c->conn->shutdown();
  for (auto& c : conns)
    if (c->reader.joinable()) c->reader.join();
}

std::uint64_t AdminServer::scrapes() const { return scrape_counter().value(); }

void AdminServer::register_health(const std::string& section, HealthProvider provider) {
  std::lock_guard lock(health_mu_);
  providers_.emplace_back(section, std::move(provider));
}

std::string AdminServer::health_json() const {
  const auto uptime_ms =
      started_.load()
          ? std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - started_at_)
                .count()
          : 0;
  // Built-in load section (DESIGN.md §13), read from Registry atomics only --
  // the scrape must stay non-blocking even while the data plane is saturated,
  // which is exactly when an operator asks for it.
  auto& reg = telemetry::Registry::global();
  std::string out = "{\"uptime_ms\":" + std::to_string(uptime_ms) + ",\"telemetry\":\"" +
                    (DLR_TELEMETRY_ENABLED ? "on" : "off") + "\",\"load\":{" +
                    "\"queue_depth\":" +
                    std::to_string(static_cast<std::int64_t>(reg.gauge("svc.queue_depth").value())) +
                    ",\"shed_overload\":" + std::to_string(reg.counter("svc.shed.overload").value()) +
                    ",\"shed_deadline\":" + std::to_string(reg.counter("svc.shed.deadline").value()) +
                    ",\"shed_refresh\":" + std::to_string(reg.counter("svc.shed.refresh").value()) +
                    "},\"sections\":{";
  std::vector<std::pair<std::string, HealthProvider>> providers;
  {
    std::lock_guard lock(health_mu_);
    providers = providers_;
  }
  bool first_section = true;
  for (const auto& [section, provider] : providers) {
    if (!first_section) out += ",";
    first_section = false;
    out += '"';
    out += telemetry::json_escape(section);
    out += "\":{";
    bool first_field = true;
    for (const auto& [k, v] : provider()) {
      if (!first_field) out += ",";
      first_field = false;
      out += '"';
      out += telemetry::json_escape(k);
      out += "\":\"";
      out += telemetry::json_escape(v);
      out += '"';
    }
    out += "}";
  }
  out += "}}";
  return out;
}

std::string AdminServer::respond(const std::string& label, std::string& ok_label) const {
  if (label == kAdmMetrics) {
    ok_label = kAdmMetricsOk;
    scrape_counter().add();
    return telemetry::to_prometheus(telemetry::Registry::global().snapshot());
  }
  if (label == kAdmHealth) {
    ok_label = kAdmHealthOk;
    return health_json();
  }
  if (label == kAdmEvents) {
    ok_label = kAdmEventsOk;
    return telemetry::EventLog::global().dump_jsonl();
  }
  if (label == kAdmSpans) {
    ok_label = kAdmSpansOk;
    return telemetry::to_jsonl(telemetry::ExportMeta{"adm.spans"}, telemetry::Snapshot{},
                               telemetry::Tracer::global().spans());
  }
  ok_label.clear();
  return "unknown admin route '" + label + "'";
}

void AdminServer::accept_loop() {
  for (;;) {
    transport::Socket sock;
    try {
      sock = listener_.accept(transport::Millis{200});
    } catch (const transport::TransportError& e) {
      if (e.code() == transport::Errc::Timeout) {
        if (stopping_.load()) return;
        continue;
      }
      return;  // listener closed
    }
    auto st = std::make_shared<ConnState>();
    st->conn = std::make_shared<transport::FramedConn>(std::move(sock));
    st->reader = std::thread([this, conn = st->conn] { serve(conn); });
    std::lock_guard lock(conns_mu_);
    std::erase_if(conns_, [](const std::shared_ptr<ConnState>& c) {
      if (!c->done.load()) return false;
      if (c->reader.joinable()) c->reader.join();
      return true;
    });
    conns_.push_back(std::move(st));
  }
}

void AdminServer::serve(const std::shared_ptr<transport::FramedConn>& conn) {
  for (;;) {
    transport::Frame f;
    try {
      f = conn->recv_blocking();
    } catch (const transport::TransportError&) {
      break;  // client hung up / shutdown
    }
    if (f.type != transport::FrameType::Data) continue;
    std::string ok_label;
    std::string body = respond(f.label, ok_label);
    transport::Frame reply{f.session,
                           ok_label.empty() ? transport::FrameType::Error
                                            : transport::FrameType::Data,
                           0, ok_label.empty() ? kAdmErr : ok_label,
                           Bytes(body.begin(), body.end())};
    try {
      conn->send(reply);
    } catch (const transport::TransportError&) {
      break;
    }
  }
  std::lock_guard lock(conns_mu_);
  for (auto& c : conns_)
    if (c->conn == conn) c->done.store(true);
}

std::string AdminClient::fetch(std::uint16_t port, const std::string& label) {
  transport::FramedConn conn(transport::connect_loopback(port));
  conn.send(transport::Frame{1, transport::FrameType::Data, 0, label, {}});
  transport::Frame f = conn.recv(transport::kIoTimeout);
  if (f.type == transport::FrameType::Error)
    throw std::runtime_error("admin: " + std::string(f.body.begin(), f.body.end()));
  return {f.body.begin(), f.body.end()};
}

}  // namespace dlr::service
