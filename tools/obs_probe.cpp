// obs_probe: CI driver for the observability plane (DESIGN.md §10).
//
// Boots a mock-group decryption service with the admin endpoint enabled,
// issues N decryptions (with one refresh in the middle so epoch events
// appear), then exercises every admin route the way an operator would:
//
//   1. scrape adm.metrics and run the strict Prometheus lint on the body;
//   2. parse the exposition and check svc_requests == N (the acceptance
//      criterion: the scrape agrees with the work actually issued);
//   3. fetch adm.health and sanity-check the JSON mentions both parties;
//   4. dump adm.events and require the epoch prepare/commit pair;
//   5. dump adm.spans and require a traced server-side ks.dec span.
//
// Prints everything it checked; exits 0 only if all checks hold, making it a
// single CI step. `--requests N` scales the workload, `--dump` prints the
// fetched bodies (the artifact to attach on failure).
#include <cstdio>
#include <cstring>
#include <string>

#include "group/mock_group.hpp"
#include "service/admin.hpp"
#include "service/client.hpp"
#include "service/p2_server.hpp"
#include "telemetry/export.hpp"

using namespace dlr;
using group::MockGroup;
using Core = schemes::DlrCore<MockGroup>;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// The fields of one adm.health section (flat: they hold no nested braces),
/// empty if the document has no such section.
std::string section(const std::string& health, const std::string& name) {
  const auto at = health.find("\"" + name + "\":{");
  if (at == std::string::npos) return {};
  return health.substr(at, health.find('}', at) - at);
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 8;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--dump") == 0)
      dump = true;
  }

  auto gg = group::make_mock();
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), gg.scalar_bits());
  crypto::Rng rng(42);
  auto kg = Core::gen(gg, prm, rng);

  service::P2Server<MockGroup>::Options sopt;
  sopt.workers = 2;
  sopt.admin = true;
  service::P2Server<MockGroup> server(gg, prm, kg.sk2, crypto::Rng(43), sopt);
  server.start();

  auto p1 = std::make_shared<service::P1Runtime<MockGroup>>(
      gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain, crypto::Rng(44));
  p1->register_admin(*server.admin());
  service::DecryptionClient<MockGroup> client(p1, server.port());

  for (int i = 0; i < requests; ++i) {
    if (i == requests / 2) client.refresh();
    const auto m = gg.gt_random(rng);
    const auto c = Core::enc(gg, kg.pk, m, rng);
    check(gg.gt_eq(client.decrypt(c), m), "decrypt #" + std::to_string(i));
  }

  const auto port = server.admin_port();
  std::printf("admin endpoint on port %u\n", port);

  const std::string metrics = service::AdminClient::fetch(port, service::kAdmMetrics);
  if (dump) std::fputs(metrics.c_str(), stdout);
  const std::string lint = telemetry::prometheus_lint(metrics);
  check(lint.empty(), "prometheus lint" + (lint.empty() ? "" : ": " + lint));

  const auto samples = telemetry::parse_prometheus(metrics);
  const auto it = samples.find("svc_requests");
#if DLR_TELEMETRY_ENABLED
  check(it != samples.end() &&
            it->second == static_cast<double>(requests),
        "svc_requests == " + std::to_string(requests) +
            (it == samples.end() ? " (sample missing)"
                                 : " (got " + std::to_string(it->second) + ")"));
#else
  check(it == samples.end(), "telemetry off: no svc_requests sample");
#endif

  const std::string health = service::AdminClient::fetch(port, service::kAdmHealth);
  if (dump) std::printf("%s\n", health.c_str());
  check(health.find("\"keystore\"") != std::string::npos, "health has a keystore section");
  check(health.find("\"p1\"") != std::string::npos, "health has a p1 section");
  check(section(health, "keystore").find("\"epoch\":\"1\"") != std::string::npos,
        "health shows P2's post-refresh epoch");
  check(section(health, "p1").find("\"epoch\":\"1\"") != std::string::npos,
        "health shows P1's post-refresh epoch");

  const std::string events = service::AdminClient::fetch(port, service::kAdmEvents);
  if (dump) std::fputs(events.c_str(), stdout);
#if DLR_TELEMETRY_ENABLED
  check(events.find("\"kind\":\"epoch-prepare\"") != std::string::npos,
        "event log has epoch-prepare");
  check(events.find("\"kind\":\"epoch-commit\"") != std::string::npos,
        "event log has epoch-commit");

  const std::string spans = service::AdminClient::fetch(port, service::kAdmSpans);
  const auto imported = telemetry::import_jsonl(spans);
  bool traced_dec = false;
  for (const auto& s : imported.spans)
    if (s.label == "ks.dec" && s.trace_id != 0) traced_dec = true;
  check(traced_dec, "server exported a traced ks.dec span");
#endif

  client.close();
  server.stop();
  std::printf("obs_probe: %d failure(s)\n", g_failures);
  return g_failures ? 1 : 0;
}
