// Observability plane (DESIGN.md §10): end-to-end trace propagation over
// real sockets, the admin endpoint's Prometheus scrape and health document,
// trace integrity under the PR 4 fault injector, and the structured event
// log.
//
// A listener dumps the event ring to stderr whenever a test here fails, so a
// red chaos run leaves a diagnosable artifact instead of a bare assertion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "group/mock_group.hpp"
#include "service/admin.hpp"
#include "service/client.hpp"
#include "service/p2_server.hpp"
#include "telemetry/events.hpp"
#include "telemetry/export.hpp"
#include "transport/fault.hpp"

namespace dlr::service {
namespace {

using group::make_mock;
using group::MockGroup;
using Core = schemes::DlrCore<MockGroup>;

// ---- auto-dump events on failure (ISSUE 6 tentpole layer 3) -------------------

class EventDumpOnFailure : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    if (!info.result()->Failed()) return;
    const std::string dump = telemetry::EventLog::global().dump_jsonl();
    std::fprintf(stderr, "---- event log at failure of %s.%s ----\n%s----\n",
                 info.test_suite_name(), info.name(), dump.c_str());
  }
};

const bool g_event_dump_registered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new EventDumpOnFailure);
  return true;
}();

/// The fields of one adm.health section (flat: they hold no nested braces),
/// empty if the document has no such section.
std::string health_section(const std::string& health, const std::string& name) {
  const auto at = health.find("\"" + name + "\":{");
  if (at == std::string::npos) return {};
  return health.substr(at, health.find('}', at) - at);
}

void reset_telemetry() {
  telemetry::Registry::global().reset();
  telemetry::Tracer::global().reset();
  telemetry::EventLog::global().reset();
}

struct Obs {
  MockGroup gg = make_mock();
  schemes::DlrParams prm =
      schemes::DlrParams::derive(make_mock().scalar_bits(), make_mock().scalar_bits());
  Core::KeyGenResult kg;
  std::unique_ptr<P2Server<MockGroup>> server;
  std::shared_ptr<P1Runtime<MockGroup>> p1;

  explicit Obs(typename P2Server<MockGroup>::Options opt = {}, std::uint64_t seed = 9000) {
    reset_telemetry();
    crypto::Rng rng(seed);
    kg = Core::gen(gg, prm, rng);
    server = std::make_unique<P2Server<MockGroup>>(gg, prm, kg.sk2, crypto::Rng(seed + 1),
                                                   opt);
    server->start();
    p1 = std::make_shared<P1Runtime<MockGroup>>(gg, prm, kg.pk, kg.sk1,
                                                schemes::P1Mode::Plain,
                                                crypto::Rng(seed + 2));
  }
  ~Obs() {
    if (server) server->stop();
  }

  DecryptionClient<MockGroup> client(
      typename DecryptionClient<MockGroup>::Options opt = {}) {
    return DecryptionClient<MockGroup>(p1, server->port(), opt);
  }

  typename Core::Ciphertext encrypt(const typename MockGroup::GT& m, crypto::Rng& rng) {
    return Core::enc(gg, kg.pk, m, rng);
  }
};

using Imported = telemetry::Imported;

/// Stop the server (joining its workers so their spans are final), export
/// every span through the JSONL round-trip, and hand back the parsed view --
/// the test sees exactly what an operator's artifact would contain.
Imported exported_spans(Obs& svc) {
  svc.server->stop();
  return telemetry::import_jsonl(telemetry::to_jsonl(telemetry::ExportMeta{"obs"},
                                                     telemetry::Snapshot{},
                                                     telemetry::Tracer::global().spans()));
}

std::vector<const telemetry::Span*> spans_labeled(const Imported& imp,
                                                  const std::string& label) {
  std::vector<const telemetry::Span*> out;
  for (const auto& s : imp.spans)
    if (s.label == label) out.push_back(&s);
  return out;
}

// ---- acceptance: one decryption = one cross-layer trace tree ------------------

TEST(ObservabilityTraceTest, SingleDecryptionYieldsOneTraceTreeAcrossLayers) {
  Obs svc;
  auto client = svc.client();
  crypto::Rng rng(1);
  const auto m = svc.gg.gt_random(rng);
  ASSERT_TRUE(svc.gg.gt_eq(client.decrypt(svc.encrypt(m, rng)), m));

  const auto imp = exported_spans(svc);
#if DLR_TELEMETRY_ENABLED
  const auto roots = spans_labeled(imp, "svc.client.dec");
  const auto attempts = spans_labeled(imp, "svc.client.attempt");
  const auto workers = spans_labeled(imp, "ks.dec");
  const auto crypto_cli = spans_labeled(imp, "dec.round1");
  const auto crypto_srv = spans_labeled(imp, "dec.round2");
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(attempts.size(), 1u);
  ASSERT_EQ(workers.size(), 1u);
  ASSERT_EQ(crypto_cli.size(), 1u);
  ASSERT_EQ(crypto_srv.size(), 1u);

  const auto trace = roots[0]->trace_id;
  EXPECT_NE(trace, 0u);
  EXPECT_EQ(roots[0]->parent, 0u);
  // client root -> attempt -> { dec.round1 (client crypto),
  //                             ks.dec (server worker, remote parent)
  //                               -> dec.round2 (server crypto) }
  EXPECT_EQ(attempts[0]->trace_id, trace);
  EXPECT_EQ(attempts[0]->parent, roots[0]->id);
  EXPECT_EQ(crypto_cli[0]->trace_id, trace);
  EXPECT_EQ(crypto_cli[0]->parent, attempts[0]->id);
  EXPECT_EQ(workers[0]->trace_id, trace) << "worker span did not adopt the wire trace";
  EXPECT_EQ(workers[0]->parent, attempts[0]->id)
      << "worker span did not parent under the client attempt";
  EXPECT_EQ(crypto_srv[0]->trace_id, trace);
  EXPECT_EQ(crypto_srv[0]->parent, workers[0]->id);
#else
  EXPECT_TRUE(imp.spans.empty());
#endif
}

// ---- acceptance: admin scrape agrees with the work issued ---------------------

TEST(ObservabilityAdminTest, ScrapeIsValidPrometheusAndRequestCounterMatches) {
  typename P2Server<MockGroup>::Options opt;
  opt.admin = true;
  Obs svc(opt);
  svc.p1->register_admin(*svc.server->admin());
  auto client = svc.client();
  crypto::Rng rng(2);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    const auto m = svc.gg.gt_random(rng);
    ASSERT_TRUE(svc.gg.gt_eq(client.decrypt(svc.encrypt(m, rng)), m));
  }

  ASSERT_NE(svc.server->admin_port(), 0);
  const std::string text =
      AdminClient::fetch(svc.server->admin_port(), kAdmMetrics);
  EXPECT_EQ(telemetry::prometheus_lint(text), "") << text;
  const auto samples = telemetry::parse_prometheus(text);
#if DLR_TELEMETRY_ENABLED
  ASSERT_TRUE(samples.count("svc_requests"));
  EXPECT_DOUBLE_EQ(samples.at("svc_requests"), kRequests);
#endif

  const std::string health =
      AdminClient::fetch(svc.server->admin_port(), kAdmHealth);
  EXPECT_NE(health.find("\"keystore\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"p1\""), std::string::npos) << health;
  EXPECT_NE(health_section(health, "keystore").find("\"uptime_ms\""), std::string::npos)
      << health;
  EXPECT_NE(health_section(health, "keystore").find("\"epoch\":\"0\""), std::string::npos)
      << health;
  EXPECT_NE(health_section(health, "p1").find("\"epoch\":\"0\""), std::string::npos)
      << health;

  // Unknown routes are a typed error, not a hang or crash.
  EXPECT_THROW(AdminClient::fetch(svc.server->admin_port(), "adm.nope"),
               std::runtime_error);
}

TEST(ObservabilityAdminTest, ScrapeSurvivesConcurrentLoadAndCountsItself) {
  typename P2Server<MockGroup>::Options opt;
  opt.admin = true;
  Obs svc(opt);
  auto client = svc.client();
  crypto::Rng rng(3);
  for (int i = 0; i < 4; ++i) {
    const auto m = svc.gg.gt_random(rng);
    ASSERT_TRUE(svc.gg.gt_eq(client.decrypt(svc.encrypt(m, rng)), m));
    const std::string text =
        AdminClient::fetch(svc.server->admin_port(), kAdmMetrics);
    EXPECT_EQ(telemetry::prometheus_lint(text), "");
  }
#if DLR_TELEMETRY_ENABLED
  EXPECT_EQ(svc.server->admin()->scrapes(), 4u);
#endif
}

// ---- trace integrity under the fault injector ---------------------------------

TEST(ObservabilityFaultTest, RetriedAndDuplicatedFramesNeverCrossLinkTraces) {
  Obs svc;
  typename DecryptionClient<MockGroup>::Options copt;
  copt.request_timeout = transport::Millis{300};
  copt.retry.max_attempts = 41;
  copt.retry.base = transport::Millis{2};
  copt.retry.cap = transport::Millis{20};
  copt.conn_wrapper = [](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    transport::FaultPlan::Rates rates;
    rates.drop = 0.06;       // forces request-timeout retries
    rates.duplicate = 0.10;  // server may serve the same attempt twice
    rates.delay = 0.10;      // reorders frames across sessions
    rates.delay_ms = 2;
    return std::make_shared<transport::FaultInjector>(
        std::move(fc), transport::FaultPlan::seeded(20260807, rates));
  };
  auto client = svc.client(copt);
  crypto::Rng rng(5);
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    const auto m = svc.gg.gt_random(rng);
    ASSERT_TRUE(svc.gg.gt_eq(client.decrypt(svc.encrypt(m, rng)), m));
  }

  const auto imp = exported_spans(svc);
#if DLR_TELEMETRY_ENABLED
  const auto roots = spans_labeled(imp, "svc.client.dec");
  ASSERT_EQ(roots.size(), static_cast<std::size_t>(kRequests));
  std::set<std::uint64_t> root_traces;
  std::map<std::uint64_t, std::uint64_t> attempt_trace;  // attempt id -> trace
  for (const auto* r : roots) {
    EXPECT_TRUE(root_traces.insert(r->trace_id).second)
        << "two operations shared a trace id";
  }
  std::map<std::uint64_t, int> attempts_per_trace;
  for (const auto* a : spans_labeled(imp, "svc.client.attempt")) {
    attempt_trace[a->id] = a->trace_id;
    ++attempts_per_trace[a->trace_id];
    EXPECT_TRUE(root_traces.count(a->trace_id))
        << "attempt span outside any operation's trace";
  }
  // Retries happened (the drop rate guarantees it across 24 requests), and
  // every extra attempt stayed inside its own operation's trace.
  std::size_t total_attempts = 0;
  for (const auto& [trace, n] : attempts_per_trace) total_attempts += n;
  EXPECT_GT(total_attempts, static_cast<std::size_t>(kRequests))
      << "fault plan injected no retries; raise the rates";

  for (const auto* w : spans_labeled(imp, "ks.dec")) {
    if (w->trace_id == 0) continue;  // an untraced duplicate of a dead session
    ASSERT_TRUE(attempt_trace.count(w->parent))
        << "server span parented to something that is not a client attempt";
    EXPECT_EQ(attempt_trace.at(w->parent), w->trace_id)
        << "server span cross-linked into a different operation's trace";
  }
#endif
}

// ---- structured events --------------------------------------------------------

TEST(ObservabilityEventTest, RefreshEmitsPrepareCommitPairAndSlowRequestsLog) {
  typename P2Server<MockGroup>::Options opt;
  // Every crypto batch outlasts the slow-request threshold: the event fires.
  opt.inject_crypto_delay = std::chrono::milliseconds(
      static_cast<int>(P2Server<MockGroup>::kSlowRequestMs) + 20);
  Obs svc(opt);
  auto client = svc.client();
  crypto::Rng rng(6);
  const auto m = svc.gg.gt_random(rng);
  ASSERT_TRUE(svc.gg.gt_eq(client.decrypt(svc.encrypt(m, rng)), m));
  client.refresh();
  EXPECT_EQ(client.epoch(), 1u);

  const auto evs = telemetry::EventLog::global().events();
#if DLR_TELEMETRY_ENABLED
  auto has = [&](telemetry::EventKind k) {
    return std::any_of(evs.begin(), evs.end(),
                       [&](const telemetry::Event& e) { return e.kind == k; });
  };
  EXPECT_TRUE(has(telemetry::EventKind::EpochPrepare));
  EXPECT_TRUE(has(telemetry::EventKind::EpochCommit));
  EXPECT_TRUE(has(telemetry::EventKind::SlowRequest));
  const std::string dump = telemetry::EventLog::global().dump_jsonl();
  EXPECT_NE(dump.find("\"kind\":\"epoch-commit\""), std::string::npos);
#else
  EXPECT_TRUE(evs.empty());
#endif
}

}  // namespace
}  // namespace dlr::service
