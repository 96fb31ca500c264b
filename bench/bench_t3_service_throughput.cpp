// T3: decryption-service throughput -- requests/sec of the multi-threaded
// single-key P2Server (the one-key KsServer) over real loopback TCP, swept
// across worker-pool sizes and concurrent-client counts.
//
// The backend is the mock group with a large leakage parameter, so each
// DistDec round 2 is ~ell HPSKE ciphertext exponentiations: enough work per
// request for the worker pool to matter, cheap enough to sweep in seconds.
// Every request is a real network round trip (frame codec + CRC + session
// mux), so the numbers include the full transport stack, not just the crypto.
//
// On a single-core host the worker sweep measures coordination overhead
// rather than speedup -- rows report, they do not assert; bench gauges
// bench.rps{workers=..,clients=..} land in the --json export.
//
// With --faults the bench switches to the robustness workload: every client
// connection runs behind a seeded transport::FaultInjector
// (drop/duplicate/delay/bit-flip/sever at fixed rates) while refreshes fire,
// and the run reports recovery latency -- the wall time of each decrypt()
// that survived at least one reconnect -- as bench.recovery.* gauges next to
// the degraded throughput. BENCH_robustness_baseline.json is the committed
// --faults --json output.
//
// With --scrape the full-load (workers=4, clients=8) point reruns with the
// admin endpoint live and a scraper thread polling adm.metrics throughout;
// the final scraped svc.* series and the measured scrape overhead (scraped
// vs. unscraped req/s of the same point, < 1% target) fold into the --json
// export as bench.scrape.* gauges.
//
// With --overload the bench becomes an open-loop offered-load sweep against
// a deliberately throttled server (2 workers, 1-item batches, an injected
// 1.5 ms crypto delay, an 8-slot queue): closed-loop capacity is measured
// first, then 0.5x/1x/2x that rate is OFFERED on a fixed schedule regardless
// of responses. Accepted requests report goodput + tail latency; rejected
// ones must carry the typed retryable Overloaded error with a nonzero
// retry-after hint (bench.overload.* gauges; any untyped rejection counts in
// bench.overload.shed_untyped, target 0). BENCH_overload_baseline.json is
// the committed --overload --json output.
//
//   bench_t3_service_throughput [--requests N] [--lambda L] [--json out.jsonl]
//                               [--faults] [--seed S] [--scrape]
//                               [--overload] [--duration SECS]
#include <algorithm>
#include <atomic>
#include <cstring>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "group/mock_group.hpp"
#include "keystore/ks_protocol.hpp"
#include "service/admin.hpp"
#include "service/client.hpp"
#include "service/p2_server.hpp"
#include "telemetry/export.hpp"
#include "transport/fault.hpp"

namespace {

using namespace dlr;
using group::MockGroup;
using Core = schemes::DlrCore<MockGroup>;

struct Config {
  int requests = 200;     // total per sweep point, split across clients
  std::size_t lambda = 2048;
  std::uint64_t seed = 1;  // --seed: offsets every rng + workload shuffle
};

int int_flag(int argc, char** argv, const char* name, int def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  return def;
}

struct Fixture {
  MockGroup gg = group::make_mock();
  schemes::DlrParams prm;
  Core::KeyGenResult kg;
  std::shared_ptr<service::P1Runtime<MockGroup>> p1;
  // Comb tables for pk.g / pk.Z, built once; every sweep point encrypts
  // hundreds of ciphertexts against the same pk.
  std::unique_ptr<Core::PkTable> pk_tbl;

  std::uint64_t seed;

  explicit Fixture(std::size_t lambda, std::uint64_t seed_ = 1) : seed(seed_) {
    prm = schemes::DlrParams::derive(gg.scalar_bits(), lambda);
    crypto::Rng rng(424242 + seed);
    kg = Core::gen(gg, prm, rng);
    pk_tbl = std::make_unique<Core::PkTable>(gg, kg.pk);
    p1 = std::make_shared<service::P1Runtime<MockGroup>>(
        gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain, crypto::Rng(seed * 2 + 1));
  }
};

/// What the scraper thread saw while the point ran (last/extreme values of
/// the polled svc.* series plus how many scrapes landed).
struct ScrapeStats {
  std::uint64_t scrapes = 0;
  std::map<std::string, double> last_svc;  // final value of each svc_* sample
  double max_queue_depth = 0;
};

/// The server's default largest batch; the unbatched control runs at 1.
const std::size_t kDefaultMaxBatch = service::P2Server<MockGroup>::Options{}.max_batch;

/// One sweep point: W workers, C clients, `requests` total decryptions.
/// Returns requests/sec of the whole run (wall clock, all clients). With
/// `scrape` non-null the admin endpoint is live and polled for the whole
/// timed region -- the observability tax the --scrape mode measures.
double run_point(Fixture& fx, int workers, int clients, int requests,
                 ScrapeStats* scrape = nullptr, std::size_t max_batch = kDefaultMaxBatch) {
  typename service::P2Server<MockGroup>::Options sopt;
  sopt.workers = workers;
  sopt.admin = scrape != nullptr;
  sopt.max_batch = max_batch;
  service::P2Server<MockGroup> server(fx.gg, fx.prm, fx.kg.sk2,
                                      crypto::Rng(fx.seed * 2 + 2), sopt);
  server.start();

  std::atomic<bool> scraping{scrape != nullptr};
  std::thread scraper;
  if (scrape) {
    const auto port = server.admin_port();
    scraper = std::thread([&, port] {
      while (scraping.load()) {
        try {
          const auto samples = telemetry::parse_prometheus(
              service::AdminClient::fetch(port, service::kAdmMetrics));
          ++scrape->scrapes;
          for (const auto& [name, v] : samples) {
            if (name.rfind("svc_", 0) != 0) continue;
            scrape->last_svc[name] = v;
            if (name == "svc_queue_depth")
              scrape->max_queue_depth = std::max(scrape->max_queue_depth, v);
          }
        } catch (const std::exception&) {
          // Server tearing down mid-fetch at the end of the point; harmless.
        }
        // 40 scrapes/s -- orders of magnitude hotter than a production
        // Prometheus cadence (15s), while keeping the tax measurable.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }

  // Pre-encrypt outside the timed region; every client thread gets its own
  // connection (DecryptionClient) and its own slice of the work.
  const int per_client = (requests + clients - 1) / clients;
  crypto::Rng rng(5000 + workers * 100 + clients + fx.seed * 10000);
  std::vector<typename Core::Ciphertext> cts;
  cts.reserve(per_client);
  for (int i = 0; i < per_client; ++i)
    cts.push_back(Core::enc_precomp(fx.gg, *fx.pk_tbl, fx.gg.gt_random(rng), rng));
  bench::seeded_shuffle(cts, fx.seed);  // --seed replays the same request order

  std::vector<std::unique_ptr<service::DecryptionClient<MockGroup>>> conns;
  conns.reserve(clients);
  for (int c = 0; c < clients; ++c)
    conns.push_back(std::make_unique<service::DecryptionClient<MockGroup>>(
        fx.p1, server.port()));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  ts.reserve(clients);
  for (int c = 0; c < clients; ++c)
    ts.emplace_back([&, c] {
      for (const auto& ct : cts) bench::sink(conns[static_cast<std::size_t>(c)]->decrypt(ct));
    });
  for (auto& t : ts) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  scraping.store(false);
  if (scraper.joinable()) scraper.join();
  for (auto& c : conns) c->close();
  server.stop();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double total = static_cast<double>(per_client) * clients;
  return total / secs;
}

struct FaultRun {
  double rps = 0;
  int ok = 0, failed = 0;
  std::uint64_t injected = 0;    // faults the injectors actually fired
  std::uint64_t reconnects = 0;  // client reconnect count across the run
  std::vector<double> recovery_ms;  // latency of decrypts that reconnected
};

/// Robustness point: `clients` faulted connections decrypt while refreshes
/// fire every few requests. A decrypt whose client reconnected during the
/// call is a "recovery"; its wall time is the recovery latency.
FaultRun run_faults(Fixture& fx, std::uint64_t seed, int clients, int requests) {
  typename service::P2Server<MockGroup>::Options sopt;
  sopt.workers = 4;
  service::P2Server<MockGroup> server(fx.gg, fx.prm, fx.kg.sk2, crypto::Rng(seed * 2 + 2),
                                      sopt);
  server.start();

  const int per_client = (requests + clients - 1) / clients;
  crypto::Rng rng(6000 + seed);
  std::vector<typename Core::Ciphertext> cts;
  cts.reserve(per_client);
  for (int i = 0; i < per_client; ++i)
    cts.push_back(Core::enc_precomp(fx.gg, *fx.pk_tbl, fx.gg.gt_random(rng), rng));

  std::mutex inj_mu;
  std::vector<std::shared_ptr<transport::FaultInjector>> injectors;
  std::atomic<std::uint64_t> conn_no{0};
  typename service::DecryptionClient<MockGroup>::Options copt;
  copt.request_timeout = transport::Millis{500};
  copt.retry.max_attempts = 41;
  copt.retry.base = transport::Millis{2};
  copt.retry.cap = transport::Millis{40};
  copt.auto_refresh_every = 16;
  copt.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    transport::FaultPlan::Rates rates;
    rates.drop = 0.01;
    rates.duplicate = 0.02;
    rates.delay = 0.05;
    rates.bitflip = 0.01;
    rates.sever = 0.01;
    rates.delay_ms = 1;
    auto inj = std::make_shared<transport::FaultInjector>(
        std::move(fc),
        transport::FaultPlan::seeded(seed * 1000003 + conn_no.fetch_add(1), rates));
    std::lock_guard lock(inj_mu);
    injectors.push_back(inj);
    return inj;
  };

  std::vector<std::unique_ptr<service::DecryptionClient<MockGroup>>> conns;
  conns.reserve(clients);
  for (int c = 0; c < clients; ++c)
    conns.push_back(std::make_unique<service::DecryptionClient<MockGroup>>(
        fx.p1, server.port(), copt));

  FaultRun out;
  std::mutex out_mu;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  ts.reserve(clients);
  for (int c = 0; c < clients; ++c)
    ts.emplace_back([&, c] {
      auto& conn = *conns[static_cast<std::size_t>(c)];
      int ok = 0, failed = 0;
      std::vector<double> rec;
      for (const auto& ct : cts) {
        const auto r0 = conn.reconnects();
        const auto d0 = std::chrono::steady_clock::now();
        try {
          bench::sink(conn.decrypt(ct));
          ++ok;
        } catch (const std::exception&) {
          ++failed;  // retry budget exhausted under sustained faults
        }
        if (conn.reconnects() > r0)
          rec.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - d0)
                            .count());
      }
      std::lock_guard lock(out_mu);
      out.ok += ok;
      out.failed += failed;
      out.recovery_ms.insert(out.recovery_ms.end(), rec.begin(), rec.end());
    });
  for (auto& t : ts) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  for (auto& c : conns) {
    out.reconnects += c->reconnects();
    c->close();
  }
  server.stop();
  {
    std::lock_guard lock(inj_mu);
    for (const auto& inj : injectors) out.injected += inj->injected();
  }
  out.rps = out.ok / std::chrono::duration<double>(t1 - t0).count();
  std::sort(out.recovery_ms.begin(), out.recovery_ms.end());
  return out;
}


// ---- open-loop overload sweep (--overload, DESIGN.md §13) ---------------------

/// The throttled server every overload point runs against: capacity is set
/// by the injected per-item delay (2 workers x 1.5 ms), so the sweep's
/// x-axis is stable across hosts, and the 8-slot queue bounds the latency
/// an accepted request can absorb before shedding starts.
typename service::P2Server<MockGroup>::Options overload_server_options() {
  typename service::P2Server<MockGroup>::Options sopt;
  sopt.workers = 2;
  sopt.max_batch = 1;
  sopt.queue_cap = 8;
  sopt.inject_crypto_delay = std::chrono::microseconds{1500};
  return sopt;
}

/// Closed-loop ceiling of the throttled config: 8 clients, each re-sending
/// the moment its reply lands. This is the "capacity" the offered-load
/// multipliers scale from.
double overload_capacity(Fixture& fx, int requests) {
  service::P2Server<MockGroup> server(fx.gg, fx.prm, fx.kg.sk2,
                                      crypto::Rng(fx.seed * 2 + 2),
                                      overload_server_options());
  server.start();
  crypto::Rng rng(8100 + fx.seed);
  const auto ct = Core::enc_precomp(fx.gg, *fx.pk_tbl, fx.gg.gt_random(rng), rng);
  const Bytes body = keystore::encode_ks_request(keystore::default_key_id(), 0,
                                                 fx.p1->begin_decrypt(ct, rng).round1);

  constexpr int kClients = 8;
  const int per_client = (requests + kClients - 1) / kClients;
  std::atomic<int> ok{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  for (int c = 0; c < kClients; ++c)
    ts.emplace_back([&] {
      transport::SessionMux mux(std::make_shared<transport::FramedConn>(
          transport::connect_loopback(server.port()), transport::TransportOptions{}));
      for (int i = 0; i < per_client; ++i) {
        auto sess = mux.open();
        sess->send(transport::FrameType::Data, 1, keystore::kKsDec, body);
        if (sess->recv(transport::Millis{10000}).type == transport::FrameType::Data)
          ok.fetch_add(1);
      }
    });
  for (auto& t : ts) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.stop();
  return ok.load() / secs;
}

struct OverloadStats {
  double offered_target = 0;  // the schedule's rate
  double offered_actual = 0;  // what the senders actually managed
  double goodput = 0;         // accepted replies / wall second
  std::uint64_t sent = 0, ok = 0, shed = 0, deadline_exceeded = 0;
  std::uint64_t other_err = 0, untyped = 0, lost = 0;
  std::vector<double> ok_ms;    // accepted-request latency, sorted
  std::vector<double> hint_ms;  // server retry-after hints, sorted
};

/// One open-loop point: OFFER `offered_rps` requests/sec for `seconds`,
/// on a fixed absolute schedule, regardless of how the server answers.
/// 4 sender threads pace the sends; a receiver per sender drains replies so
/// a slow response never blocks the schedule.
OverloadStats run_overload_point(Fixture& fx, double offered_rps, double seconds) {
  service::P2Server<MockGroup> server(fx.gg, fx.prm, fx.kg.sk2,
                                      crypto::Rng(fx.seed * 2 + 2),
                                      overload_server_options());
  server.start();
  crypto::Rng rng(8200 + fx.seed);
  const auto ct = Core::enc_precomp(fx.gg, *fx.pk_tbl, fx.gg.gt_random(rng), rng);
  const Bytes body = keystore::encode_ks_request(keystore::default_key_id(), 0,
                                                 fx.p1->begin_decrypt(ct, rng).round1);

  constexpr int kSenders = 4;
  const auto n_total =
      std::max<long long>(kSenders, static_cast<long long>(offered_rps * seconds));
  OverloadStats agg;
  agg.offered_target = offered_rps;
  std::mutex agg_mu;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> senders;
  for (int k = 0; k < kSenders; ++k)
    senders.emplace_back([&, k] {
      using Clock = std::chrono::steady_clock;
      OverloadStats local;
      transport::SessionMux mux(std::make_shared<transport::FramedConn>(
          transport::connect_loopback(server.port()), transport::TransportOptions{}));

      std::mutex mu;
      std::condition_variable cv;
      std::deque<std::pair<std::unique_ptr<transport::SessionMux::Session>,
                           Clock::time_point>>
          inflight;
      bool done = false;
      std::thread receiver([&] {
        for (;;) {
          std::unique_lock lk(mu);
          cv.wait(lk, [&] { return done || !inflight.empty(); });
          if (inflight.empty()) return;  // done and drained
          auto [sess, sent_at] = std::move(inflight.front());
          inflight.pop_front();
          lk.unlock();
          try {
            const auto f = sess->recv(transport::Millis{10000});
            const double ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - sent_at)
                                  .count();
            if (f.type == transport::FrameType::Data) {
              ++local.ok;
              local.ok_ms.push_back(ms);
            } else {
              const service::ServiceError e = service::decode_error(f.body);
              if (e.code() == service::ServiceErrc::Overloaded) {
                ++local.shed;
                if (e.retry_after_ms() > 0)
                  local.hint_ms.push_back(static_cast<double>(e.retry_after_ms()));
                else
                  ++local.untyped;
              } else if (e.code() == service::ServiceErrc::DeadlineExceeded) {
                ++local.deadline_exceeded;
              } else {
                ++local.other_err;
              }
            }
          } catch (const std::exception&) {
            ++local.lost;
          }
        }
      });

      try {
        for (long long i = k; i < n_total; i += kSenders) {
          // Absolute schedule: a request that falls behind is sent
          // immediately, never skipped -- the offered load is the contract.
          const auto due =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) /
                                                     offered_rps));
          std::this_thread::sleep_until(due);
          auto sess = mux.open();
          sess->send(transport::FrameType::Data, 1, keystore::kKsDec, body);
          ++local.sent;
          {
            std::lock_guard lk(mu);
            inflight.emplace_back(std::move(sess), Clock::now());
          }
          cv.notify_one();
        }
      } catch (const std::exception&) {
        // Connection died mid-schedule; the remaining sends are lost offers.
      }
      {
        std::lock_guard lk(mu);
        done = true;
      }
      cv.notify_one();
      receiver.join();

      std::lock_guard lk(agg_mu);
      agg.sent += local.sent;
      agg.ok += local.ok;
      agg.shed += local.shed;
      agg.deadline_exceeded += local.deadline_exceeded;
      agg.other_err += local.other_err;
      agg.untyped += local.untyped;
      agg.lost += local.lost;
      agg.ok_ms.insert(agg.ok_ms.end(), local.ok_ms.begin(), local.ok_ms.end());
      agg.hint_ms.insert(agg.hint_ms.end(), local.hint_ms.begin(),
                         local.hint_ms.end());
    });
  for (auto& t : senders) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.stop();

  agg.offered_actual = static_cast<double>(agg.sent) / secs;
  agg.goodput = static_cast<double>(agg.ok) / secs;
  std::sort(agg.ok_ms.begin(), agg.ok_ms.end());
  std::sort(agg.hint_ms.begin(), agg.hint_ms.end());
  return agg;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

struct LatencyStats {
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double rps = 0;
};

/// Single-client closed-loop latency: one connection, sequential decrypts,
/// per-request wall times. A lone request never waits for queue-mates, so
/// the default max_batch and the unbatched max_batch = 1 should read alike;
/// DESIGN.md §12.4 holds the batched p95 to 1.5x the unbatched one.
LatencyStats run_latency(Fixture& fx, std::size_t max_batch, int requests) {
  typename service::P2Server<MockGroup>::Options sopt;
  sopt.workers = 4;
  sopt.max_batch = max_batch;
  service::P2Server<MockGroup> server(fx.gg, fx.prm, fx.kg.sk2,
                                      crypto::Rng(fx.seed * 2 + 2), sopt);
  server.start();

  crypto::Rng rng(7000 + fx.seed);
  std::vector<typename Core::Ciphertext> cts;
  cts.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i)
    cts.push_back(Core::enc_precomp(fx.gg, *fx.pk_tbl, fx.gg.gt_random(rng), rng));

  service::DecryptionClient<MockGroup> conn(fx.p1, server.port());
  std::vector<double> ms;
  ms.reserve(cts.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& ct : cts) {
    const auto d0 = std::chrono::steady_clock::now();
    bench::sink(conn.decrypt(ct));
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - d0)
                     .count());
  }
  const auto t1 = std::chrono::steady_clock::now();
  conn.close();
  server.stop();

  std::sort(ms.begin(), ms.end());
  LatencyStats out;
  out.p50_ms = percentile(ms, 0.50);
  out.p95_ms = percentile(ms, 0.95);
  out.p99_ms = percentile(ms, 0.99);
  out.rps = static_cast<double>(requests) / std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.requests = int_flag(argc, argv, "--requests", cfg.requests);
  cfg.lambda = static_cast<std::size_t>(
      int_flag(argc, argv, "--lambda", static_cast<int>(cfg.lambda)));
  cfg.seed = bench::u64_flag(argc, argv, "--seed", cfg.seed);
  bool faults = false, scrape = false, overload = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) faults = true;
    if (std::strcmp(argv[i], "--scrape") == 0) scrape = true;
    if (std::strcmp(argv[i], "--overload") == 0) overload = true;
  }
  const double duration = int_flag(argc, argv, "--duration", 2);

  if (overload) {
    Fixture fx(cfg.lambda, cfg.seed);
    bench::banner("T3: open-loop overload sweep (offered load vs goodput)",
                  "typed load shedding + deadline propagation, DESIGN.md §13");
    const double capacity = overload_capacity(fx, cfg.requests);
    std::printf(
        "backend=mock  lambda=%zu  seed=%llu  throttled capacity=%.0f req/s  "
        "duration/point=%.0fs\n\n",
        cfg.lambda, static_cast<unsigned long long>(cfg.seed), capacity, duration);

    auto& reg = telemetry::Registry::global();
    reg.gauge("bench.overload.capacity_rps").set(capacity);
    bench::Table table({"offered", "sent/s", "goodput/s", "ok", "shed", "lost",
                        "p50 ms", "p99 ms", "hint p50 ms"});
    double goodput_2x = 0, p99_2x = 0, p99_half = 0;
    std::uint64_t untyped_total = 0;
    for (const double mult : {0.5, 1.0, 2.0}) {
      const OverloadStats st = run_overload_point(fx, capacity * mult, duration);
      const double p50 = percentile(st.ok_ms, 0.50);
      const double p99 = percentile(st.ok_ms, 0.99);
      const double hint_p50 = percentile(st.hint_ms, 0.50);
      if (mult == 0.5) p99_half = p99;
      if (mult == 2.0) {
        goodput_2x = st.goodput;
        p99_2x = p99;
      }
      untyped_total += st.untyped;
      char label[16];
      std::snprintf(label, sizeof label, "%.1fx", mult);
      const telemetry::Labels tag{{"offered", label}};
      reg.gauge("bench.overload.offered_rps", tag).set(st.offered_actual);
      reg.gauge("bench.overload.goodput_rps", tag).set(st.goodput);
      reg.gauge("bench.overload.ok", tag).set(static_cast<double>(st.ok));
      reg.gauge("bench.overload.shed", tag).set(static_cast<double>(st.shed));
      reg.gauge("bench.overload.lost", tag)
          .set(static_cast<double>(st.lost + st.other_err + st.deadline_exceeded));
      reg.gauge("bench.overload.p50_ms", tag).set(p50);
      reg.gauge("bench.overload.p99_ms", tag).set(p99);
      reg.gauge("bench.overload.hint_p50_ms", tag).set(hint_p50);
      table.row({label, bench::fmt(st.offered_actual, 0), bench::fmt(st.goodput, 0),
                 std::to_string(st.ok), std::to_string(st.shed),
                 std::to_string(st.lost + st.other_err + st.deadline_exceeded),
                 bench::fmt(p50, 2), bench::fmt(p99, 2), bench::fmt(hint_p50, 1)});
    }
    table.print();

    // The acceptance gauges the CI soak and bench_diff watch: goodput at 2x
    // offered load as a fraction of closed-loop capacity, accepted-request
    // p99 inflation vs the unloaded (0.5x) run, and the count of rejections
    // that were NOT typed retryable Overloaded-with-hint (target: zero).
    const double frac = capacity > 0 ? goodput_2x / capacity : 0;
    const double ratio = p99_half > 0 ? p99_2x / p99_half : 0;
    reg.gauge("bench.overload.goodput_frac_2x").set(frac);
    reg.gauge("bench.overload.p99_ratio_2x").set(ratio);
    reg.gauge("bench.overload.shed_untyped").set(static_cast<double>(untyped_total));
    std::printf(
        "\n2x offered: goodput %.0f%% of capacity (target >= 70%%)   "
        "p99 %.2fx unloaded (target <= 5x)   untyped sheds %llu (target 0)\n",
        frac * 100.0, ratio, static_cast<unsigned long long>(untyped_total));
    bench::export_json_if_requested(argc, argv, "bench_t3_service_throughput --overload");
    return 0;
  }

  if (faults) {
    const auto seed = cfg.seed;
    Fixture fx(cfg.lambda, seed);
    bench::banner("T3: service throughput under seeded fault injection",
                  "crash-safe refresh / reconnect reconciliation, DESIGN.md §9");
    std::printf("backend=mock  lambda=%zu  ell=%zu  seed=%llu  requests=%d  clients=4\n\n",
                cfg.lambda, fx.prm.ell, static_cast<unsigned long long>(seed),
                cfg.requests);
    const FaultRun r = run_faults(fx, seed, /*clients=*/4, cfg.requests);
    const double p50 = percentile(r.recovery_ms, 0.50);
    const double p95 = percentile(r.recovery_ms, 0.95);
    const double pmax = r.recovery_ms.empty() ? 0 : r.recovery_ms.back();

    auto& reg = telemetry::Registry::global();
    const telemetry::Labels tag{{"seed", std::to_string(seed)}};
    reg.gauge("bench.rps.faulted", tag).set(r.rps);
    reg.gauge("bench.recovery.count", tag).set(static_cast<double>(r.recovery_ms.size()));
    reg.gauge("bench.recovery.p50_ms", tag).set(p50);
    reg.gauge("bench.recovery.p95_ms", tag).set(p95);
    reg.gauge("bench.recovery.max_ms", tag).set(pmax);
    reg.gauge("bench.faults.injected", tag).set(static_cast<double>(r.injected));
    reg.gauge("bench.faults.reconnects", tag).set(static_cast<double>(r.reconnects));
    reg.gauge("bench.faults.gave_up", tag).set(static_cast<double>(r.failed));

    bench::Table table({"metric", "value"});
    table.row({"req/s (degraded)", bench::fmt(r.rps, 1)});
    table.row({"decrypts ok / gave up", std::to_string(r.ok) + " / " + std::to_string(r.failed)});
    table.row({"faults injected", std::to_string(r.injected)});
    table.row({"reconnects", std::to_string(r.reconnects)});
    table.row({"recoveries (decrypts that reconnected)", std::to_string(r.recovery_ms.size())});
    table.row({"recovery latency p50 (ms)", bench::fmt(p50, 2)});
    table.row({"recovery latency p95 (ms)", bench::fmt(p95, 2)});
    table.row({"recovery latency max (ms)", bench::fmt(pmax, 2)});
    table.print();
    bench::export_json_if_requested(argc, argv, "bench_t3_service_throughput --faults");
    return 0;
  }

  Fixture fx(cfg.lambda, cfg.seed);
  bench::banner("T3: decryption-service throughput (req/s over loopback TCP)",
                "service deployment of Construction 5.3, §1.1/§4.4");
  std::printf("backend=mock  lambda=%zu  kappa=%zu  ell=%zu  requests/point=%d  hw_threads=%u\n\n",
              cfg.lambda, fx.prm.kappa, fx.prm.ell, cfg.requests,
              std::thread::hardware_concurrency());

  auto& reg = telemetry::Registry::global();
  bench::Table table({"workers", "clients", "req/s", "ms/req (offered)"});
  double rps_full_load = 0;  // the (4, 8) point, reused as the scrape control
  std::map<int, double> rps_by_workers;  // clients=8 sweep, for scaling ratios
  auto point = [&](int workers, int clients) {
    const double rps = run_point(fx, workers, clients, cfg.requests);
    if (workers == 4 && clients == 8) rps_full_load = rps;
    if (clients == 8) rps_by_workers[workers] = rps;
    reg.gauge("bench.rps", {{"workers", std::to_string(workers)},
                            {"clients", std::to_string(clients)}})
        .set(rps);
    table.row({std::to_string(workers), std::to_string(clients), bench::fmt(rps, 1),
               bench::fmt(1000.0 / rps * clients, 3)});
  };

  // Sweep 1: worker scaling at a fixed client fan-in.
  for (const int w : {1, 2, 4, 8}) point(w, 8);
  // Sweep 2: client fan-in at a fixed pool.
  for (const int c : {2, 4, 16}) point(4, c);

  table.print();

  // Worker-scaling ratios (the CI smoke asserts on these on multicore
  // runners; on a 1-core host they hover near 1 and report only) plus the
  // unbatched control the batching gains are measured against.
  const double rps_unbatched = run_point(fx, 4, 8, cfg.requests, nullptr, /*max_batch=*/1);
  reg.gauge("bench.rps.unbatched",
            {{"workers", "4"}, {"clients", "8"}})
      .set(rps_unbatched);
  reg.gauge("bench.hw_threads")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  if (rps_by_workers.count(1) != 0 && rps_by_workers[1] > 0) {
    reg.gauge("bench.scaling.rps_ratio_4v1").set(rps_by_workers[4] / rps_by_workers[1]);
    reg.gauge("bench.scaling.rps_ratio_8v1").set(rps_by_workers[8] / rps_by_workers[1]);
  }

  // Single-client latency percentiles, batched vs unbatched (DESIGN.md §12.4's
  // budget: batched p95 within 1.5x the unbatched one).
  bench::Table ltable({"max_batch", "p50 ms", "p95 ms", "p99 ms", "req/s"});
  for (const std::size_t mb : {kDefaultMaxBatch, std::size_t{1}}) {
    const LatencyStats ls = run_latency(fx, mb, cfg.requests);
    const telemetry::Labels tag{{"max_batch", std::to_string(mb)}};
    reg.gauge("bench.latency.p50_ms", tag).set(ls.p50_ms);
    reg.gauge("bench.latency.p95_ms", tag).set(ls.p95_ms);
    reg.gauge("bench.latency.p99_ms", tag).set(ls.p99_ms);
    reg.gauge("bench.latency.rps", tag).set(ls.rps);
    ltable.row({std::to_string(mb), bench::fmt(ls.p50_ms, 3),
                bench::fmt(ls.p95_ms, 3), bench::fmt(ls.p99_ms, 3),
                bench::fmt(ls.rps, 1)});
  }
  std::printf("\nsingle-client latency (1 conn, sequential):\n");
  ltable.print();
  std::printf("unbatched control @4w/8c: %s req/s   scaling 4v1=%s 8v1=%s\n",
              bench::fmt(rps_unbatched, 1).c_str(),
              rps_by_workers[1] > 0
                  ? bench::fmt(rps_by_workers[4] / rps_by_workers[1], 2).c_str()
                  : "n/a",
              rps_by_workers[1] > 0
                  ? bench::fmt(rps_by_workers[8] / rps_by_workers[1], 2).c_str()
                  : "n/a");

  if (scrape) {
    // Measure the scrape tax with interleaved control/scraped pairs at the
    // full-load point and compare medians -- a single control taken earlier
    // in the sweep lets thermal/cache drift masquerade as overhead.
    ScrapeStats st;
    std::vector<double> ctl{rps_full_load}, scr;
    for (int rep = 0; rep < 5; ++rep) {
      scr.push_back(run_point(fx, 4, 8, cfg.requests, &st));
      ctl.push_back(run_point(fx, 4, 8, cfg.requests));
    }
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      const std::size_t n = v.size();
      return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    };
    const double rps_control = median(ctl);
    const double rps_scraped = median(scr);
    const double overhead_pct =
        rps_control > 0 ? (rps_control - rps_scraped) / rps_control * 100.0 : 0;
    reg.gauge("bench.scrape.rps").set(rps_scraped);
    reg.gauge("bench.scrape.polls").set(static_cast<double>(st.scrapes));
    reg.gauge("bench.scrape.overhead_pct").set(overhead_pct);
    reg.gauge("bench.scrape.queue_depth.max").set(st.max_queue_depth);
    for (const auto& [name, v] : st.last_svc)
      reg.gauge("bench.scrape." + name).set(v);

    bench::Table stable({"scrape metric", "value"});
    stable.row({"req/s (admin polled)", bench::fmt(rps_scraped, 1)});
    stable.row({"scrape polls landed", std::to_string(st.scrapes)});
    stable.row({"overhead vs unscraped (%)", bench::fmt(overhead_pct, 2)});
    stable.row({"max svc_queue_depth seen", bench::fmt(st.max_queue_depth, 0)});
    stable.print();
  }
  bench::export_json_if_requested(argc, argv, "bench_t3_service_throughput");
  return 0;
}
