// dlrbench: the repository benchmark for the DLR decryption service and the
// multi-tenant keystore (see README.md in this directory).
//
//   dlrbench --workload <svc_mock_dec|svc_ss256_refresh|ks_zipf_sched>
//            --seed N --seconds S --trace 0|1 [--tmp-dir DIR]
//
// One process runs one workload, closed loop:
//
//   1. set-up, repeated kSetupReps times from the same seed (keygen, server
//      start, provisioning, client connect); setup_s is the median. Every
//      repetition also runs a short serialized counting phase whose counter
//      deltas give exact operation counts per decrypt and per refresh; the
//      repetitions must agree on them exactly.
//   2. warm-up, then the timed window of --seconds: every decrypt is checked
//      against its plaintext and timed.
//   3. post-window checks: refresh latency probe (where refreshes are not
//      part of the window), a fresh ciphertext after the last refresh, and on
//      the keystore a settled leakage-budget audit plus a shard restart whose
//      digest must not change.
//   4. --trace 1 adds a second, traced window with a bench.dec/bench.refresh
//      span around every public call and reports per-layer self times from
//      the span tree.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the metrics are the end-to-end set with --trace 0
// and the per-layer set with --trace 1. Any wrong plaintext, failed
// operation, budget violation, digest mismatch or dropped traced span makes
// "correct" false and the exit code 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "seeded.hpp"
#include "group/mock_group.hpp"
#include "group/tate_group.hpp"
#include "keystore/ks_client.hpp"
#include "keystore/ks_server.hpp"
#include "service/client.hpp"
#include "service/p2_server.hpp"
#include "span_tree.hpp"
#include "stats.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace dlr;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 9;
constexpr int kCountDecrypts = 8;
constexpr int kCountRefreshes = 2;
// Post-window refresh latency probe: this many sequential refreshes, or fewer
// if kProbeSeconds run out first.
constexpr std::size_t kProbeRefreshes = 4000;
constexpr double kProbeSeconds = 3.0;
constexpr double kWarmupSeconds = 1.0;
constexpr int kServerWorkers = 2;
// A window is extended past --seconds until this many decrypts completed, so
// p99 always has ten samples beyond it (bounded by kMaxWindowStretch).
constexpr std::uint64_t kMinDecrypts = 1000;
constexpr double kMaxWindowStretch = 4.0;
// Share of the tracer's finished-span buffer the traced window may fill.
constexpr double kTraceBufferShare = 0.6;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return since(t0) * 1e3; }

/// Phase log on stderr: wall seconds since start, so slow phases show.
void phase(const char* what) {
  static const auto t0 = Clock::now();
  std::fprintf(stderr, "dlrbench: %7.2fs %s\n", since(t0), what);
}

// ---- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--tmp-dir") a.tmp_dir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

// ---- program counters ----------------------------------------------------------

/// The program's own counters and histograms the benchmark reads, as deltas.
struct Counters {
  double pairings = 0, fast_sqr = 0, bytes = 0, frames = 0, sessions = 0;
  double retries = 0, stale = 0, shed = 0;
  double sched_sweeps = 0, sched_failures = 0, sched_refreshes = 0;
  double map_fetch_waits = 0, compactions = 0;
  double batch_size_sum = 0, batch_size_n = 0, batch_wait_sum = 0, batch_wait_n = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.pairings = pairings - o.pairings;
    d.fast_sqr = fast_sqr - o.fast_sqr;
    d.bytes = bytes - o.bytes;
    d.frames = frames - o.frames;
    d.sessions = sessions - o.sessions;
    d.retries = retries - o.retries;
    d.stale = stale - o.stale;
    d.shed = shed - o.shed;
    d.sched_sweeps = sched_sweeps - o.sched_sweeps;
    d.sched_failures = sched_failures - o.sched_failures;
    d.sched_refreshes = sched_refreshes - o.sched_refreshes;
    d.map_fetch_waits = map_fetch_waits - o.map_fetch_waits;
    d.compactions = compactions - o.compactions;
    d.batch_size_sum = batch_size_sum - o.batch_size_sum;
    d.batch_size_n = batch_size_n - o.batch_size_n;
    d.batch_wait_sum = batch_wait_sum - o.batch_wait_sum;
    d.batch_wait_n = batch_wait_n - o.batch_wait_n;
    return d;
  }
};

/// Read the counters after letting server threads finish their bookkeeping:
/// a reply can reach the client before the server's send counter is bumped.
Counters read_counters() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto& reg = telemetry::Registry::global();
  auto c = [&](const char* name) { return static_cast<double>(reg.counter_value(name)); };
  Counters s;
  s.pairings = static_cast<double>(reg.sum_counters("group.pairing.prepared"));
  s.fast_sqr = static_cast<double>(reg.sum_counters("group.gt.fast_sqr"));
  s.bytes = c("transport.bytes.sent");
  s.frames = c("transport.frames.sent");
  s.sessions = c("svc.sessions");
  s.retries = c("svc.client.retries") + c("ks.client.retries");
  s.stale = c("svc.stale");
  s.shed = c("svc.shed.overload") + c("svc.shed.deadline") + c("svc.shed.refresh");
  s.sched_sweeps = c("ks.sched.sweeps");
  s.sched_failures = c("ks.sched.failures");
  s.sched_refreshes = c("ks.sched.refreshes");
  s.map_fetch_waits = c("ks.client.map_fetch_waits");
  s.compactions = c("ks.compactions");
  // Histograms are looked up in a snapshot: asking the registry for one by
  // name would create it with the caller's bounds if the server had not yet.
  for (const auto& h : reg.snapshot().histograms) {
    if (h.name == "svc.batch.size") {
      s.batch_size_sum = h.sum;
      s.batch_size_n = static_cast<double>(h.count);
    } else if (h.name == "svc.batch.wait_us") {
      s.batch_wait_sum = h.sum;
      s.batch_wait_n = static_cast<double>(h.count);
    }
  }
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// User + system CPU time of the whole process so far.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ---- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything a run measured and every check it made.
struct Report {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> e2e, layers;

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void e(std::string n, double v, std::string u) { e2e.push_back({std::move(n), v, std::move(u)}); }
  void l(std::string n, double v, std::string u) {
    layers.push_back({std::move(n), v, std::move(u)});
  }
};

// ---- exact operation counts ---------------------------------------------------

/// Counter deltas per decrypt and per refresh from a serialized phase (one
/// caller, no concurrent traffic), so they carry no timing noise.
struct OpCounts {
  Counters per_dec, per_ref;

  [[nodiscard]] bool same_as(const OpCounts& o) const {
    auto eq = [](const Counters& a, const Counters& b) {
      return a.pairings == b.pairings && a.fast_sqr == b.fast_sqr && a.bytes == b.bytes &&
             a.frames == b.frames && a.sessions == b.sessions;
    };
    return eq(per_dec, o.per_dec) && eq(per_ref, o.per_ref);
  }
};

Counters scaled(const Counters& c, double n) {
  Counters s = c;
  s.pairings /= n;
  s.fast_sqr /= n;
  s.bytes /= n;
  s.frames /= n;
  s.sessions /= n;
  return s;
}

/// Run `dec(i)` kCountDecrypts times, then `ref(i)` kCountRefreshes times.
OpCounts count_ops(Report& rep, const std::function<bool(int)>& dec,
                   const std::function<bool(int)>& ref) {
  const Counters c0 = read_counters();
  for (int i = 0; i < kCountDecrypts; ++i) rep.op(dec(i));
  const Counters c1 = read_counters();
  for (int i = 0; i < kCountRefreshes; ++i) rep.op(ref(i));
  const Counters c2 = read_counters();
  return {scaled(c1 - c0, kCountDecrypts), scaled(c2 - c1, kCountRefreshes)};
}

void report_counts(Report& rep, const OpCounts& oc) {
  rep.l("group.pairings_per_dec", oc.per_dec.pairings, "count");
  rep.l("group.pairings_per_refresh", oc.per_ref.pairings, "count");
  rep.l("group.gt_fast_sqr_per_dec", oc.per_dec.fast_sqr, "count");
  rep.l("group.gt_fast_sqr_per_refresh", oc.per_ref.fast_sqr, "count");
  rep.l("transport.bytes_per_dec", oc.per_dec.bytes, "B");
  rep.l("transport.bytes_per_refresh", oc.per_ref.bytes, "B");
  rep.l("transport.frames_per_dec", oc.per_dec.frames, "count");
  rep.l("transport.frames_per_refresh", oc.per_ref.frames, "count");
  rep.l("transport.sessions_per_dec", oc.per_dec.sessions, "count");
  rep.l("transport.sessions_per_refresh", oc.per_ref.sessions, "count");
}

// ---- set-up timing -------------------------------------------------------------

struct SetupTimes {
  double keygen_s = 0, provision_s = 0, connect_s = 0, total_s = 0;
};

void report_setup(Report& rep, const std::vector<SetupTimes>& reps) {
  auto med = [&](double SetupTimes::*f) {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(r.*f);
    return dlrbench::median(v);
  };
  rep.e("setup_s", med(&SetupTimes::total_s), "s");
  rep.l("setup.keygen_s", med(&SetupTimes::keygen_s), "s");
  rep.l("setup.provision_s", med(&SetupTimes::provision_s), "s");
  rep.l("setup.connect_s", med(&SetupTimes::connect_s), "s");
}

// ---- closed-loop window -------------------------------------------------------

constexpr std::size_t kSlices = 20;  // window slices for the throughput time series
// Decrypt latencies kept per generator thread (a uniform sample beyond).
constexpr std::size_t kLatencySamples = std::size_t{1} << 18;

struct ThreadLog {
  explicit ThreadLog(std::uint64_t seed) : dec_ms(kLatencySamples, seed) {}
  dlrbench::Reservoir dec_ms;
  std::vector<double> ref_ms;
  std::uint64_t dec_ok = 0, dec_failed = 0, ref_failed = 0;
  std::vector<std::uint64_t> slice_ops = std::vector<std::uint64_t>(kSlices, 0);
};

struct Window {
  std::vector<double> dec_ms, ref_ms;  // sorted
  std::uint64_t dec_ok = 0, dec_failed = 0, ref_failed = 0;
  double elapsed_s = 0;
  Counters delta;
  std::size_t spans_dropped = 0;

  [[nodiscard]] double dec_rps() const { return ratio(static_cast<double>(dec_ok), elapsed_s); }
};

/// `threads` closed-loop generators call step(thread, i, log) until the
/// window ends or `max_ops` steps were issued (0 = no cap). An uncapped
/// window runs on past `seconds` until `min_decrypts` steps completed
/// (bounded by kMaxWindowStretch). The tracer's
/// finished-span buffer is emptied first so the window starts with the same
/// span budget every time.
template <class Step>
Window run_window(int threads, double seconds, std::size_t max_ops, std::uint64_t min_decrypts,
                  Step&& step) {
  telemetry::Tracer::global().reset();
  std::atomic<std::size_t> issued{0};
  std::atomic<std::uint64_t> completed{0};
  std::vector<ThreadLog> logs;
  logs.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) logs.emplace_back(0x1a7e0000ULL + static_cast<std::uint64_t>(t));
  const Counters c0 = read_counters();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  auto after = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const auto deadline = after(seconds);
  const auto hard_deadline = after(seconds * kMaxWindowStretch);
  auto more = [&] {
    const auto now = Clock::now();
    return now < deadline ||
           (max_ops == 0 && now < hard_deadline && completed.load() < min_decrypts);
  };
  std::vector<std::thread> ts;
  ts.reserve(logs.size());
  for (int t = 0; t < threads; ++t)
    ts.emplace_back([&, t] {
      auto& log = logs[static_cast<std::size_t>(t)];
      const double slice_s = seconds / kSlices;
      for (std::size_t i = 0; more(); ++i) {
        if (max_ops != 0 && issued.fetch_add(1) >= max_ops) break;
        step(t, i, log);
        ++completed;
        const auto k = static_cast<std::size_t>(since(t0) / slice_s);
        ++log.slice_ops[std::min(k, kSlices - 1)];
      }
    });
  for (auto& t : ts) t.join();
  Window w;
  // Sized for the fullest case up front, so its memory does not vary.
  w.dec_ms.assign(logs.size() * kLatencySamples, 0.0);
  w.dec_ms.clear();
  w.elapsed_s = since(t0);
  const double cpu_s = cpu_seconds() - cpu0;
  w.delta = read_counters() - c0;
  w.spans_dropped = telemetry::Tracer::global().dropped();
  for (auto& log : logs) {
    w.dec_ms.insert(w.dec_ms.end(), log.dec_ms.begin(), log.dec_ms.end());
    w.ref_ms.insert(w.ref_ms.end(), log.ref_ms.begin(), log.ref_ms.end());
    w.dec_ok += log.dec_ok;
    w.dec_failed += log.dec_failed;
    w.ref_failed += log.ref_failed;
  }
  // Diagnostics: throughput over time and how busy the process kept its CPUs.
  std::string series;
  for (std::size_t k = 0; k < kSlices; ++k) {
    double n = 0;
    for (const auto& log : logs) n += static_cast<double>(log.slice_ops[k]);
    series += " " + std::to_string(std::lround(n / (seconds / kSlices)));
  }
  std::fprintf(stderr, "dlrbench: window %.2f s wall, %.2f s cpu; steps/s by slice:%s\n",
               w.elapsed_s, cpu_s, series.c_str());
  std::sort(w.dec_ms.begin(), w.dec_ms.end());
  std::sort(w.ref_ms.begin(), w.ref_ms.end());
  return w;
}

/// Time one checked operation into `ms` and count it in the thread's log.
/// With `span_label` set (traced window) the call runs inside that span.
template <class Sink, class Fn>
bool timed_op(const char* span_label, Sink& ms, Fn&& fn) {
  const auto t0 = Clock::now();
  bool ok = false;
  try {
    std::optional<telemetry::ScopedSpan> span;
    if (span_label) span.emplace(span_label);
    ok = fn();
  } catch (const std::exception&) {
    ok = false;
  }
  if (ok) ms.push_back(ms_since(t0));
  return ok;
}

void count_window(Report& rep, const Window& w) {
  for (std::uint64_t i = 0; i < w.dec_ok; ++i) rep.op(true);
  for (std::uint64_t i = 0; i < w.dec_failed; ++i) rep.op(false);
  for (std::size_t i = 0; i < w.ref_ms.size(); ++i) rep.op(true);
  for (std::uint64_t i = 0; i < w.ref_failed; ++i) rep.op(false);
}

/// End-to-end metrics of the untraced window.
void report_window(Report& rep, const Window& w, double refresh_p50_ms) {
  rep.e("dec_rps", w.dec_rps(), "1/s");
  if (!w.dec_ms.empty()) {
    rep.e("dec_p50_ms", dlrbench::percentile(w.dec_ms, 0.50), "ms");
    rep.e("dec_p99_ms", dlrbench::percentile(w.dec_ms, 0.99), "ms");
  }
  rep.check(dlrbench::tail_supported(w.dec_ms.size(), 0.99),
            "fewer than 1000 decrypts in the window: p99 has < 10 samples beyond it");
  rep.e("refresh_p50_ms", refresh_p50_ms, "ms");
}

/// Window-level per-layer counts (per 1000 decrypts where a rate).
void report_window_counts(Report& rep, const Window& w) {
  const double kops = static_cast<double>(w.dec_ok) / 1000.0;
  const Counters& d = w.delta;
  rep.l("service.client.retries_per_kop", ratio(d.retries, kops), "1/kop");
  rep.l("service.server.stale_per_kop", ratio(d.stale, kops), "1/kop");
  rep.l("service.server.shed", d.shed, "count");
  rep.l("service.server.batch_size_mean", ratio(d.batch_size_sum, d.batch_size_n), "count");
  rep.l("service.server.batch_wait_us_mean", ratio(d.batch_wait_sum, d.batch_wait_n), "us");
  rep.l("keystore.refreshes_per_kop", ratio(d.sched_refreshes, kops), "1/kop");
  rep.l("keystore.sched.sweeps", d.sched_sweeps, "count");
  rep.l("keystore.sched.failures", d.sched_failures, "count");
  rep.l("keystore.map_fetch_waits", d.map_fetch_waits, "count");
  rep.l("keystore.journal.compactions", d.compactions, "count");
  rep.l("telemetry.window_spans_dropped", static_cast<double>(w.spans_dropped), "count");
}

/// Per-layer self times of the traced window (+ any traced refreshes after
/// it), the span-buffer checks, and the tracing overhead. The spans and the
/// registry are exported as JSONL to `export_path`.
void report_trace(Report& rep, const Window& untraced, const Window& traced,
                  const std::string& export_path) {
  const auto spans = telemetry::Tracer::global().spans();
  if (!telemetry::export_global_jsonl(export_path, "dlrbench"))
    std::fprintf(stderr, "dlrbench: could not write %s\n", export_path.c_str());
  const std::size_t dropped = telemetry::Tracer::global().dropped();
  const dlrbench::Breakdown b = dlrbench::analyze(spans);
  const double n = static_cast<double>(b.decrypts);
  const double nr = static_cast<double>(b.refreshes);
  auto per_dec_ms = [&](double ns) { return ratio(ns, n) / 1e6; };
  auto per_ref_ms = [&](double ns) { return ratio(ns, nr) / 1e6; };
  rep.l("service.client.self_ms", per_dec_ms(b.client), "ms");
  rep.l("transport.wire_ms", per_dec_ms(b.wire), "ms");
  rep.l("schemes.p1.round1_ms", per_dec_ms(b.p1_round1), "ms");
  rep.l("schemes.p1.finish_ms", per_dec_ms(b.p1_finish), "ms");
  rep.l("service.server.self_ms", per_dec_ms(b.server), "ms");
  rep.l("keystore.server.self_ms", per_dec_ms(b.ks_server), "ms");
  rep.l("schemes.p2.round2_ms_per_item",
        ratio(b.p2_round2, static_cast<double>(b.round2_items)) / 1e6, "ms");
  rep.l("trace.other_ms", per_dec_ms(b.other), "ms");
  rep.l("trace.dec_mean_ms", per_dec_ms(b.root_total), "ms");
  rep.l("trace.accounted_frac", b.accounted_frac(), "frac");
  rep.l("trace.decrypts", n, "count");
  rep.l("schemes.p1.refresh_ms", per_ref_ms(b.ref_p1), "ms");
  rep.l("service.server.refresh_ms", per_ref_ms(b.ref_server), "ms");
  rep.l("keystore.refresh_ms", per_ref_ms(b.ref_ks_server), "ms");
  rep.l("schemes.p2.ref_round2_ms", per_ref_ms(b.ref_p2), "ms");
  rep.l("trace.refreshes", nr, "count");
  rep.l("telemetry.spans_per_dec", ratio(static_cast<double>(spans.size()), n), "count");
  rep.l("telemetry.spans_dropped", static_cast<double>(dropped), "count");
  rep.l("telemetry.trace_overhead_frac", 1.0 - ratio(traced.dec_rps(), untraced.dec_rps()),
        "frac");
  rep.check(dropped == 0, "traced run dropped spans: trace invalid");
  rep.check(b.decrypts > 0, "traced run recorded no bench.dec spans");
  rep.check(std::abs(b.accounted_frac() - 1.0) <= 0.05,
            "layer self times do not account for the traced decrypt time within 5%");
}

/// Largest traced-window op count that keeps the traced spans within
/// kTraceBufferShare of the tracer's buffer, from the untraced window's
/// spans per op (+1 for the benchmark's own span).
std::size_t trace_cap(const Window& untraced, std::size_t spans_in_window) {
  const double ops = static_cast<double>(untraced.dec_ok + untraced.ref_ms.size());
  const double per_op =
      ratio(static_cast<double>(spans_in_window + untraced.spans_dropped), ops) + 1.0;
  return static_cast<std::size_t>(kTraceBufferShare *
                                  static_cast<double>(telemetry::Tracer::kMaxFinished) /
                                  per_op);
}

/// Fill the tracer's finished-span buffer once and empty it again: the
/// vector keeps its capacity, so no window pays for growing it while every
/// recording thread waits on the tracer lock.
void prime_tracer() {
  auto& tr = telemetry::Tracer::global();
  for (std::size_t i = 0; i < telemetry::Tracer::kMaxFinished; ++i) tr.end(tr.begin("bench.prime"));
  tr.reset();
}

/// Pin the process to the first `n` CPUs it may run on. Called before any
/// thread starts, so every thread inherits the mask. On a virtual machine a
/// wake-up sent to another vCPU is a VM exit whose latency depends on the
/// host's load; keeping a workload's threads on few vCPUs makes most
/// hand-offs local context switches and the runs far less noisy.
void pin_to_cpus(int n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t use;
  CPU_ZERO(&use);
  for (int c = 0, k = 0; c < CPU_SETSIZE && k < n; ++c)
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &use);
      ++k;
    }
  if (sched_setaffinity(0, sizeof use, &use) != 0) std::perror("dlrbench: sched_setaffinity");
}

/// The refresh latency probe: `refresh(i)` back to back, sorted latencies.
std::vector<double> probe_refreshes(Report& rep, bool traced,
                                    const std::function<void(std::size_t)>& refresh) {
  std::vector<double> ms;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kProbeRefreshes && since(t0) < kProbeSeconds; ++i)
    rep.op(timed_op(traced ? "bench.refresh" : nullptr, ms, [&] {
      refresh(i);
      return true;
    }));
  std::sort(ms.begin(), ms.end());
  return ms;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- single-key service workloads ----------------------------------------------

struct SvcConfig {
  int clients = 4;
  std::size_t lambda = 256;
  int refresh_every = 0;   // one refresh per this many decrypts in the window (0 = none)
  std::size_t pool = 1024;  // pre-encrypted requests per client, cycled
};

template <group::BilinearGroup GG>
struct SvcFixture {
  using Core = schemes::DlrCore<GG>;
  GG gg;
  schemes::DlrParams prm;
  typename Core::KeyGenResult kg;
  std::unique_ptr<service::P2Server<GG>> server;
  std::shared_ptr<service::P1Runtime<GG>> p1;
  std::vector<std::unique_ptr<service::DecryptionClient<GG>>> clients;
  SetupTimes setup;

  SvcFixture(GG g, const SvcConfig& cfg, std::uint64_t seed) : gg(std::move(g)) {
    const auto t0 = Clock::now();
    prm = schemes::DlrParams::derive(gg.scalar_bits(), cfg.lambda);
    crypto::Rng rng(424242 + seed);
    kg = Core::gen(gg, prm, rng);
    setup.keygen_s = since(t0);

    const auto t1 = Clock::now();
    typename service::P2Server<GG>::Options so;
    so.workers = kServerWorkers;
    so.adaptive_parallel = false;  // no coordinate fan-out: same threads on any machine
    server = std::make_unique<service::P2Server<GG>>(gg, prm, kg.sk2,
                                                     crypto::Rng(seed * 2 + 2), so);
    p1 = std::make_shared<service::P1Runtime<GG>>(gg, prm, kg.pk, kg.sk1,
                                                  schemes::P1Mode::Plain,
                                                  crypto::Rng(seed * 2 + 1));
    setup.provision_s = since(t1);

    const auto t2 = Clock::now();
    server->start();
    for (int c = 0; c < cfg.clients; ++c)
      clients.push_back(std::make_unique<service::DecryptionClient<GG>>(p1, server->port()));
    setup.connect_s = since(t2);
    setup.total_s = since(t0);
  }

  ~SvcFixture() {
    for (auto& c : clients) c->close();
    if (server) server->stop();
  }
  SvcFixture(const SvcFixture&) = delete;
  SvcFixture& operator=(const SvcFixture&) = delete;
};

template <group::BilinearGroup GG>
struct Request {
  typename GG::GT m;
  typename schemes::DlrCore<GG>::Ciphertext ct;
};

template <group::BilinearGroup GG>
std::vector<Request<GG>> make_requests(const GG& gg,
                                       const typename schemes::DlrCore<GG>::PkTable& tbl,
                                       std::size_t n, std::uint64_t seed) {
  using Core = schemes::DlrCore<GG>;
  crypto::Rng rng(seed);
  std::vector<Request<GG>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request<GG> r;
    r.m = gg.gt_random(rng);
    r.ct = Core::enc_precomp(gg, tbl, r.m, rng);
    out.push_back(std::move(r));
  }
  return out;
}

template <group::BilinearGroup GG>
Report run_svc(const Args& args, GG gg, const SvcConfig& cfg) {
  using Core = schemes::DlrCore<GG>;
  Report rep;
  const std::uint64_t seed = args.seed;

  // 1. Set-up repetitions, each with an exact-count phase on fresh state.
  std::vector<SetupTimes> setups;
  std::optional<OpCounts> counts;
  std::unique_ptr<SvcFixture<GG>> fx;
  for (int r = 0; r < kSetupReps; ++r) {
    fx.reset();
    fx = std::make_unique<SvcFixture<GG>>(gg, cfg, seed);
    setups.push_back(fx->setup);
    const typename Core::PkTable tbl(fx->gg, fx->kg.pk);
    const auto reqs = make_requests(fx->gg, tbl, kCountDecrypts, seed * 31 + 5);
    auto& c0 = *fx->clients[0];
    const OpCounts oc = count_ops(
        rep, [&](int i) { return fx->gg.gt_eq(c0.decrypt(reqs[i].ct), reqs[i].m); },
        [&](int) {
          c0.refresh();
          return true;
        });
    if (counts) rep.check(counts->same_as(oc), "operation counts differ between set-ups");
    else counts = oc;
  }
  report_setup(rep, setups);
  report_counts(rep, *counts);
  phase("set-up repetitions and counting done");

  // 2. Inputs, warm-up and the timed window.
  const typename Core::PkTable tbl(fx->gg, fx->kg.pk);
  std::vector<std::vector<Request<GG>>> pools;
  for (int c = 0; c < cfg.clients; ++c)
    pools.push_back(make_requests(fx->gg, tbl, cfg.pool, seed * 1000003 + 77 + c));
  // Refresh positions: client c refreshes before its decrypt i when
  // (i + offset_c) % (refresh_every * clients) == 0 -- one refresh per
  // refresh_every decrypts overall, clients staggered, phase from the seed.
  const std::size_t period = static_cast<std::size_t>(cfg.refresh_every) *
                             static_cast<std::size_t>(cfg.clients);
  std::vector<std::size_t> offset(cfg.clients, 0);
  if (period != 0) {
    std::uint64_t st = seed;
    const std::size_t shift = dlrbench::splitmix64(st) % cfg.refresh_every;
    for (int c = 0; c < cfg.clients; ++c)
      offset[c] = (shift + static_cast<std::size_t>(c) * cfg.refresh_every) % period;
  }

  auto window = [&](double seconds, std::size_t cap, std::uint64_t min_dec, bool traced,
                    bool refreshes) {
    return run_window(cfg.clients, seconds, cap, min_dec, [&](int t, std::size_t i, ThreadLog& log) {
      auto& client = *fx->clients[static_cast<std::size_t>(t)];
      if (refreshes && period != 0 && i > 0 && (i + offset[t]) % period == 0) {
        if (!timed_op(traced ? "bench.refresh" : nullptr, log.ref_ms, [&] {
              client.refresh();
              return true;
            }))
          ++log.ref_failed;
      }
      const auto& rq = pools[static_cast<std::size_t>(t)][i % cfg.pool];
      if (timed_op(traced ? "bench.dec" : nullptr, log.dec_ms,
                   [&] { return fx->gg.gt_eq(client.decrypt(rq.ct), rq.m); }))
        ++log.dec_ok;
      else
        ++log.dec_failed;
    });
  };

  phase("inputs generated");
  (void)window(kWarmupSeconds, 0, 0, false, false);
  phase("warm-up done");
  const Window w = window(args.seconds, 0, kMinDecrypts, false, true);
  phase("window done");
  count_window(rep, w);
  rep.check(w.dec_failed == 0 && w.ref_failed == 0, "failed or wrong decrypts in the window");

  std::optional<Window> tw;
  if (args.trace) {
    // Spans of the untraced window (the program's own) size the traced one.
    const std::size_t recorded = telemetry::Tracer::global().spans().size();
    tw = window(args.seconds, trace_cap(w, recorded), 0, true, true);
    count_window(rep, *tw);
    rep.check(tw->dec_failed == 0 && tw->ref_failed == 0,
              "failed or wrong decrypts in the traced window");
  }

  // 3. Refresh latency probe (workloads without in-window refreshes), then
  //    a fresh ciphertext must decrypt after the last refresh: sk1 + sk2 was
  //    preserved by every refresh.
  auto& c0 = *fx->clients[0];
  const std::vector<double> ref_ms =
      period != 0 ? w.ref_ms : probe_refreshes(rep, args.trace, [&](std::size_t) { c0.refresh(); });
  {
    const auto fresh = make_requests(fx->gg, tbl, 1, seed * 7 + 3);
    bool ok = false;
    try {
      ok = fx->gg.gt_eq(c0.decrypt(fresh[0].ct), fresh[0].m);
    } catch (const std::exception&) {
    }
    rep.op(ok);
    rep.check(ok, "a fresh ciphertext did not decrypt after the last refresh");
  }
  report_window(rep, w, ref_ms.empty() ? 0 : dlrbench::percentile(ref_ms, 0.5));
  report_window_counts(rep, w);
  rep.l("keystore.journal.segments", 0, "count");
  rep.l("keystore.recover_ms", 0, "ms");
  if (tw) report_trace(rep, w, *tw, args.tmp_dir + "/trace_" + args.workload + ".jsonl");
  phase("post-window checks done");
  fx.reset();
  phase("torn down");
  rep.e("peak_rss_mb", peak_rss_mb(), "MB");
  return rep;
}

// ---- keystore workload ---------------------------------------------------------

using group::MockGroup;
using keystore::KeyId;
using keystore::KsFleet;
using keystore::KsServer;
using keystore::ShardInfo;
using keystore::ShardMap;
using MockCore = schemes::DlrCore<MockGroup>;

struct KsConfig {
  int keys = 10000;
  int shards = 2;
  int clients = 4;
  std::size_t lambda = 256;
  double zipf = 1.0;
  std::size_t pool = 8192;  // pre-encrypted Zipf requests per client, cycled
};

struct KsFixture {
  MockGroup gg = group::make_mock();
  schemes::DlrParams prm;
  KsConfig cfg;
  std::uint64_t seed;
  std::vector<KeyId> ids;
  std::vector<MockCore::KeyGenResult> kgs;
  std::vector<std::string> dirs;
  std::vector<std::unique_ptr<KsServer<MockGroup>>> servers;
  std::unique_ptr<KsFleet<MockGroup>> fleet;
  std::uint64_t map_version = 1;
  SetupTimes setup;

  KsFixture(const KsConfig& c, std::uint64_t s, const std::string& tmp_root)
      : cfg(c), seed(s) {
    const auto t0 = Clock::now();
    prm = schemes::DlrParams::derive(gg.scalar_bits(), cfg.lambda);
    crypto::Rng rng(424242 + seed);
    ids.reserve(static_cast<std::size_t>(cfg.keys));
    kgs.reserve(static_cast<std::size_t>(cfg.keys));
    for (int i = 0; i < cfg.keys; ++i) {
      ids.push_back({"tenant" + std::to_string(i % 97), "key" + std::to_string(i)});
      kgs.push_back(MockCore::gen(gg, prm, rng));
    }
    setup.keygen_s = since(t0);

    const auto t1 = Clock::now();
    for (int sh = 0; sh < cfg.shards; ++sh) {
      std::string tmpl = tmp_root + "/ks_s" + std::to_string(sh) + "_XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " + tmp_root);
      dirs.push_back(tmpl);
      servers.push_back(make_server(sh));
      servers.back()->start();
    }
    install_map();
    setup.connect_s = since(t1);

    // Bulk provisioning through the deferred-durability path: the P2 half
    // into the owning shard's store (one flush per shard), the P1 half into
    // the fleet.
    const auto t2 = Clock::now();
    const ShardMap map = servers[0]->shard_map();
    for (int i = 0; i < cfg.keys; ++i)
      servers[map.owner(ids[i])]->store().put(ids[i], kgs[i].sk2);
    for (auto& sv : servers)
      if (auto* j = sv->store().journal()) j->flush();
    typename KsFleet<MockGroup>::Options fo;
    fo.refresh_threshold = 0.5;
    fo.scheduler.sweep_interval = std::chrono::milliseconds(20);
    fo.scheduler.max_concurrent = 2;
    fleet = std::make_unique<KsFleet<MockGroup>>(gg, prm, crypto::Rng(seed + 7),
                                                 servers[0]->port(), fo);
    fleet->set_map(servers[0]->shard_map());
    for (int i = 0; i < cfg.keys; ++i)
      fleet->add_key(ids[i], kgs[i].pk, kgs[i].sk1, schemes::P1Mode::Plain);
    setup.provision_s = since(t2);
    setup.total_s = since(t0);
  }

  ~KsFixture() {
    if (fleet) fleet->close();
    for (auto& s : servers)
      if (s) s->stop();
    servers.clear();
    std::error_code ec;
    for (const auto& d : dirs) std::filesystem::remove_all(d, ec);
  }
  KsFixture(const KsFixture&) = delete;
  KsFixture& operator=(const KsFixture&) = delete;

  [[nodiscard]] std::unique_ptr<KsServer<MockGroup>> make_server(int shard) {
    typename KsServer<MockGroup>::Options so;
    so.shard_id = static_cast<std::uint32_t>(shard);
    so.workers = kServerWorkers;
    so.adaptive_parallel = false;
    so.store.state_dir = dirs[static_cast<std::size_t>(shard)];
    so.store.journal.fsync_each = false;
    so.store.budget_bits = 64;
    so.store.leak_per_dec_bits = 1;
    so.store.refresh_threshold = 0.5;
    return std::make_unique<KsServer<MockGroup>>(
        gg, prm, crypto::Rng(seed * 100 + static_cast<std::uint64_t>(shard)), so);
  }

  /// Publish a map over the current server ports at the next version.
  void install_map() {
    std::vector<ShardInfo> infos;
    for (int s = 0; s < cfg.shards; ++s)
      infos.push_back({static_cast<std::uint32_t>(s), "", servers[s]->port()});
    const ShardMap m(map_version++, std::move(infos));
    for (auto& s : servers) s->set_shard_map(m);
    if (fleet) fleet->set_map(m);
  }

  [[nodiscard]] std::size_t backlog() {
    std::size_t n = fleet->scheduler() ? fleet->scheduler()->backlog() : 0;
    for (auto& s : servers) n += s->store().candidates().size();
    return n;
  }

  /// Highest leakage-budget share spent by any key on any shard.
  [[nodiscard]] double max_spent_frac() {
    double m = 0;
    for (auto& s : servers) {
      (void)s->store().candidates();  // publishes leak.ks.max_spent_frac for this shard
      m = std::max(m, telemetry::Registry::global().gauge_value("leak.ks.max_spent_frac"));
    }
    return m;
  }
};

/// Keys the counting phase and the refresh probe use: fixed-width ids
/// ("tenantNN"/"keyNNNN"), so their frames have the same size for every
/// seed, picked by the seed.
std::vector<std::size_t> fixed_width_keys(int keys, std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> out;
  std::uint64_t st = seed ^ 0xc0ffeeULL;
  while (out.size() < n) {
    const auto k = static_cast<std::size_t>(1000 + dlrbench::splitmix64(st) % 9000);
    if (static_cast<int>(k) < keys && k % 97 >= 10) out.push_back(k);
  }
  return out;
}

Report run_ks(const Args& args, const KsConfig& cfg) {
  Report rep;
  const std::uint64_t seed = args.seed;
  std::filesystem::create_directories(args.tmp_dir);

  std::vector<SetupTimes> setups;
  std::optional<OpCounts> counts;
  std::unique_ptr<KsFixture> fx;
  const auto count_keys = fixed_width_keys(cfg.keys, kCountDecrypts + kCountRefreshes, seed);
  for (int r = 0; r < kSetupReps; ++r) {
    fx.reset();
    phase("set-up");
    fx = std::make_unique<KsFixture>(cfg, seed, args.tmp_dir);
    setups.push_back(fx->setup);
    crypto::Rng rng(seed * 31 + 5);
    std::vector<Request<MockGroup>> reqs;
    for (int i = 0; i < kCountDecrypts; ++i) {
      const auto k = count_keys[static_cast<std::size_t>(i)];
      Request<MockGroup> rq;
      rq.m = fx->gg.gt_random(rng);
      rq.ct = MockCore::enc(fx->gg, fx->kgs[k].pk, rq.m, rng);
      reqs.push_back(std::move(rq));
    }
    const OpCounts oc = count_ops(
        rep,
        [&](int i) {
          return fx->gg.gt_eq(fx->fleet->decrypt(fx->ids[count_keys[i]], reqs[i].ct), reqs[i].m);
        },
        [&](int i) {
          fx->fleet->refresh_key(fx->ids[count_keys[kCountDecrypts + i]]);
          return true;
        });
    if (counts) rep.check(counts->same_as(oc), "operation counts differ between set-ups");
    else counts = oc;
  }
  report_setup(rep, setups);
  report_counts(rep, *counts);
  phase("set-up repetitions and counting done");

  // Zipf(1.0) request pools: rank r -> key perm[r], a seeded permutation so
  // the hot keys (and their shards) change with the seed.
  std::vector<std::size_t> perm(static_cast<std::size_t>(cfg.keys));
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  dlrbench::seeded_shuffle(perm, seed);
  struct KsRequest {
    std::size_t key;
    Request<MockGroup> rq;
  };
  std::vector<std::vector<KsRequest>> pools(static_cast<std::size_t>(cfg.clients));
  for (int c = 0; c < cfg.clients; ++c) {
    dlrbench::Zipf zipf(perm.size(), cfg.zipf, seed * 1000 + static_cast<std::uint64_t>(c));
    crypto::Rng rng(5000 + seed * 10 + static_cast<std::uint64_t>(c));
    auto& pool = pools[static_cast<std::size_t>(c)];
    pool.reserve(cfg.pool);
    for (std::size_t i = 0; i < cfg.pool; ++i) {
      KsRequest r;
      r.key = perm[zipf.next()];
      r.rq.m = fx->gg.gt_random(rng);
      r.rq.ct = MockCore::enc(fx->gg, fx->kgs[r.key].pk, r.rq.m, rng);
      pool.push_back(std::move(r));
    }
  }

  auto window = [&](double seconds, std::size_t cap, std::uint64_t min_dec, bool traced) {
    return run_window(cfg.clients, seconds, cap, min_dec, [&](int t, std::size_t i, ThreadLog& log) {
      const auto& r = pools[static_cast<std::size_t>(t)][i % cfg.pool];
      if (timed_op(traced ? "bench.dec" : nullptr, log.dec_ms, [&] {
            return fx->gg.gt_eq(fx->fleet->decrypt(fx->ids[r.key], r.rq.ct), r.rq.m);
          }))
        ++log.dec_ok;
      else
        ++log.dec_failed;
    });
  };

  phase("inputs generated");
  fx->fleet->start_scheduler();
  (void)window(kWarmupSeconds, 0, 0, false);
  phase("warm-up done");
  const Window w = window(args.seconds, 0, kMinDecrypts, false);
  phase("window done");
  count_window(rep, w);
  rep.check(w.dec_failed == 0, "failed or wrong decrypts in the window");
  std::size_t segments = 0;
  for (auto& s : fx->servers)
    if (auto* j = s->store().journal()) segments += j->segment_count();

  std::optional<Window> tw;
  if (args.trace) {
    const std::size_t recorded = telemetry::Tracer::global().spans().size();
    tw = window(args.seconds, trace_cap(w, recorded), 0, true);
    count_window(rep, *tw);
    rep.check(tw->dec_failed == 0, "failed or wrong decrypts in the traced window");
  }

  // Settle the scheduler backlog, then audit every key's leakage budget.
  const auto settle0 = Clock::now();
  while (fx->backlog() > 0 && since(settle0) < 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fx->fleet->stop_scheduler();
  phase("scheduler settled");
  const double max_spent = fx->max_spent_frac();
  rep.check(max_spent <= 1.0, "a key spent more than its leakage budget");

  // Refresh latency probe: generator-issued refreshes of seeded keys.
  const auto probe_keys = fixed_width_keys(cfg.keys, 400, seed + 1);
  const std::vector<double> ref_ms = probe_refreshes(rep, args.trace, [&](std::size_t i) {
    fx->fleet->refresh_key(fx->ids[probe_keys[i % probe_keys.size()]]);
  });
  report_window(rep, w, ref_ms.empty() ? 0 : dlrbench::percentile(ref_ms, 0.5));
  report_window_counts(rep, w);
  rep.l("keystore.journal.segments", static_cast<double>(segments), "count");
  if (tw) report_trace(rep, w, *tw, args.tmp_dir + "/trace_" + args.workload + ".jsonl");

  // Shard restart: rebuild shard 0 from its journal; the digest must match.
  phase("refresh probe done");
  const Bytes before = fx->servers[0]->store().digest_all();
  fx->servers[0]->stop();
  fx->servers[0].reset();
  phase("shard 0 stopped");
  const auto r0 = Clock::now();
  fx->servers[0] = fx->make_server(0);
  fx->servers[0]->start();
  const double recover_ms = ms_since(r0);
  const bool digest_ok = fx->servers[0]->store().digest_all() == before;
  rep.op(digest_ok);
  rep.check(digest_ok, "shard digest changed across restart");
  rep.l("keystore.recover_ms", recover_ms, "ms");
  fx->install_map();
  phase("shard 0 restarted");
  {
    // The restarted shard serves one of its own keys from the journal. A
    // fresh fleet carries the request: the long-lived fleet's cached
    // connection to the old shard would first wait out its request timeout.
    // The key must never have been refreshed, so its original sk1 still
    // pairs with the journaled share.
    const ShardMap map = fx->servers[0]->shard_map();
    crypto::Rng rng(seed * 13 + 1);
    bool ok = false;
    for (std::size_t i = 0; i < fx->ids.size(); ++i) {
      if (map.owner(fx->ids[i]) != 0 || fx->servers[0]->store().epoch_of(fx->ids[i]) != 0)
        continue;
      KsFleet<MockGroup> probe(fx->gg, fx->prm, crypto::Rng(seed + 11), fx->servers[0]->port(),
                               {});
      probe.set_map(map);
      probe.add_key(fx->ids[i], fx->kgs[i].pk, fx->kgs[i].sk1, schemes::P1Mode::Plain);
      const auto m = fx->gg.gt_random(rng);
      try {
        ok = fx->gg.gt_eq(
            probe.decrypt(fx->ids[i], MockCore::enc(fx->gg, fx->kgs[i].pk, m, rng)), m);
      } catch (const std::exception&) {
      }
      probe.close();
      break;
    }
    rep.op(ok);
    rep.check(ok, "restarted shard failed to serve its key");
  }
  phase("shard restart checked");
  fx.reset();
  phase("torn down");
  rep.e("peak_rss_mb", peak_rss_mb(), "MB");
  return rep;
}

// ---- output --------------------------------------------------------------------

void print_table(const Args& args, const Report& rep) {
  std::printf("\nworkload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", args.workload.c_str(),
              args.seed, args.seconds, args.trace ? 1 : 0);
  auto rows = [](const char* title, const std::vector<Metric>& ms) {
    std::printf("\n%-36s %16s  %s\n", title, "value", "unit");
    for (const auto& m : ms) std::printf("%-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  };
  rows("end-to-end", rep.e2e);
  rows("per-layer", rep.layers);
  std::printf("\n%-36s %16.6g  %s\n", "ops_failed_frac",
              ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
              "frac");
  std::printf("%-36s %16" PRIu64 "  count\n", "ops_attempted", rep.attempted);
  for (const auto& p : rep.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
}

void print_json(const Report& rep, bool trace) {
  const bool correct = rep.failed == 0 && rep.problems.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& m : trace ? rep.layers : rep.e2e) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dlrbench: %s\n", e.what());
    return 2;
  }
  // The runtime-bound workloads run on one vCPU, the pairing workload on two
  // (its P1 work in the clients and P2 work in the workers overlap).
  std::function<Report()> run;
  int cpus = 1;
  if (args.workload == "svc_mock_dec") {
    run = [&] { return run_svc(args, group::make_mock(), SvcConfig{4, 256, 0, 1024}); };
  } else if (args.workload == "svc_ss256_refresh") {
    cpus = 2;
    run = [&] { return run_svc(args, group::make_tate_ss256(), SvcConfig{2, 64, 32, 192}); };
  } else if (args.workload == "ks_zipf_sched") {
    run = [&] { return run_ks(args, KsConfig{}); };
  } else {
    std::fprintf(stderr, "dlrbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  pin_to_cpus(cpus);
  phase("start");
  prime_tracer();
  Report rep;
  try {
    rep = run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dlrbench: %s\n", e.what());
    return 1;
  }
  print_table(args, rep);
  print_json(rep, args.trace);
  return rep.failed == 0 && rep.problems.empty() ? 0 : 1;
}
