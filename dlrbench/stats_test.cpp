// Tests of the benchmark's own arithmetic: nearest-rank percentiles under the
// ten-samples-beyond rule, medians, quartiles (checked against values from
// Python's statistics.quantiles), and self-time subtraction on synthetic
// span trees whose server spans sit on other threads.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "span_tree.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void check_near(double got, double want, const std::string& what) {
  check(std::fabs(got - want) < 1e-9, what + ": got " + std::to_string(got) + ", want " +
                                          std::to_string(want));
}

dlr::telemetry::Span span(std::uint64_t id, std::uint64_t parent, const char* label,
                          std::int64_t start, std::int64_t end) {
  dlr::telemetry::Span s;
  s.id = id;
  s.parent = parent;
  s.label = label;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check_near(dlrbench::percentile(v, 0.99), 990, "p99 of 1..1000");
  check_near(dlrbench::percentile(v, 0.50), 500, "p50 of 1..1000");
  check(dlrbench::samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  check(dlrbench::tail_supported(1000, 0.99), "p99 is supported at n=1000");
  check(!dlrbench::tail_supported(999, 0.99), "p99 is not supported at n=999");
  check(dlrbench::tail_supported(200, 0.95), "p95 is supported at n=200");
  check(!dlrbench::tail_supported(199, 0.95), "p95 is not supported at n=199");
  check(dlrbench::rank_index(1, 0.99) == 0, "single sample is every percentile");
  check(dlrbench::rank_index(4, 0.0) == 0, "p0 clamps to the first sample");
}

void test_median_quartiles() {
  check_near(dlrbench::median({3, 1, 2}), 2, "odd median");
  check_near(dlrbench::median({4, 1, 3, 2}), 2.5, "even median");
  // Reference values: python3 -c "import statistics; statistics.quantiles(v, n=4)".
  auto q = dlrbench::quartiles({1, 2, 3, 4});
  check_near(q.q1, 1.25, "q1 [1..4]");
  check_near(q.q2, 2.5, "q2 [1..4]");
  check_near(q.q3, 3.75, "q3 [1..4]");
  q = dlrbench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check_near(q.q1, 2.75, "q1 [1..10]");
  check_near(q.q3, 8.25, "q3 [1..10]");
  q = dlrbench::quartiles({5.0, 1.0});
  check_near(q.q1, 0.0, "q1 of two samples extrapolates");
  check_near(q.q3, 6.0, "q3 of two samples extrapolates");
  q = dlrbench::quartiles({3.1, 0.2, 7.7, 1.5, 9.9, 4.4, 2.0});
  check_near(q.q1, 1.5, "q1 of seven");
  check_near(q.q2, 3.1, "q2 of seven");
  check_near(q.q3, 7.7, "q3 of seven");
  check_near(dlrbench::relative_spread({1, 2, 3, 4}), (3.75 - 1.25) / 2.5, "relative spread");
}

void test_covered() {
  using IV = std::vector<std::pair<std::int64_t, std::int64_t>>;
  check(dlrbench::covered_ns(IV{{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25, "overlaps merge");
  check(dlrbench::covered_ns(IV{{-5, 10}, {90, 120}}, 0, 100) == 20, "children clip to parent");
  check(dlrbench::covered_ns(IV{{0, 10}, {10, 20}}, 0, 100) == 20, "touching intervals");
  check(dlrbench::covered_ns(IV{}, 0, 100) == 0, "no children");
}

/// Single-key service tree: the server's svc.dec (another thread) is a child
/// of the client's attempt through the wire trace context.
void test_service_tree() {
  const std::vector<dlr::telemetry::Span> spans = {
      // Completion order, as the tracer stores them: inner spans first.
      span(5, 3, "dec.round1", 5, 30),
      span(7, 6, "dec.round2", 42, 58),
      span(6, 3, "svc.dec", 40, 60),  // server thread
      span(8, 3, "dec.finish", 80, 90),
      span(3, 2, "svc.client.attempt", 5, 95),
      span(2, 1, "svc.client.dec", 2, 98),
      span(1, 0, "bench.dec", 0, 100),
  };
  const dlrbench::SpanTree t(spans);
  check(t.self_ns[4] == 90 - 25 - 20 - 10, "attempt self excludes round1, server, finish");
  check(t.self_ns[2] == 4, "server self excludes round2");
  const auto b = dlrbench::analyze(spans);
  check(b.decrypts == 1, "one decrypt root");
  check_near(b.client, 4 + 6, "client = bench.dec + svc.client.dec self");
  check_near(b.wire, 35, "wire = attempt self");
  check_near(b.p1_round1, 25, "round1");
  check_near(b.p1_finish, 10, "finish");
  check_near(b.server, 4, "server self");
  check_near(b.p2_round2, 16, "round2");
  check(b.round2_items == 1, "one round2 item");
  check_near(b.accounted_frac(), 1.0, "layers account for the root");
}

/// A retried decryption: two attempts, the first one's server span overlaps
/// a straggling child; a server span that outlives its parent is clipped.
void test_retry_and_clipping() {
  const std::vector<dlr::telemetry::Span> spans = {
      span(4, 3, "dec.round1", 1, 11),
      span(5, 3, "svc.dec", 15, 25),
      span(3, 2, "svc.client.attempt", 1, 20),
      span(7, 6, "dec.round1", 30, 40),
      span(8, 6, "dec.finish", 50, 60),
      span(6, 2, "svc.client.attempt", 30, 60),
      span(2, 1, "svc.client.dec", 0, 60),
      span(1, 0, "bench.dec", 0, 60),
  };
  const dlrbench::SpanTree t(spans);
  check(t.self_ns[2] == 19 - 10 - 5, "attempt clips a server span that outlives it");
  const auto b = dlrbench::analyze(spans);
  // The server span's clipped 5 ns past its attempt are still its own self
  // time; the summed layers exceed the root by exactly that overhang.
  check_near(b.client + b.wire + b.p1_round1 + b.p1_finish + b.server, 65, "layer sum");
  check_near(b.root_total, 60, "root total");
}

/// Keystore route: no client spans, server ks.dec spans unattached.
void test_keystore_tree() {
  const std::vector<dlr::telemetry::Span> spans = {
      span(2, 1, "dec.round1", 10, 30),
      span(11, 10, "dec.round2", 45, 55),
      span(10, 0, "ks.dec", 40, 60),  // server root (no trace context)
      span(3, 1, "dec.finish", 70, 80),
      span(1, 0, "bench.dec", 0, 100),
      // A scheduler refresh: client-side roots plus server ks.refresh spans.
      span(20, 0, "ref.round1", 200, 204),
      span(22, 21, "ref.round2", 210, 216),
      span(21, 0, "ks.refresh", 208, 218),
      span(23, 0, "ks.refresh", 220, 223),
      span(24, 0, "ref.finish", 225, 227),
  };
  const auto b = dlrbench::analyze(spans);
  check_near(b.client, 70 - 40, "client = root self outside the round1..finish gap");
  check_near(b.wire, 40 - 20, "wire = gap minus the unattached server span");
  check_near(b.ks_server, 10, "keystore server self");
  check_near(b.p2_round2, 10, "round2");
  check_near(b.accounted_frac(), 1.0, "keystore layers account for the root");
  check(b.refreshes == 1, "one completed refresh");
  check_near(b.ref_p1, 6, "P1 refresh = ref.round1 + ref.finish");
  check_near(b.ref_ks_server, 4 + 3, "keystore refresh self");
  check_near(b.ref_p2, 6, "ref.round2");
}

}  // namespace

int main() {
  test_percentiles();
  test_median_quartiles();
  test_covered();
  test_service_tree();
  test_retry_and_clipping();
  test_keystore_tree();
  if (failures == 0) std::printf("dlrbench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
