// F6 -- substrate microbenchmarks (google-benchmark): field, curve, pairing,
// HPSKE, hash and RNG primitives on both curve presets. These are the cost
// constants every protocol-level number in T1/F2/F4/F5/F7 decomposes into.
//
// Also hosts the T4 pairing hot-path comparison: prepared-vs-plain pairing,
// norm-1 vs generic GT squaring, batch-affine vs generic comb-table build,
// and the headline pair_ct speedup (plain loop vs prepared+batched final
// exp), exported as bench.pair_ct.* gauges with `--json <path>`; and the F_q
// kernel FpCtx selects against the generic CIOS, exported as bench.field.*.
#include <benchmark/benchmark.h>

#include <array>
#include <string>

#include "bench_util.hpp"
#include "group/fixed_pow.hpp"
#include "group/tate_group.hpp"
#include "schemes/dlr.hpp"
#include "schemes/hpske.hpp"

namespace {

using namespace dlr;

template <class GG>
struct Fixture {
  GG gg;
  crypto::Rng rng{12345};
  typename GG::G p, q;
  typename GG::GT z;
  typename GG::Scalar s;

  explicit Fixture(GG g) : gg(std::move(g)) {
    p = gg.g_random(rng);
    q = gg.g_random(rng);
    z = gg.gt_random(rng);
    s = gg.sc_random(rng);
  }
};

Fixture<group::TateSS256>& f256() {
  static Fixture<group::TateSS256> f(group::make_tate_ss256());
  return f;
}
Fixture<group::TateSS512>& f512() {
  static Fixture<group::TateSS512> f(group::make_tate_ss512());
  return f;
}
Fixture<group::TateSS1024>& f1024() {
  static Fixture<group::TateSS1024> f(group::make_tate_ss1024());
  return f;
}

template <class F>
void bench_pairing(benchmark::State& state, F& f) {
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.pair(f.p, f.q));
}
template <class F>
void bench_g_pow(benchmark::State& state, F& f) {
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.g_pow(f.p, f.s));
}
template <class F>
void bench_gt_pow(benchmark::State& state, F& f) {
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.gt_pow(f.z, f.s));
}
template <class F>
void bench_g_mul(benchmark::State& state, F& f) {
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.g_mul(f.p, f.q));
}
template <class F>
void bench_g_random(benchmark::State& state, F& f) {
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.g_random(f.rng));
}
// One refresh's worth of next-period coins per iteration ((l+1) kappa = 88
// at SS256, lambda = 64), reported per point.
template <class F>
void bench_g_random_many(benchmark::State& state, F& f) {
  constexpr std::size_t kPoints = 88;
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.g_random_many(f.rng, kPoints));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kPoints));
}
template <class F>
void bench_gt_random(benchmark::State& state, F& f) {
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.gt_random(f.rng));
}
// Fixed-first-argument pairing: Miller precomputation hoisted out of the
// loop, each iteration is line-evaluation + Lucas final exponentiation.
template <class F>
void bench_pairing_prepared(benchmark::State& state, F& f) {
  const auto pp = f.gg.prepare_pair(f.p);
  for (auto _ : state) benchmark::DoNotOptimize(pp.pair(f.q));
}
// Cyclotomic-style squaring of a norm-1 GT element vs the generic complex
// squaring (the inner op of every GT exponentiation chain).
template <class F>
void bench_gt_sqr_generic(benchmark::State& state, F& f) {
  const auto z = f.gg.pair(f.p, f.q);  // norm-1 by construction
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.ctx().fq2().sqr(z));
}
template <class F>
void bench_gt_sqr_norm1(benchmark::State& state, F& f) {
  const auto z = f.gg.pair(f.p, f.q);
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.ctx().fq2().sqr_norm1(z));
}
// Comb-table construction: Jacobian chain + ONE batch inversion vs one
// Fermat inversion per affine g_mul.
template <class F>
void bench_comb_table_native(benchmark::State& state, F& f) {
  const auto base = f.gg.g_gen();
  const std::size_t windows = (f.gg.scalar_bits() + 3) / 4;
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.g_comb_table(base, windows));
}
template <class F>
void bench_comb_table_generic(benchmark::State& state, F& f) {
  using GG = decltype(f.gg);
  const auto base = f.gg.g_gen();
  const std::size_t windows = (f.gg.scalar_bits() + 3) / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        group::detail::build_table_generic<GG, typename GG::G, group::detail::GOps<GG>>(
            f.gg, base, windows));
  }
}

template <class F>
void bench_hash_to_g(benchmark::State& state, F& f) {
  Bytes data{1, 2, 3, 4};
  std::uint32_t ctr = 0;
  for (auto _ : state) {
    data[0] = static_cast<std::uint8_t>(ctr++);
    benchmark::DoNotOptimize(f.gg.hash_to_g(data));
  }
}

// ---- F_q kernel --------------------------------------------------------------
// Each pass runs kFieldOps independent operations over one array of
// run-time operands, so the rows measure throughput, not the latency of one
// dependent chain. The plain rows go through SS256's FpCtx, which runs the
// MULX/ADX kernel where it is selected; the _generic rows call the generic
// CIOS and add (field::detail) on the same modulus.
using U4 = mpint::UInt<4>;
constexpr std::size_t kFieldOps = 512;

struct FieldOperands {
  const field::FpCtx<4>& fq;
  std::uint64_t n0inv;
  std::vector<U4> x, y, out;
};

FieldOperands& field_operands() {
  static FieldOperands o = [] {
    const auto& fq = f256().gg.ctx().fq();
    FieldOperands r{fq, field::detail::mont_n0inv(fq.modulus().limb[0]), {}, {},
                    std::vector<U4>(kFieldOps)};
    crypto::Rng rng(4242);
    for (std::size_t i = 0; i < kFieldOps; ++i) {
      r.x.push_back(fq.random(rng));
      r.y.push_back(fq.random(rng));
    }
    return r;
  }();
  return o;
}

auto fp_mul_op() {
  return [&o = field_operands()](const U4& a, const U4& b) { return o.fq.mul(a, b); };
}
auto fp_mul_generic_op() {
  return [&o = field_operands()](const U4& a, const U4& b) {
    return field::detail::mont_mul_cios(a, b, o.fq.modulus(), o.n0inv);
  };
}
auto fp_add_op() {
  return [&o = field_operands()](const U4& a, const U4& b) { return o.fq.add(a, b); };
}
auto fp_add_generic_op() {
  return [&o = field_operands()](const U4& a, const U4& b) {
    return field::detail::add_generic(a, b, o.fq.modulus());
  };
}

template <class Op>
void field_pass(Op op) {
  auto& o = field_operands();
  for (std::size_t i = 0; i < kFieldOps; ++i) o.out[i] = op(o.x[i], o.y[i]);
  benchmark::DoNotOptimize(o.out.data());
  benchmark::ClobberMemory();
}

template <class Op>
void bench_field(benchmark::State& state, Op op) {
  for (auto _ : state) field_pass(op);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kFieldOps));
}

void register_group_benches() {
  benchmark::RegisterBenchmark("ss256/pairing", [](benchmark::State& s) { bench_pairing(s, f256()); });
  benchmark::RegisterBenchmark("ss512/pairing", [](benchmark::State& s) { bench_pairing(s, f512()); });
  benchmark::RegisterBenchmark("ss1024/pairing", [](benchmark::State& s) { bench_pairing(s, f1024()); });
  benchmark::RegisterBenchmark("ss256/pairing_prepared", [](benchmark::State& s) { bench_pairing_prepared(s, f256()); });
  benchmark::RegisterBenchmark("ss512/pairing_prepared", [](benchmark::State& s) { bench_pairing_prepared(s, f512()); });
  benchmark::RegisterBenchmark("ss1024/pairing_prepared", [](benchmark::State& s) { bench_pairing_prepared(s, f1024()); });
  benchmark::RegisterBenchmark("ss256/gt_sqr_generic", [](benchmark::State& s) { bench_gt_sqr_generic(s, f256()); });
  benchmark::RegisterBenchmark("ss512/gt_sqr_generic", [](benchmark::State& s) { bench_gt_sqr_generic(s, f512()); });
  benchmark::RegisterBenchmark("ss256/gt_sqr_norm1", [](benchmark::State& s) { bench_gt_sqr_norm1(s, f256()); });
  benchmark::RegisterBenchmark("ss512/gt_sqr_norm1", [](benchmark::State& s) { bench_gt_sqr_norm1(s, f512()); });
  benchmark::RegisterBenchmark("ss256/comb_table_native", [](benchmark::State& s) { bench_comb_table_native(s, f256()); });
  benchmark::RegisterBenchmark("ss256/comb_table_generic", [](benchmark::State& s) { bench_comb_table_generic(s, f256()); });
  benchmark::RegisterBenchmark("ss1024/g_pow", [](benchmark::State& s) { bench_g_pow(s, f1024()); });
  benchmark::RegisterBenchmark("ss256/g_pow", [](benchmark::State& s) { bench_g_pow(s, f256()); });
  benchmark::RegisterBenchmark("ss512/g_pow", [](benchmark::State& s) { bench_g_pow(s, f512()); });
  benchmark::RegisterBenchmark("ss256/gt_pow", [](benchmark::State& s) { bench_gt_pow(s, f256()); });
  benchmark::RegisterBenchmark("ss512/gt_pow", [](benchmark::State& s) { bench_gt_pow(s, f512()); });
  benchmark::RegisterBenchmark("ss256/g_mul", [](benchmark::State& s) { bench_g_mul(s, f256()); });
  benchmark::RegisterBenchmark("ss512/g_mul", [](benchmark::State& s) { bench_g_mul(s, f512()); });
  benchmark::RegisterBenchmark("ss256/g_random", [](benchmark::State& s) { bench_g_random(s, f256()); });
  benchmark::RegisterBenchmark("ss512/g_random", [](benchmark::State& s) { bench_g_random(s, f512()); });
  benchmark::RegisterBenchmark("ss256/g_random_many", [](benchmark::State& s) { bench_g_random_many(s, f256()); });
  benchmark::RegisterBenchmark("ss256/gt_random", [](benchmark::State& s) { bench_gt_random(s, f256()); });
  benchmark::RegisterBenchmark("ss256/hash_to_g", [](benchmark::State& s) { bench_hash_to_g(s, f256()); });
  benchmark::RegisterBenchmark("ss256/fp_mul", [](benchmark::State& s) { bench_field(s, fp_mul_op()); });
  benchmark::RegisterBenchmark("ss256/fp_mul_generic", [](benchmark::State& s) { bench_field(s, fp_mul_generic_op()); });
  benchmark::RegisterBenchmark("ss256/fp_add", [](benchmark::State& s) { bench_field(s, fp_add_op()); });
  benchmark::RegisterBenchmark("ss256/fp_add_generic", [](benchmark::State& s) { bench_field(s, fp_add_generic_op()); });
}

// Multi-exponentiation vs the naive product of powers (the Strauss
// interleaving used for every prod a_i^{s_i} in the protocols).
void bench_multi_pow(benchmark::State& state) {
  auto& f = f256();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<group::TateSS256::G> as;
  std::vector<group::TateSS256::Scalar> ss;
  for (std::size_t i = 0; i < n; ++i) {
    as.push_back(f.gg.g_random(f.rng));
    ss.push_back(f.gg.sc_random(f.rng));
  }
  for (auto _ : state) benchmark::DoNotOptimize(f.gg.g_multi_pow(as, ss));
}

void bench_naive_multi_pow(benchmark::State& state) {
  auto& f = f256();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<group::TateSS256::G> as;
  std::vector<group::TateSS256::Scalar> ss;
  for (std::size_t i = 0; i < n; ++i) {
    as.push_back(f.gg.g_random(f.rng));
    ss.push_back(f.gg.sc_random(f.rng));
  }
  for (auto _ : state) {
    auto acc = f.gg.g_id();
    for (std::size_t i = 0; i < n; ++i) acc = f.gg.g_mul(acc, f.gg.g_pow(as[i], ss[i]));
    benchmark::DoNotOptimize(acc);
  }
}

void bench_hpske_enc(benchmark::State& state) {
  auto& f = f256();
  schemes::HpskeG<group::TateSS256> h(f.gg, static_cast<std::size_t>(state.range(0)));
  const auto sk = h.gen(f.rng);
  for (auto _ : state) benchmark::DoNotOptimize(h.enc(sk, f.p, f.rng));
}

void bench_hpske_dec(benchmark::State& state) {
  auto& f = f256();
  schemes::HpskeG<group::TateSS256> h(f.gg, static_cast<std::size_t>(state.range(0)));
  const auto sk = h.gen(f.rng);
  const auto ct = h.enc(sk, f.p, f.rng);
  for (auto _ : state) benchmark::DoNotOptimize(h.dec(sk, ct));
}

// Fixed-base (comb-table) exponentiation vs the generic wNAF path, and the
// precomputed encryption built on it.
void bench_fixed_pow_g(benchmark::State& state) {
  auto& f = f256();
  group::FixedPowG<group::TateSS256> tbl(f.gg, f.gg.g_gen());
  for (auto _ : state) benchmark::DoNotOptimize(tbl.pow(f.gg, f.gg.sc_random(f.rng)));
}

void bench_enc_vs_precomp(benchmark::State& state) {
  auto& f = f256();
  using Core = dlr::schemes::DlrCore<group::TateSS256>;
  const auto prm = dlr::schemes::DlrParams::derive(f.gg.scalar_bits(), 64);
  auto sys = dlr::schemes::DlrSystem<group::TateSS256>::create(
      f.gg, prm, dlr::schemes::P1Mode::Plain, 606);
  const Core::PkTable tbl(f.gg, sys.pk());
  const auto m = f.gg.gt_random(f.rng);
  if (state.range(0) == 0) {
    for (auto _ : state) benchmark::DoNotOptimize(Core::enc(f.gg, sys.pk(), m, f.rng));
  } else {
    for (auto _ : state) benchmark::DoNotOptimize(Core::enc_precomp(f.gg, tbl, m, f.rng));
  }
}

void bench_sha256_1k(benchmark::State& state) {
  crypto::Rng rng(1);
  const Bytes data = rng.bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}

void bench_chacha_rng_1k(benchmark::State& state) {
  crypto::Rng rng(2);
  Bytes buf(1024);
  for (auto _ : state) {
    rng.fill(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}

// The acceptance-criterion number: pair_ct on SS512 with l = 10 (11
// pairings sharing the first argument), plain per-coordinate gg.pair loop
// vs one prepared Miller pass + one batched final exponentiation.
// Single-threaded unless DLR_PARALLEL is set. Prepared timing includes the
// Miller precomputation, so the ratio is end-to-end honest.
void pair_ct_speedup_report() {
  using GG = group::TateSS512;
  using Core = dlr::schemes::DlrCore<GG>;
  auto& f = f512();
  constexpr std::size_t kEll = 10;
  typename Core::CtG ct;
  ct.b.reserve(kEll);
  for (std::size_t i = 0; i < kEll; ++i) ct.b.push_back(f.gg.g_random(f.rng));
  ct.c0 = f.gg.g_random(f.rng);
  const auto a = f.gg.g_random(f.rng);

  const auto plain = bench::time_stats(
      [&] {
        typename Core::CtT r;
        r.b.reserve(kEll);
        for (const auto& bi : ct.b) r.b.push_back(f.gg.pair(a, bi));
        r.c0 = f.gg.pair(a, ct.c0);
        bench::sink(r);
      },
      5);
  const auto prepared = bench::time_stats(
      [&] { bench::sink(Core::pair_ct(f.gg, a, ct)); },
      5);
  const double speedup = prepared.med > 0 ? plain.med / prepared.med : 0;

  std::printf("\npair_ct ss512 l=%zu (11 pairings, single-threaded)\n", kEll);
  bench::Table tbl({"variant", "min ms", "med ms", "max ms"});
  tbl.row({"plain pair loop", bench::fmt(plain.min), bench::fmt(plain.med),
           bench::fmt(plain.max)});
  tbl.row({"prepared+batched", bench::fmt(prepared.min), bench::fmt(prepared.med),
           bench::fmt(prepared.max)});
  tbl.print();
  std::printf("speedup: %.2fx\n", speedup);

  auto& reg = telemetry::Registry::global();
  reg.gauge("bench.pair_ct.plain_ms", {{"preset", "ss512"}}).set(plain.med);
  reg.gauge("bench.pair_ct.prepared_ms", {{"preset", "ss512"}}).set(prepared.med);
  reg.gauge("bench.pair_ct.speedup", {{"preset", "ss512"}}).set(speedup);
}

/// ns per operation through FpCtx and through the generic path, and the
/// ratio generic/FpCtx: medians over rounds that time the two back to back
/// in this one process. Host phases move single-process timings by up to
/// 2x between runs; both sides of a round share the phase.
template <class Fast, class Generic>
std::array<double, 3> field_ratio(Fast fast, Generic generic) {
  constexpr int kRounds = 9;
  constexpr int kPasses = 200;
  const auto ns_per_op = [](auto op) {
    const auto st = bench::time_stats(
        [&] {
          for (int p = 0; p < kPasses; ++p) field_pass(op);
        },
        1);
    return st.med * 1e6 / (kPasses * static_cast<double>(kFieldOps));
  };
  std::vector<double> f, g, r;
  for (int i = 0; i < kRounds; ++i) {
    f.push_back(ns_per_op(fast));
    g.push_back(ns_per_op(generic));
    r.push_back(g.back() / f.back());
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(f), median(g), median(r)};
}

/// The F_q kernel FpCtx selects at SS256 against the generic CIOS, on
/// independent operations. The multiplication ratio is a report, not a
/// gate: an isolated mul overlaps less than the field code that calls it.
void field_speedup_report() {
  const bool mulx = field_operands().fq.kernel() == field::FpKernel::MulxAdx4;
  const auto mul = field_ratio(fp_mul_op(), fp_mul_generic_op());
  const auto add = field_ratio(fp_add_op(), fp_add_generic_op());

  std::printf("\nF_q kernel ss256 (FpCtx runs %s; %zu independent ops per pass)\n",
              mulx ? "mulx-adx-4" : "cios", kFieldOps);
  bench::Table tbl({"op", "FpCtx ns", "generic ns", "speedup"});
  tbl.row({"mul", bench::fmt(mul[0]), bench::fmt(mul[1]), bench::fmt(mul[2]) + "x"});
  tbl.row({"add", bench::fmt(add[0]), bench::fmt(add[1]), bench::fmt(add[2]) + "x"});
  tbl.print();

  auto& reg = telemetry::Registry::global();
  reg.gauge("bench.field.mulx_adx", {{"preset", "ss256"}}).set(mulx ? 1 : 0);
  reg.gauge("bench.field.mul_ns", {{"preset", "ss256"}, {"path", "fpctx"}}).set(mul[0]);
  reg.gauge("bench.field.mul_ns", {{"preset", "ss256"}, {"path", "generic"}}).set(mul[1]);
  reg.gauge("bench.field.mul_speedup", {{"preset", "ss256"}}).set(mul[2]);
  reg.gauge("bench.field.add_ns", {{"preset", "ss256"}, {"path", "fpctx"}}).set(add[0]);
  reg.gauge("bench.field.add_ns", {{"preset", "ss256"}, {"path", "generic"}}).set(add[1]);
  reg.gauge("bench.field.add_speedup", {{"preset", "ss256"}}).set(add[2]);
}

/// Remove `--json [path]` / `--json=path` so benchmark::Initialize (which
/// rejects unknown flags) never sees it.
int strip_json_flag(int argc, char** argv) {
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    if (a.rfind("--json=", 0) == 0) continue;
    argv[w++] = argv[i];
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = dlr::bench::json_flag(argc, argv);
  argc = strip_json_flag(argc, argv);
  register_group_benches();
  benchmark::RegisterBenchmark("ss256/multi_pow", bench_multi_pow)->Arg(4)->Arg(21);
  benchmark::RegisterBenchmark("ss256/naive_multi_pow", bench_naive_multi_pow)
      ->Arg(4)
      ->Arg(21);
  benchmark::RegisterBenchmark("ss256/fixed_pow_g", bench_fixed_pow_g);
  benchmark::RegisterBenchmark("ss256/dlr_enc", bench_enc_vs_precomp)->Arg(0);
  benchmark::RegisterBenchmark("ss256/dlr_enc_precomp", bench_enc_vs_precomp)->Arg(1);
  benchmark::RegisterBenchmark("ss256/hpske_enc", bench_hpske_enc)->Arg(4)->Arg(8);
  benchmark::RegisterBenchmark("ss256/hpske_dec", bench_hpske_dec)->Arg(4)->Arg(8);
  benchmark::RegisterBenchmark("sha256/1KiB", bench_sha256_1k);
  benchmark::RegisterBenchmark("chacha_rng/1KiB", bench_chacha_rng_1k);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  pair_ct_speedup_report();
  field_speedup_report();
  if (!json_path.empty()) dlr::bench::export_json(json_path, "F6");
  return 0;
}
