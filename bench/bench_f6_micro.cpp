// F6 -- substrate microbenchmarks (google-benchmark): field, curve, pairing,
// HPSKE, hash and RNG primitives on both curve presets. These are the cost
// constants every protocol-level number in T1/F2/F4/F5/F7 decomposes into.
//
// Also hosts the T4 pairing hot-path comparison: prepared-vs-plain pairing,
// norm-1 vs generic GT squaring, batch-affine vs generic comb-table build,
// and the headline pair_ct speedup (plain loop vs prepared+batched final
// exp), exported as bench.pair_ct.* gauges with `--json <path>`.
#include <benchmark/benchmark.h>

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
  if (!json_path.empty()) {
    if (dlr::telemetry::export_global_jsonl(json_path, "F6"))
      std::printf("telemetry: wrote %s\n", json_path.c_str());
    else
      std::fprintf(stderr, "telemetry: FAILED to write %s\n", json_path.c_str());
  }
  return 0;
}
