// Differential tests for the pairing hot-path engine: every optimized path
// (prepared Miller evaluation, norm-1 GT lane, batch-affine normalization,
// Strauss-wNAF multi_mul, parallel fan-out) is checked against its naive
// reference on random inputs, across all three Tate presets and the mock
// backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>

#include "group/counting_group.hpp"
#include "group/mock_group.hpp"
#include "group/prepared.hpp"
#include "group/tate_group.hpp"
#include "schemes/dlr.hpp"
#include "service/parallel.hpp"

namespace dlr {
namespace {

using crypto::Rng;
using group::make_mock;
using group::make_tate_ss256;
using group::MockGroup;

// ---- PreparedPairing vs plain pair ------------------------------------------------

template <std::size_t LQ, std::size_t LR>
void prepared_battery(std::shared_ptr<const pairing::PairingCtx<LQ, LR>> ctx,
                      std::uint64_t seed, int iters) {
  Rng rng(seed);
  const auto& f2 = ctx->fq2();
  for (int i = 0; i < iters; ++i) {
    const auto p = ctx->random_point(rng);
    const auto q = ctx->random_point(rng);
    const pairing::PreparedPairing<LQ, LR> pp(ctx, p);
    EXPECT_TRUE(f2.eq(pp.pair(q), ctx->pair(p, q))) << "iter " << i;
  }
  // Edge cases: either side at infinity, q == p, q == -p (the vertical-line
  // addition step inside Miller).
  const auto p = ctx->random_point(rng);
  const pairing::PreparedPairing<LQ, LR> pp(ctx, p);
  const auto inf = ctx->curve().infinity();
  EXPECT_TRUE(f2.eq(pp.pair(inf), ctx->pair(p, inf)));
  EXPECT_TRUE(f2.eq(pp.pair(p), ctx->pair(p, p)));
  EXPECT_TRUE(f2.eq(pp.pair(ctx->curve().neg(p)), ctx->pair(p, ctx->curve().neg(p))));
  const pairing::PreparedPairing<LQ, LR> pinf(ctx, inf);
  EXPECT_TRUE(f2.eq(pinf.pair(p), ctx->pair(inf, p)));
}

TEST(PreparedPairingTest, MatchesPlainSS256) { prepared_battery(pairing::make_ss256(), 8000, 25); }
TEST(PreparedPairingTest, MatchesPlainSS512) { prepared_battery(pairing::make_ss512(), 8001, 4); }
TEST(PreparedPairingTest, MatchesPlainSS1024) { prepared_battery(pairing::make_ss1024(), 8002, 1); }

TEST(PreparedPairingTest, PairManyMatchesLoop) {
  const auto ctx = pairing::make_ss256();
  Rng rng(8010);
  const auto& f2 = ctx->fq2();
  const auto p = ctx->random_point(rng);
  const pairing::PreparedPairing<4, 1> pp(ctx, p);
  std::vector<pairing::PairingCtx<4, 1>::G> qs;
  for (int i = 0; i < 7; ++i) qs.push_back(ctx->random_point(rng));
  qs.insert(qs.begin() + 3, ctx->curve().infinity());  // infinity mid-batch
  const auto many = pp.pair_many(qs);
  ASSERT_EQ(many.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i)
    EXPECT_TRUE(f2.eq(many[i], ctx->pair(p, qs[i]))) << "coord " << i;
  EXPECT_TRUE(pp.pair_many({}).empty());
}

// ---- final_exp_many vs the reference final_exp ----------------------------------------

template <std::size_t LQ, std::size_t LR>
void final_exp_battery(std::shared_ptr<const pairing::PairingCtx<LQ, LR>> ctx,
                       std::uint64_t seed) {
  using GT = typename pairing::PairingCtx<LQ, LR>::GT;
  Rng rng(seed);
  const auto& fq = ctx->fq();
  const auto& f2 = ctx->fq2();
  const auto check = [&](const std::vector<GT>& fs) {
    const auto got = ctx->final_exp_many(fs);
    ASSERT_EQ(got.size(), fs.size());
    for (std::size_t i = 0; i < fs.size(); ++i)
      EXPECT_TRUE(f2.eq(got[i], ctx->final_exp(fs[i])))
          << "batch of " << fs.size() << ", element " << i;
  };
  const auto nonzero = [&] {
    auto v = fq.random(rng);
    while (fq.is_zero(v)) v = fq.random(rng);
    return v;
  };

  std::vector<GT> millers;
  for (int i = 0; i < 7; ++i)
    millers.push_back(ctx->miller(ctx->random_point(rng), ctx->random_point(rng)));
  check({});
  check({millers[0]});
  check(millers);

  // Elements of F_q (b = 0) and of i*F_q (a = 0), and one, mixed into a batch
  // with generic values: they skip the ladder and must still agree.
  check({f2.random_nonzero(rng), f2.from_base(nonzero()), millers[1], f2.make(fq.zero(), nonzero()),
         f2.one(), f2.neg(f2.one()), f2.make(fq.zero(), fq.one())});
  EXPECT_THROW((void)ctx->final_exp_many(std::vector<GT>{f2.one(), f2.zero()}),
               std::domain_error);
}

TEST(FinalExpManyTest, MatchesReferenceSS256) { final_exp_battery(pairing::make_ss256(), 8050); }
TEST(FinalExpManyTest, MatchesReferenceSS512) { final_exp_battery(pairing::make_ss512(), 8051); }
TEST(FinalExpManyTest, MatchesReferenceSS1024) { final_exp_battery(pairing::make_ss1024(), 8052); }

// ---- PreparedPair wrapper: generic fallback + native forwarding -----------------------

TEST(PreparedPairTest, GenericFallbackOnMock) {
  const auto gg = make_mock();
  Rng rng(8020);
  static_assert(!group::NativePreparedPairing<MockGroup>);
  const auto a = gg.g_random(rng);
  const group::PreparedPair<MockGroup> pa(gg, a);
  std::vector<MockGroup::G> bs;
  for (int i = 0; i < 5; ++i) bs.push_back(gg.g_random(rng));
  for (const auto& b : bs) EXPECT_TRUE(gg.gt_eq(pa.pair(gg, b), gg.pair(a, b)));
  const auto many = pa.pair_many(gg, bs);
  for (std::size_t i = 0; i < bs.size(); ++i)
    EXPECT_TRUE(gg.gt_eq(many[i], gg.pair(a, bs[i])));
}

TEST(PreparedPairTest, NativeForwardThroughCountingGroup) {
  using CG = group::CountingGroup<group::TateSS256>;
  static_assert(group::NativePreparedPairing<CG>);
  const CG gg(make_tate_ss256());
  Rng rng(8021);
  const auto a = gg.g_random(rng);
  const auto b = gg.g_random(rng);
  const group::PreparedPair<CG> pa(gg, a);
  const auto before = gg.snapshot();
  EXPECT_TRUE(gg.gt_eq(pa.pair(gg, b), gg.inner().pair(a, b)));
  std::vector<CG::G> bs{b, gg.g_random(rng), gg.g_random(rng)};
  (void)pa.pair_many(gg, bs);
  // Prepared evaluations are still pairings, semantically: 1 + 3 of them.
  EXPECT_EQ(gg.counts().pairings - before.pairings, 4u);
}

// ---- norm-1 GT lane -------------------------------------------------------------------

TEST(GtFastLaneTest, SqrNorm1MatchesGenericSqr) {
  const auto gg = make_tate_ss256();
  const auto& f2 = gg.ctx().fq2();
  Rng rng(8030);
  for (int i = 0; i < 50; ++i) {
    const auto z = gg.pair(gg.g_random(rng), gg.g_random(rng));
    ASSERT_TRUE(f2.is_norm_one(z));
    EXPECT_TRUE(f2.eq(f2.sqr_norm1(z), f2.sqr(z))) << "iter " << i;
  }
}

TEST(GtFastLaneTest, PowNorm1MatchesGenericPow) {
  const auto gg = make_tate_ss256();
  const auto& f2 = gg.ctx().fq2();
  Rng rng(8031);
  for (int i = 0; i < 25; ++i) {
    const auto z = gg.pair(gg.g_random(rng), gg.g_random(rng));
    const auto e = gg.sc_random(rng);
    EXPECT_TRUE(f2.eq(f2.pow_norm1(z, e), f2.pow(z, e))) << "iter " << i;
  }
  const auto z = gg.pair(gg.g_random(rng), gg.g_random(rng));
  EXPECT_TRUE(f2.eq(f2.pow_norm1(z, decltype(gg.sc_random(rng))::zero()), f2.one()));
}

TEST(GtFastLaneTest, GtPowTakesFastLaneAndFallsBack) {
  const auto gg = make_tate_ss256();
  const auto& f2 = gg.ctx().fq2();
  Rng rng(8032);
  for (int i = 0; i < 25; ++i) {
    const auto z = gg.gt_random(rng);  // valid GT element: norm-1
    const auto e = gg.sc_random(rng);
    EXPECT_TRUE(f2.eq(gg.gt_pow(z, e), f2.pow(z, e))) << "iter " << i;
  }
  // A non-norm-1 element must route through the generic path, not produce
  // garbage via the conjugation shortcut.
  auto raw = f2.random_nonzero(rng);
  while (f2.is_norm_one(raw)) raw = f2.random_nonzero(rng);
  const auto e = gg.sc_random(rng);
  EXPECT_TRUE(f2.eq(gg.gt_pow(raw, e), f2.pow(raw, e)));
}

TEST(GtFastLaneTest, GtMultiPowMatchesNaiveChain) {
  const auto gg = make_tate_ss256();
  Rng rng(8033);
  for (const std::size_t n : {1u, 3u, 10u}) {
    std::vector<group::TateSS256::GT> ts;
    std::vector<group::TateSS256::Scalar> ss;
    for (std::size_t i = 0; i < n; ++i) {
      ts.push_back(gg.gt_random(rng));
      ss.push_back(gg.sc_random(rng));
    }
    if (n >= 3) {
      ss[1] = gg.sc_from_u64(0);  // zero scalar must be skipped correctly
      ts[2] = gg.gt_id();         // identity base
    }
    auto naive = gg.gt_id();
    for (std::size_t i = 0; i < n; ++i) naive = gg.gt_mul(naive, gg.gt_pow(ts[i], ss[i]));
    EXPECT_TRUE(gg.gt_eq(gg.gt_multi_pow(ts, ss), naive)) << "n=" << n;
  }
}

// ---- batch-affine normalization + Strauss multi_mul -----------------------------------

TEST(BatchAffineTest, MatchesSequentialToAffine) {
  const auto ctx = pairing::make_ss256();
  const auto& cv = ctx->curve();
  Rng rng(8040);
  std::vector<ec::JacPoint<4>> js;
  for (int i = 0; i < 9; ++i) {
    auto j = cv.to_jac(ctx->random_point(rng));
    j = cv.dbl(j);  // non-trivial Z
    if (i == 4) j = ec::JacPoint<4>{ctx->fq().one(), ctx->fq().one(), ctx->fq().zero()};
    js.push_back(j);
  }
  const auto batch = cv.batch_to_affine(js);
  ASSERT_EQ(batch.size(), js.size());
  for (std::size_t i = 0; i < js.size(); ++i) EXPECT_EQ(batch[i], cv.to_affine(js[i])) << i;
  EXPECT_TRUE(cv.batch_to_affine({}).empty());
}

TEST(MultiMulTest, MatchesBinaryReference) {
  const auto ctx = pairing::make_ss256();
  const auto& cv = ctx->curve();
  const field::FpCtx<1> zr(ctx->order());
  Rng rng(8041);
  for (const std::size_t n : {1u, 2u, 5u, 12u}) {
    std::vector<ec::AffinePoint<4>> ps;
    std::vector<mpint::UInt<1>> ks;
    for (std::size_t i = 0; i < n; ++i) {
      ps.push_back(ctx->random_point(rng));
      ks.push_back(zr.random_uint(rng));
    }
    if (n >= 5) {
      ks[1] = mpint::UInt<1>::zero();    // zero scalar
      ps[3] = cv.infinity();             // infinity base
    }
    const std::span<const ec::AffinePoint<4>> psp(ps);
    const std::span<const mpint::UInt<1>> ksp(ks);
    EXPECT_EQ(cv.multi_mul(psp, ksp), cv.multi_mul_binary(psp, ksp)) << "n=" << n;
  }
  EXPECT_TRUE(
      cv.multi_mul(std::span<const ec::AffinePoint<4>>{}, std::span<const mpint::UInt<1>>{}).inf);
}

// ---- ParallelFor ----------------------------------------------------------------------

TEST(ParallelForTest, ResultIndependentOfThreadCount) {
  constexpr std::size_t kN = 64;
  std::vector<std::uint64_t> expect(kN);
  for (std::size_t i = 0; i < kN; ++i) expect[i] = i * i + 1;
  for (const int threads : {0, 1, 2, 5}) {
    service::ParallelFor pf(threads);
    std::vector<std::uint64_t> got(kN, 0);
    pf.run(kN, [&](std::size_t i) { got[i] = i * i + 1; });
    EXPECT_EQ(got, expect) << "threads=" << threads;
  }
}

TEST(ParallelForTest, PropagatesBodyException) {
  service::ParallelFor pf(3);
  EXPECT_THROW(
      pf.run(16, [](std::size_t i) {
        if (i == 7) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> hits{0};
  pf.run(8, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
}

TEST(ParallelForTest, NestedRunDoesNotDeadlock) {
  service::ParallelFor pf(2);
  std::atomic<int> hits{0};
  pf.run(4, [&](std::size_t) {
    pf.run(4, [&](std::size_t) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 16);
}

TEST(ParallelForTest, EnvKnobParsing) {
  ASSERT_EQ(unsetenv("DLR_PARALLEL"), 0);
  EXPECT_EQ(service::parallel_env_threads(), 0);
  ASSERT_EQ(setenv("DLR_PARALLEL", "0", 1), 0);
  EXPECT_EQ(service::parallel_env_threads(), 0);
  ASSERT_EQ(setenv("DLR_PARALLEL", "off", 1), 0);
  EXPECT_EQ(service::parallel_env_threads(), 0);
  ASSERT_EQ(setenv("DLR_PARALLEL", "3", 1), 0);
  EXPECT_EQ(service::parallel_env_threads(), 3);
  ASSERT_EQ(setenv("DLR_PARALLEL", "on", 1), 0);
  EXPECT_EQ(service::parallel_env_threads(), service::default_workers());
  ASSERT_EQ(setenv("DLR_PARALLEL", "garbage", 1), 0);
  EXPECT_EQ(service::parallel_env_threads(), 0);
  ASSERT_EQ(unsetenv("DLR_PARALLEL"), 0);
}

// End-to-end determinism: the same seeded protocol run produces identical
// outputs with the coordinate fan-out enabled, because every parallel loop
// writes disjoint slots and group arithmetic is exact. On the Tate backend
// this compares the chunked pair_cts of round 1 (one batched final
// exponentiation per chunk) with the serial single batch.
template <group::BilinearGroup GG>
void protocol_outputs_independent_of_fanout(const GG& gg, const schemes::DlrParams& prm,
                                            int periods) {
  using Sys = schemes::DlrSystem<GG>;
  const auto run_once = [&] {
    auto sys = Sys::create(gg, prm, schemes::P1Mode::Plain, 8060);
    Rng rng(8061);
    std::vector<typename GG::GT> outs;
    for (int i = 0; i < periods; ++i) {
      const auto m = gg.gt_random(rng);
      outs.push_back(m);
      outs.push_back(sys.decrypt(sys.encrypt(m, rng)));
      sys.refresh();
    }
    return outs;
  };

  // The env var is resolved once per process, so runtime width changes go
  // through the test override hook.
  service::set_parallel_threads_for_test(0);
  const auto serial = run_once();
  service::set_parallel_threads_for_test(3);
  const auto parallel = run_once();
  service::set_parallel_threads_for_test(-1);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_TRUE(gg.gt_eq(serial[i], parallel[i])) << i;
  for (std::size_t i = 0; i + 1 < serial.size(); i += 2)
    EXPECT_TRUE(gg.gt_eq(serial[i], serial[i + 1])) << "decrypt roundtrip " << i;
}

TEST(ParallelForTest, ProtocolOutputsIndependentOfDlrParallel) {
  const auto mock = make_mock();
  protocol_outputs_independent_of_fanout(
      mock, schemes::DlrParams::derive(mock.scalar_bits(), mock.scalar_bits()), 3);
  const auto tate = make_tate_ss256();
  protocol_outputs_independent_of_fanout(tate, schemes::DlrParams::derive(tate.scalar_bits(), 64),
                                         2);
}

}  // namespace
}  // namespace dlr
