// Curve-group and pairing tests: group laws, parameter validation,
// bilinearity, non-degeneracy, and the distortion-map Tate pairing's
// structural properties, on both presets.
#include <gtest/gtest.h>

#include "group/tate_group.hpp"

namespace dlr::pairing {
namespace {

using crypto::Rng;

// ---- parameter structure (validates the hardcoded presets) ---------------------

TEST(PairingParamsTest, SS256Structure) {
  const auto ctx = make_ss256();
  EXPECT_EQ(ctx->fq().modulus().bit_length(), 255u);
  EXPECT_EQ(ctx->order().bit_length(), 64u);
  EXPECT_EQ(ctx->fq().modulus().limb[0] & 3, 3u);  // q == 3 mod 4
}

TEST(PairingParamsTest, SS512Structure) {
  const auto ctx = make_ss512();
  EXPECT_EQ(ctx->fq().modulus().bit_length(), 512u);
  EXPECT_EQ(ctx->order().bit_length(), 160u);
  EXPECT_EQ(ctx->fq().modulus().limb[0] & 3, 3u);
}

template <std::size_t LQ, std::size_t LR>
void check_order_prime(const PairingCtx<LQ, LR>& ctx) {
  // Fermat test with several bases is ample for fixed, pre-vetted constants.
  const auto r = ctx.order();
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull}) {
    EXPECT_EQ(mpint::powmod_slow(mpint::UInt<LR>::from_u64(a),
                                 r - mpint::UInt<LR>::from_u64(1), r),
              mpint::mod(mpint::UInt<LR>::from_u64(1), r));
  }
}

TEST(PairingParamsTest, OrdersPassFermat) {
  check_order_prime(*make_ss256());
  check_order_prime(*make_ss512());
}

TEST(PairingParamsTest, SS1024StructureAndBilinearity) {
  const auto ctx = make_ss1024();
  EXPECT_EQ(ctx->fq().modulus().bit_length(), 1024u);
  EXPECT_EQ(ctx->order().bit_length(), 256u);
  EXPECT_EQ(ctx->fq().modulus().limb[0] & 3, 3u);
  check_order_prime(*ctx);
  // One bilinearity spot check (each SS1024 pairing costs ~10 ms).
  Rng rng(310);
  field::FpCtx<4> zr(ctx->order());
  const auto p = ctx->random_point(rng);
  const auto q = ctx->random_point(rng);
  const auto a = zr.random_uint(rng);
  EXPECT_TRUE(ctx->fq2().eq(ctx->pair(ctx->curve().mul(p, a), q),
                            ctx->fq2().pow(ctx->pair(p, q), a)));
}

TEST(PairingParamsTest, BadCofactorRejected) {
  const auto good = make_ss256();
  auto h = good->cofactor();
  h.limb[0] ^= 2;
  EXPECT_THROW((PairingCtx<4, 1>{good->fq().modulus(), good->order(), h, "bad"}),
               std::invalid_argument);
}

// ---- curve group laws ----------------------------------------------------------

template <std::size_t LQ, std::size_t LR>
void check_group_laws(const PairingCtx<LQ, LR>& ctx, std::uint64_t seed, int iters) {
  Rng rng(seed);
  const auto& curve = ctx.curve();
  for (int i = 0; i < iters; ++i) {
    const auto p = ctx.random_point(rng);
    const auto q = ctx.random_point(rng);
    const auto r = ctx.random_point(rng);
    ASSERT_TRUE(curve.is_on_curve(p));
    // Commutativity and associativity.
    EXPECT_EQ(curve.add(p, q), curve.add(q, p));
    EXPECT_EQ(curve.add(curve.add(p, q), r), curve.add(p, curve.add(q, r)));
    // Identity and inverse.
    EXPECT_EQ(curve.add(p, curve.infinity()), p);
    EXPECT_TRUE(curve.add(p, curve.neg(p)).inf);
    // Doubling consistency: P + P via generic add == [2]P.
    EXPECT_EQ(curve.add(p, p), curve.mul(p, mpint::UInt<1>::from_u64(2)));
  }
}

TEST(CurveTest, GroupLawsSS256) { check_group_laws(*make_ss256(), 300, 20); }
TEST(CurveTest, GroupLawsSS512) { check_group_laws(*make_ss512(), 301, 4); }

TEST(CurveTest, ScalarMulMatchesRepeatedAdd) {
  const auto ctx = make_ss256();
  Rng rng(302);
  const auto p = ctx->random_point(rng);
  auto acc = ctx->curve().infinity();
  for (std::uint64_t k = 0; k < 17; ++k) {
    EXPECT_EQ(acc, ctx->curve().mul(p, mpint::UInt<1>::from_u64(k))) << "k=" << k;
    acc = ctx->curve().add(acc, p);
  }
}

TEST(CurveTest, GeneratorHasOrderR) {
  for (int preset = 0; preset < 2; ++preset) {
    if (preset == 0) {
      const auto ctx = make_ss256();
      EXPECT_FALSE(ctx->generator().inf);
      EXPECT_TRUE(ctx->curve().mul(ctx->generator(), ctx->order()).inf);
    } else {
      const auto ctx = make_ss512();
      EXPECT_FALSE(ctx->generator().inf);
      EXPECT_TRUE(ctx->curve().mul(ctx->generator(), ctx->order()).inf);
    }
  }
}

TEST(CurveTest, RandomPointsInSubgroup) {
  const auto ctx = make_ss256();
  Rng rng(303);
  for (int i = 0; i < 10; ++i) {
    const auto p = ctx->random_point(rng);
    EXPECT_TRUE(ctx->in_group(p));
  }
}

TEST(CurveTest, HashToPointDeterministicAndValid) {
  const auto ctx = make_ss256();
  const Bytes d1{'a', 'b'};
  const Bytes d2{'a', 'c'};
  const auto p1 = ctx->hash_to_point(d1);
  const auto p1b = ctx->hash_to_point(d1);
  const auto p2 = ctx->hash_to_point(d2);
  EXPECT_EQ(p1, p1b);
  EXPECT_NE(p1, p2);
  EXPECT_TRUE(ctx->in_group(p1));
}

TEST(CurveTest, LiftXRejectsNonResidue) {
  const auto ctx = make_ss256();
  Rng rng(304);
  int hits = 0, misses = 0;
  for (int i = 0; i < 60; ++i) {
    const auto x = ctx->fq().random(rng);
    if (ctx->curve().lift_x(x, false))
      ++hits;
    else
      ++misses;
  }
  EXPECT_GT(hits, 10);
  EXPECT_GT(misses, 10);
}

// ---- the one-root sampler ------------------------------------------------------------

/// Differential check of the sampler on one preset. On one x stream the
/// one-root lift must equal the two-attempt reference (lift_x) wherever
/// x^3 + x is a square, and lift_x(-x) elsewhere; the batched cofactor
/// clearing must equal the reference scalar multiplication by h; and every
/// point from single calls and from the native batch hook must be on the
/// curve, not O and killed by r, with the batch drawing exactly what the
/// single calls draw.
template <class GG>
void check_one_root_sampler(const GG& gg, std::uint64_t seed, int lifts, int points) {
  const auto& ctx = gg.ctx();
  const auto& fq = ctx.fq();
  const auto& cv = ctx.curve();
  Rng xs(seed);
  int squares = 0;
  std::vector<typename GG::G> lifted;
  for (int i = 0; i < lifts; ++i) {
    const auto x = fq.random(xs);
    const bool sign = xs.coin();
    const auto got = cv.lift_x_or_neg(x, sign);
    if (const auto p = cv.lift_x(x, sign)) {
      ++squares;
      EXPECT_EQ(got, *p) << "x lifts, but not to lift_x's point";
    } else {
      const auto q = cv.lift_x(fq.neg(x), sign);
      ASSERT_TRUE(q) << "neither x nor -x lifts";
      EXPECT_EQ(got, *q) << "-x lifts, but not to lift_x's point";
    }
    EXPECT_TRUE(cv.is_on_curve(got));
    if (lifted.size() < static_cast<std::size_t>(points)) lifted.push_back(got);
  }
  EXPECT_GT(squares, 0);
  EXPECT_LT(squares, lifts) << "the stream never exercised the -x branch";

  const auto cleared = ctx.clear_cofactor_many(lifted);
  ASSERT_EQ(cleared.size(), lifted.size());
  for (std::size_t i = 0; i < lifted.size(); ++i)
    EXPECT_EQ(cleared[i], cv.mul_binary(lifted[i], ctx.cofactor()));

  Rng one(seed + 1);
  Rng many(seed + 1);
  const auto batch = gg.g_random_many(many, static_cast<std::size_t>(points));
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(points));
  for (const auto& p : batch) {
    const auto single = gg.g_random(one);
    EXPECT_EQ(p, single) << "the batch drew differently from single calls";
    for (const auto& q : {p, single}) {
      EXPECT_FALSE(q.inf);
      EXPECT_TRUE(cv.is_on_curve(q));
      EXPECT_TRUE(cv.mul(q, ctx.order()).inf) << "[r]P != O";
    }
  }
}

TEST(SamplerTest, OneRootLiftMatchesTheTwoAttemptReferenceOnEveryPreset) {
  check_one_root_sampler(group::make_tate_ss256(), 320, 64, 12);
  check_one_root_sampler(group::make_tate_ss512(), 321, 48, 6);
  check_one_root_sampler(group::make_tate_ss1024(), 322, 24, 3);
}

// ---- the pairing itself -----------------------------------------------------------

template <std::size_t LQ, std::size_t LR>
void check_bilinearity(const PairingCtx<LQ, LR>& ctx, std::uint64_t seed, int iters) {
  Rng rng(seed);
  const auto& f2 = ctx.fq2();
  field::FpCtx<LR> zr(ctx.order());
  for (int i = 0; i < iters; ++i) {
    const auto p = ctx.random_point(rng);
    const auto q = ctx.random_point(rng);
    const auto a = zr.random_uint(rng);
    const auto b = zr.random_uint(rng);
    // e(aP, bQ) == e(P, Q)^(ab)
    const auto lhs = ctx.pair(ctx.curve().mul(p, a), ctx.curve().mul(q, b));
    const auto ab = zr.to_uint(zr.mul(zr.from_uint(a), zr.from_uint(b)));
    const auto rhs = f2.pow(ctx.pair(p, q), ab);
    EXPECT_TRUE(f2.eq(lhs, rhs)) << "iteration " << i;
    // e(P+Q, R) == e(P, R) * e(Q, R)
    const auto r = ctx.random_point(rng);
    EXPECT_TRUE(f2.eq(ctx.pair(ctx.curve().add(p, q), r),
                      f2.mul(ctx.pair(p, r), ctx.pair(q, r))));
  }
}

TEST(PairingTest, BilinearitySS256) { check_bilinearity(*make_ss256(), 400, 8); }
TEST(PairingTest, BilinearitySS512) { check_bilinearity(*make_ss512(), 401, 2); }

TEST(PairingTest, NonDegenerate) {
  const auto c1 = make_ss256();
  EXPECT_FALSE(c1->fq2().eq(c1->gt_generator(), c1->fq2().one()));
  const auto c2 = make_ss512();
  EXPECT_FALSE(c2->fq2().eq(c2->gt_generator(), c2->fq2().one()));
}

TEST(PairingTest, Symmetric) {
  const auto ctx = make_ss256();
  Rng rng(402);
  const auto p = ctx->random_point(rng);
  const auto q = ctx->random_point(rng);
  EXPECT_TRUE(ctx->fq2().eq(ctx->pair(p, q), ctx->pair(q, p)));
}

TEST(PairingTest, InfinityPairsToOne) {
  const auto ctx = make_ss256();
  Rng rng(403);
  const auto p = ctx->random_point(rng);
  EXPECT_TRUE(ctx->fq2().eq(ctx->pair(p, ctx->curve().infinity()), ctx->fq2().one()));
  EXPECT_TRUE(ctx->fq2().eq(ctx->pair(ctx->curve().infinity(), p), ctx->fq2().one()));
}

TEST(PairingTest, GtElementsHaveOrderR) {
  const auto ctx = make_ss256();
  Rng rng(404);
  const auto& f2 = ctx->fq2();
  for (int i = 0; i < 5; ++i) {
    const auto z = ctx->random_gt(rng);
    EXPECT_TRUE(f2.eq(f2.pow(z, ctx->order()), f2.one()));
    // norm 1 => inverse is conjugate
    EXPECT_TRUE(f2.eq(f2.mul(z, ctx->gt_inv(z)), f2.one()));
  }
}

TEST(PairingTest, GtRandomIsNotConstant) {
  const auto ctx = make_ss256();
  Rng rng(405);
  const auto a = ctx->random_gt(rng);
  const auto b = ctx->random_gt(rng);
  EXPECT_FALSE(ctx->fq2().eq(a, b));
}

TEST(PairingTest, GtFromFieldLandsInSubgroup) {
  // x^((q-1)h) must land in the order-r subgroup for every nonzero x, and be
  // fixed by a second application up to the exponentiation structure.
  const auto ctx = make_ss256();
  Rng rng(407);
  const auto& f2 = ctx->fq2();
  for (int i = 0; i < 10; ++i) {
    const auto x = f2.random_nonzero(rng);
    const auto y = ctx->gt_from_field(x);
    EXPECT_TRUE(f2.eq(f2.pow(y, ctx->order()), f2.one()));
    EXPECT_TRUE(ctx->fq().eq(f2.norm(y), ctx->fq().one()));  // norm-1 circle
    EXPECT_TRUE(f2.eq(y, ctx->final_exp(x)));  // the final exponentiation itself
  }
}

TEST(PairingTest, MillerValueNeedsFinalExponentiation) {
  // The raw Miller value is NOT in the subgroup (overwhelmingly); the final
  // exponentiation is what produces well-defined pairing values.
  const auto ctx = make_ss256();
  Rng rng(408);
  const auto p = ctx->random_point(rng);
  const auto q = ctx->random_point(rng);
  const auto raw = ctx->miller(p, q);
  const auto& f2 = ctx->fq2();
  EXPECT_FALSE(f2.eq(f2.pow(raw, ctx->order()), f2.one()));
  EXPECT_TRUE(f2.eq(ctx->final_exp(raw), ctx->pair(p, q)));
}

TEST(PairingTest, PairingKillsWholeGroupRelation) {
  // e(P, Q)^r == 1 for all P, Q.
  const auto ctx = make_ss256();
  Rng rng(406);
  const auto p = ctx->random_point(rng);
  const auto q = ctx->random_point(rng);
  EXPECT_TRUE(ctx->fq2().eq(ctx->fq2().pow(ctx->pair(p, q), ctx->order()), ctx->fq2().one()));
}

}  // namespace
}  // namespace dlr::pairing
