// Field-axiom and known-structure tests for F_p and F_{p^2}, on both curve
// presets' base fields and on the SS512 scalar field.
#include <gtest/gtest.h>

#include "field/fp2.hpp"
#include "group/tate_group.hpp"

namespace dlr::field {
namespace {

using crypto::Rng;

// Run the same axiom battery over each modulus via typed helpers.
template <std::size_t L>
void check_fp_axioms(const FpCtx<L>& f, std::uint64_t seed, int iters) {
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    const auto a = f.random(rng);
    const auto b = f.random(rng);
    const auto c = f.random(rng);
    // Commutativity / associativity / distributivity.
    EXPECT_EQ(f.add(a, b), f.add(b, a));
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    // Identities and inverses.
    EXPECT_EQ(f.add(a, f.zero()), a);
    EXPECT_EQ(f.mul(a, f.one()), a);
    EXPECT_TRUE(f.is_zero(f.add(a, f.neg(a))));
    EXPECT_EQ(f.sub(a, b), f.add(a, f.neg(b)));
    EXPECT_EQ(f.sqr(a), f.mul(a, a));
    if (!f.is_zero(a)) {
      EXPECT_EQ(f.mul(a, f.inv(a)), f.one());
    }
  }
}

template <std::size_t L>
void check_fp_conversions(const FpCtx<L>& f, std::uint64_t seed, int iters) {
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    const auto raw = f.random_uint(rng);
    EXPECT_LT(raw, f.modulus());
    EXPECT_EQ(f.to_uint(f.from_uint(raw)), raw);
  }
  EXPECT_EQ(f.to_uint(f.one()), mpint::UInt<L>::from_u64(1));
  EXPECT_TRUE(f.to_uint(f.zero()).is_zero());
}

template <std::size_t L>
void check_fp_pow_sqrt(const FpCtx<L>& f, std::uint64_t seed) {
  Rng rng(seed);
  // Fermat: a^(p-1) == 1.
  const auto pm1 = f.modulus() - mpint::UInt<L>::from_u64(1);
  for (int i = 0; i < 10; ++i) {
    auto a = f.random(rng);
    if (f.is_zero(a)) a = f.one();
    EXPECT_EQ(f.pow(a, pm1), f.one());
  }
  // sqrt(x^2) is +-x, and squares are detected.
  int squares = 0;
  for (int i = 0; i < 40; ++i) {
    const auto a = f.random(rng);
    if (f.is_zero(a)) continue;
    const auto a2 = f.sqr(a);
    EXPECT_TRUE(f.is_square(a2));
    const auto r = f.sqrt(a2);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(f.eq(*r, a) || f.eq(*r, f.neg(a)));
    if (f.is_square(a)) ++squares;
  }
  // Roughly half the elements are squares.
  EXPECT_GT(squares, 5);
  EXPECT_LT(squares, 35);
}

TEST(FpTest, AxiomsSS256Base) {
  check_fp_axioms(FpCtx<4>(pairing::make_ss256()->fq().modulus()), 100, 100);
}
TEST(FpTest, AxiomsSS512Base) {
  check_fp_axioms(FpCtx<8>(pairing::make_ss512()->fq().modulus()), 101, 30);
}
TEST(FpTest, AxiomsSS512Scalar) {
  check_fp_axioms(FpCtx<3>(pairing::make_ss512()->order()), 102, 100);
}
TEST(FpTest, AxiomsSS256Scalar) {
  check_fp_axioms(FpCtx<1>(pairing::make_ss256()->order()), 103, 200);
}

TEST(FpTest, ConversionsSS256) {
  check_fp_conversions(FpCtx<4>(pairing::make_ss256()->fq().modulus()), 104, 100);
}
TEST(FpTest, ConversionsSS512) {
  check_fp_conversions(FpCtx<8>(pairing::make_ss512()->fq().modulus()), 105, 50);
}

/// from_uint takes a single Montgomery multiply on reduced input and divides
/// first otherwise; both branches must agree with mulmod_slow, which reduces
/// its (unreduced) inputs by long division.
template <std::size_t L>
void check_from_uint_branches(const FpCtx<L>& f, std::uint64_t seed, int iters) {
  Rng rng(seed);
  const auto& p = f.modulus();
  UInt<L> ones;
  for (auto& l : ones.limb) l = ~0ull;
  const UInt<L> room = ones - p;  // unreduced values are p + [0, room)
  std::vector<UInt<L>> unreduced{p, ones, p + UInt<L>::from_u64(1)};
  std::vector<UInt<L>> reduced{UInt<L>{}, UInt<L>::from_u64(1), p - UInt<L>::from_u64(1)};
  for (int i = 0; i < iters; ++i) {
    reduced.push_back(f.random_uint(rng));
    unreduced.push_back(p + mpint::mod(f.random_uint(rng), room));
  }
  const auto check = [&](const UInt<L>& a, const UInt<L>& b) {
    EXPECT_EQ(f.to_uint(f.mul(f.from_uint(a), f.from_uint(b))), mpint::mulmod_slow(a, b, p));
  };
  for (const auto& a : reduced) {
    ASSERT_LT(a, p);
    check(a, reduced.back());
    EXPECT_EQ(f.to_uint(f.from_uint(a)), a);
  }
  for (const auto& a : unreduced) {
    ASSERT_GE(a, p);
    check(a, reduced.back());
    check(a, a);
    EXPECT_EQ(f.to_uint(f.from_uint(a)), mpint::mod(a, p));
  }
}

TEST(FpTest, FromUintBothBranchesSS256) {
  check_from_uint_branches(FpCtx<4>(pairing::make_ss256()->fq().modulus()), 108, 50);
}
TEST(FpTest, FromUintBothBranchesSS512) {
  check_from_uint_branches(FpCtx<8>(pairing::make_ss512()->fq().modulus()), 109, 20);
}
TEST(FpTest, FromUintBothBranchesSS256Scalar) {
  check_from_uint_branches(FpCtx<1>(pairing::make_ss256()->order()), 110, 50);
}

TEST(FpTest, PowAndSqrtSS256) {
  check_fp_pow_sqrt(FpCtx<4>(pairing::make_ss256()->fq().modulus()), 106);
}
TEST(FpTest, PowAndSqrtSS512) {
  check_fp_pow_sqrt(FpCtx<8>(pairing::make_ss512()->fq().modulus()), 107);
}

TEST(FpTest, SmallPrimeExhaustive) {
  // p = 7: check the entire multiplication table against naive arithmetic.
  const FpCtx<1> f(mpint::UInt<1>::from_u64(7));
  for (std::uint64_t a = 0; a < 7; ++a) {
    for (std::uint64_t b = 0; b < 7; ++b) {
      const auto ea = f.from_uint(mpint::UInt<1>::from_u64(a));
      const auto eb = f.from_uint(mpint::UInt<1>::from_u64(b));
      EXPECT_EQ(f.to_uint(f.mul(ea, eb)).limb[0], (a * b) % 7);
      EXPECT_EQ(f.to_uint(f.add(ea, eb)).limb[0], (a + b) % 7);
      EXPECT_EQ(f.to_uint(f.sub(ea, eb)).limb[0], (a + 7 - b) % 7);
    }
  }
}

TEST(FpTest, InvZeroThrows) {
  const FpCtx<1> f(mpint::UInt<1>::from_u64(7));
  EXPECT_THROW((void)f.inv(f.zero()), std::domain_error);
}

TEST(FpTest, EvenModulusRejected) {
  EXPECT_THROW(FpCtx<1>(mpint::UInt<1>::from_u64(8)), std::invalid_argument);
}

TEST(FpTest, TwoInv) {
  const FpCtx<4> f(pairing::make_ss256()->fq().modulus());
  EXPECT_EQ(f.mul(f.two_inv(), f.from_uint(mpint::UInt<4>::from_u64(2))), f.one());
}

// ---- Fp2 ---------------------------------------------------------------------

template <std::size_t L>
void check_fp2_axioms(const Fp2Ctx<L>& f2, std::uint64_t seed, int iters) {
  Rng rng(seed);
  const auto& fp = f2.base();
  for (int i = 0; i < iters; ++i) {
    const auto a = f2.random_nonzero(rng);
    const auto b = f2.random_nonzero(rng);
    const auto c = f2.random_nonzero(rng);
    EXPECT_TRUE(f2.eq(f2.mul(a, b), f2.mul(b, a)));
    EXPECT_TRUE(f2.eq(f2.mul(f2.mul(a, b), c), f2.mul(a, f2.mul(b, c))));
    EXPECT_TRUE(f2.eq(f2.mul(a, f2.add(b, c)), f2.add(f2.mul(a, b), f2.mul(a, c))));
    EXPECT_TRUE(f2.eq(f2.sqr(a), f2.mul(a, a)));
    EXPECT_TRUE(f2.eq(f2.mul(a, f2.inv(a)), f2.one()));
    // Conjugation is the Frobenius; norm is multiplicative.
    EXPECT_TRUE(fp.eq(f2.norm(f2.mul(a, b)), fp.mul(f2.norm(a), f2.norm(b))));
    EXPECT_TRUE(f2.eq(f2.conj(f2.conj(a)), a));
    EXPECT_TRUE(f2.eq(f2.conj(f2.mul(a, b)), f2.mul(f2.conj(a), f2.conj(b))));
  }
}

TEST(Fp2Test, AxiomsSS256) {
  check_fp2_axioms(Fp2Ctx<4>(pairing::make_ss256()->fq()), 200, 60);
}
TEST(Fp2Test, AxiomsSS512) {
  check_fp2_axioms(Fp2Ctx<8>(pairing::make_ss512()->fq()), 201, 20);
}

TEST(Fp2Test, ISquaredIsMinusOne) {
  const Fp2Ctx<4> f2(pairing::make_ss256()->fq());
  const auto& fp = f2.base();
  const auto i = f2.make(fp.zero(), fp.one());
  const auto i2 = f2.sqr(i);
  EXPECT_TRUE(f2.eq(i2, f2.neg(f2.one())));
}

TEST(Fp2Test, FrobeniusIsPthPower) {
  const auto ctx = pairing::make_ss256();
  const Fp2Ctx<4> f2(ctx->fq());
  Rng rng(202);
  const auto a = f2.random_nonzero(rng);
  EXPECT_TRUE(f2.eq(f2.pow(a, ctx->fq().modulus()), f2.frobenius(a)));
}

TEST(Fp2Test, PowMatchesRepeatedMul) {
  const Fp2Ctx<4> f2(pairing::make_ss256()->fq());
  Rng rng(203);
  const auto a = f2.random_nonzero(rng);
  auto acc = f2.one();
  for (int k = 0; k < 20; ++k) {
    EXPECT_TRUE(f2.eq(acc, f2.pow(a, mpint::UInt<1>::from_u64(k))));
    acc = f2.mul(acc, a);
  }
}

TEST(Fp2Test, NonThreeMod4Rejected) {
  // p = 5 == 1 mod 4: i^2 = -1 is not irreducible there.
  FpCtx<1> f5(mpint::UInt<1>::from_u64(5));
  EXPECT_THROW(Fp2Ctx<1>{f5}, std::invalid_argument);
}

}  // namespace
}  // namespace dlr::field
