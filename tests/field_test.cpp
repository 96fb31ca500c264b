// Field-axiom and known-structure tests for F_p and F_{p^2}, on both curve
// presets' base fields and on the SS512 scalar field; which Montgomery
// kernel each field selects, and the x86-64 kernel against the generic CIOS.
#include <gtest/gtest.h>

#include <cstdio>

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

// ---- kernel selection and the x86-64 kernel ----------------------------------

const char* kernel_name(FpKernel k) { return k == FpKernel::MulxAdx4 ? "mulx-adx-4" : "cios"; }

/// The CPU's BMI2 and ADX bits through the compiler's own detection, not the
/// CPUID read the kernel selection uses.
bool cpu_reports_bmi2_adx() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
#else
  return false;
#endif
}

// SS256's base field takes the fast kernel exactly when the CPU can run it;
// every other field stays on the generic CIOS. A silent fallback fails here.
TEST(FpKernelTest, SelectionFollowsWidthTopBitAndCpu) {
  const bool cpu = cpu_reports_bmi2_adx();
  const auto ss256 = pairing::make_ss256();
  const auto ss512 = pairing::make_ss512();
  const auto ss1024 = pairing::make_ss1024();
  const auto k256 = ss256->fq().kernel();
  std::printf("[ kernel   ] ss256 base field runs %s (cpu bmi2+adx: %s)\n", kernel_name(k256),
              cpu ? "yes" : "no");
  ::testing::Test::RecordProperty("ss256_kernel", kernel_name(k256));
  EXPECT_EQ(k256 == FpKernel::MulxAdx4, cpu && detail::x64::kAvailable);
  EXPECT_EQ(FpCtx<4>(ss256->fq().modulus()).kernel(), k256);

  EXPECT_EQ(ss512->fq().kernel(), FpKernel::Cios);
  EXPECT_EQ(ss1024->fq().kernel(), FpKernel::Cios);
  ASSERT_GE(ss1024->order().limb[3], std::uint64_t{1} << 63);  // 4 limbs, top bit set
  EXPECT_EQ(FpCtx<4>(ss1024->order()).kernel(), FpKernel::Cios);
  EXPECT_EQ(FpCtx<1>(ss256->order()).kernel(), FpKernel::Cios);
  EXPECT_EQ(FpCtx<3>(ss512->order()).kernel(), FpKernel::Cios);
  EXPECT_EQ(FpCtx<1>(mpint::UInt<1>::from_u64(7)).kernel(), FpKernel::Cios);
}

TEST(FpKernelTest, NoCarryBoundIsTheTopLimbBelowTwoToThe63MinusTwo) {
  auto q = pairing::make_ss256()->fq().modulus();
  EXPECT_TRUE(detail::x64::fits(q));
  q.limb[3] = 0x7ffffffffffffffdull;
  EXPECT_TRUE(detail::x64::fits(q));
  q.limb[3] = 0x7ffffffffffffffeull;
  EXPECT_FALSE(detail::x64::fits(q));
  EXPECT_EQ(FpCtx<4>(q).kernel(), FpKernel::Cios);
  q.limb[3] = ~0ull;
  EXPECT_FALSE(detail::x64::fits(q));
}

/// Whether CIOS's sum (a*b + m*q) / 2^256, m = -a*b/q mod 2^256, lands in
/// [q, 2q), i.e. whether the final subtraction takes q off.
bool cios_subtracts(const UInt<4>& a, const UInt<4>& b, const UInt<4>& q) {
  const auto low = [](const UInt<8>& w) {
    UInt<4> r;
    for (std::size_t i = 0; i < 4; ++i) r.limb[i] = w.limb[i];
    return r;
  };
  const auto neg = [](const UInt<4>& x) {  // 2^256 - x, mod 2^256
    UInt<4> r;
    (void)mpint::sub(r, UInt<4>{}, x);
    return r;
  };
  // q^-1 mod 2^256 by Newton's iteration, 1 -> 2 -> ... -> 256 correct bits.
  UInt<4> qinv = UInt<4>::from_u64(1);
  for (int i = 0; i < 8; ++i) {
    UInt<4> two_minus;
    (void)mpint::sub(two_minus, UInt<4>::from_u64(2), low(mpint::mul_wide(q, qinv)));
    qinv = low(mpint::mul_wide(qinv, two_minus));
  }
  const auto ab = mpint::mul_wide(a, b);
  const auto m = low(mpint::mul_wide(neg(low(ab)), qinv));
  const auto sum = ab + mpint::mul_wide(m, q);  // < q^2 + 2^256 q < 2^512
  UInt<4> t;
  for (std::size_t i = 0; i < 4; ++i) t.limb[i] = sum.limb[4 + i];
  return t >= q;
}

/// (a + b) mod q, (a - b) mod q on five limbs: no reduction tricks.
UInt<4> plain_addmod(const UInt<4>& a, const UInt<4>& b, const UInt<4>& q) {
  return mpint::mod(mpint::resize<5>(a) + mpint::resize<5>(b), q);
}
UInt<4> plain_submod(const UInt<4>& a, const UInt<4>& b, const UInt<4>& q) {
  return mpint::mod(mpint::resize<5>(a) + mpint::resize<5>(q) - mpint::resize<5>(b), q);
}

// On SS256's q, FpCtx (the x86-64 kernel where the CPU has BMI2 and ADX)
// agrees with the generic CIOS called directly and with schoolbook
// arithmetic: mulmod_slow for products, five-limb add/sub mod q for the rest.
TEST(FpKernelTest, SS256MatchesGenericCiosAndSchoolbook) {
  const FpCtx<4> f(pairing::make_ss256()->fq().modulus());
  std::printf("[ kernel   ] differential run on %s\n", kernel_name(f.kernel()));
  const auto& q = f.modulus();
  const auto n0 = detail::mont_n0inv(q.limb[0]);
  const auto one = UInt<4>::from_u64(1);
  const auto r_mod_q = f.one();
  const auto r2_mod_q = mpint::mod(mpint::mul_wide(r_mod_q, r_mod_q), q);

  std::vector<UInt<4>> edges{UInt<4>{}, one, q - one, q - UInt<4>::from_u64(2), r_mod_q,
                             r2_mod_q, mpint::shr(q, 1), mpint::shr(q, 1) + one};
  std::vector<std::pair<UInt<4>, UInt<4>>> pairs;
  for (const auto& a : edges)
    for (const auto& b : edges) pairs.emplace_back(a, b);
  Rng rng(120);
  for (int i = 0; i < 100000; ++i) pairs.emplace_back(f.random_uint(rng), f.random_uint(rng));

  std::size_t subtracted = 0, sums_wrapped = 0;
  for (const auto& [a, b] : pairs) {
    ASSERT_LT(a, q);
    ASSERT_LT(b, q);
    const auto prod = f.mul(a, b);
    ASSERT_EQ(prod, detail::mont_mul_cios(a, b, q, n0)) << a.to_hex() << " * " << b.to_hex();
    // prod = a*b/R: prod*R = a*b (mod q).
    ASSERT_EQ(mpint::mulmod_slow(prod, r_mod_q, q), mpint::mulmod_slow(a, b, q));
    ASSERT_EQ(f.sqr(a), detail::mont_mul_cios(a, a, q, n0));
    subtracted += cios_subtracts(a, b, q) ? 1 : 0;

    const auto sum = f.add(a, b);
    ASSERT_EQ(sum, detail::add_generic(a, b, q)) << a.to_hex() << " + " << b.to_hex();
    ASSERT_EQ(sum, plain_addmod(a, b, q));
    sums_wrapped += mpint::resize<5>(a) + mpint::resize<5>(b) >= mpint::resize<5>(q) ? 1 : 0;
    const auto diff = f.sub(a, b);
    ASSERT_EQ(diff, detail::sub_generic(a, b, q)) << a.to_hex() << " - " << b.to_hex();
    ASSERT_EQ(diff, plain_submod(a, b, q));
    ASSERT_EQ(f.neg(a), plain_submod(UInt<4>{}, a, q));
    ASSERT_EQ(f.dbl(a), plain_addmod(a, a, q));
  }
  // Both outcomes of every final correction ran.
  std::printf("[ kernel   ] %zu pairs: %zu final subtractions, %zu sums >= q\n", pairs.size(),
              subtracted, sums_wrapped);
  EXPECT_GT(subtracted, 1000u);
  EXPECT_LT(subtracted, pairs.size() - 1000);
  EXPECT_GT(sums_wrapped, 1000u);
  EXPECT_LT(sums_wrapped, pairs.size() - 1000);
  // Pinned edges: (q-1)^2 = 1, and R mod q is Montgomery's one.
  EXPECT_EQ(f.to_uint(f.sqr(f.from_uint(q - one))), one);
  EXPECT_EQ(f.mul(r2_mod_q, one), r_mod_q);
  EXPECT_EQ(f.add(q - one, one), UInt<4>{});
  EXPECT_EQ(f.sub(UInt<4>{}, one), q - one);
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
