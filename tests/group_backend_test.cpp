// BilinearGroup backend tests: the concept itself, the mock model's exactness,
// the Tate facade's serialization (including the GT torus codec and its
// batched form) and invalid-input rejection, and cross-backend algebraic
// agreement.
#include <gtest/gtest.h>

#include "group/bilinear.hpp"
#include "group/mock_group.hpp"
#include "group/tate_group.hpp"
#include "schemes/dlr.hpp"

namespace dlr::group {
namespace {

using crypto::Rng;

static_assert(BilinearGroup<MockGroup>);
static_assert(BilinearGroup<TateSS256>);
static_assert(BilinearGroup<TateSS512>);
static_assert(BilinearGroup<TateSS1024>);
static_assert(NativeGtBatchCodec<TateSS256>);
static_assert(!NativeGtBatchCodec<MockGroup>);

// A generic battery every backend must pass.
template <BilinearGroup GG>
void backend_battery(const GG& gg, std::uint64_t seed, int iters) {
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    const auto s = gg.sc_random(rng);
    const auto t = gg.sc_random(rng);
    const auto p = gg.g_random(rng);
    const auto q = gg.g_random(rng);

    // Exponent laws in G.
    EXPECT_TRUE(gg.g_eq(gg.g_pow(p, gg.sc_add(s, t)),
                        gg.g_mul(gg.g_pow(p, s), gg.g_pow(p, t))));
    EXPECT_TRUE(gg.g_eq(gg.g_pow(gg.g_pow(p, s), t), gg.g_pow(p, gg.sc_mul(s, t))));
    EXPECT_TRUE(gg.g_is_id(gg.g_mul(p, gg.g_inv(p))));
    EXPECT_TRUE(gg.g_eq(gg.g_mul(p, gg.g_id()), p));

    // Bilinearity via the facade.
    const auto e_pq = gg.pair(p, q);
    EXPECT_TRUE(gg.gt_eq(gg.pair(gg.g_pow(p, s), q), gg.gt_pow(e_pq, s)));
    EXPECT_TRUE(gg.gt_eq(gg.pair(p, gg.g_pow(q, t)), gg.gt_pow(e_pq, t)));
    EXPECT_TRUE(gg.gt_eq(gg.pair(gg.g_mul(p, q), p),
                         gg.gt_mul(gg.pair(p, p), gg.pair(q, p))));

    // GT laws.
    const auto z = gg.gt_random(rng);
    EXPECT_TRUE(gg.gt_is_id(gg.gt_mul(z, gg.gt_inv(z))));
    EXPECT_TRUE(gg.gt_eq(gg.gt_pow(z, gg.sc_add(s, t)),
                         gg.gt_mul(gg.gt_pow(z, s), gg.gt_pow(z, t))));

    // Scalar field laws.
    if (!gg.sc_is_zero(s)) {
      EXPECT_TRUE(gg.sc_eq(gg.sc_mul(s, gg.sc_inv(s)), gg.sc_from_u64(1)));
    }
    EXPECT_TRUE(gg.sc_is_zero(gg.sc_add(s, gg.sc_neg(s))));
  }
  // e(g, g) is the GT generator and is not the identity.
  EXPECT_TRUE(gg.gt_eq(gg.pair(gg.g_gen(), gg.g_gen()), gg.gt_gen()));
  EXPECT_FALSE(gg.gt_is_id(gg.gt_gen()));
}

template <BilinearGroup GG>
void serialization_battery(const GG& gg, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 10; ++i) {
    const auto s = gg.sc_random(rng);
    const auto p = gg.g_random(rng);
    const auto z = gg.gt_random(rng);

    ByteWriter w;
    gg.sc_ser(w, s);
    gg.g_ser(w, p);
    gg.gt_ser(w, z);
    EXPECT_EQ(w.size(), gg.sc_bytes() + gg.g_bytes() + gg.gt_bytes());

    ByteReader r(w.bytes());
    EXPECT_TRUE(gg.sc_eq(gg.sc_deser(r), s));
    EXPECT_TRUE(gg.g_eq(gg.g_deser(r), p));
    EXPECT_TRUE(gg.gt_eq(gg.gt_deser(r), z));
    EXPECT_TRUE(r.done());
  }
  // Identity round-trips too.
  ByteWriter w;
  gg.g_ser(w, gg.g_id());
  ByteReader r(w.bytes());
  EXPECT_TRUE(gg.g_is_id(gg.g_deser(r)));
}

// Multi-exponentiation agrees with the naive product of powers.
template <BilinearGroup GG>
void multi_pow_battery(const GG& gg, std::uint64_t seed, int iters, std::size_t max_terms) {
  Rng rng(seed);
  for (int it = 0; it < iters; ++it) {
    const std::size_t n = 1 + rng.below(max_terms);
    std::vector<typename GG::G> as;
    std::vector<typename GG::GT> ts;
    std::vector<typename GG::Scalar> ss;
    for (std::size_t i = 0; i < n; ++i) {
      as.push_back(gg.g_random(rng));
      ts.push_back(gg.gt_random(rng));
      ss.push_back(gg.sc_random(rng));
    }
    auto naive_g = gg.g_id();
    auto naive_t = gg.gt_id();
    for (std::size_t i = 0; i < n; ++i) {
      naive_g = gg.g_mul(naive_g, gg.g_pow(as[i], ss[i]));
      naive_t = gg.gt_mul(naive_t, gg.gt_pow(ts[i], ss[i]));
    }
    EXPECT_TRUE(gg.g_eq(gg.g_multi_pow(as, ss), naive_g));
    EXPECT_TRUE(gg.gt_eq(gg.gt_multi_pow(ts, ss), naive_t));
  }
  // Empty and zero-scalar edge cases.
  EXPECT_TRUE(gg.g_is_id(gg.g_multi_pow({}, {})));
  const auto p = gg.g_random(rng);
  const std::vector<typename GG::G> one_base{p};
  const std::vector<typename GG::Scalar> zero{gg.sc_from_u64(0)};
  EXPECT_TRUE(gg.g_is_id(gg.g_multi_pow(one_base, zero)));
}

// Exponent edge cases every backend must get right.
template <BilinearGroup GG>
void exponent_edges(const GG& gg, std::uint64_t seed) {
  Rng rng(seed);
  const auto p = gg.g_random(rng);
  const auto z = gg.gt_random(rng);
  EXPECT_TRUE(gg.g_is_id(gg.g_pow(p, gg.sc_from_u64(0))));
  EXPECT_TRUE(gg.g_eq(gg.g_pow(p, gg.sc_from_u64(1)), p));
  EXPECT_TRUE(gg.gt_is_id(gg.gt_pow(z, gg.sc_from_u64(0))));
  // Exponent r (== 0 mod r) annihilates; exponent r-1 is the inverse.
  const auto r_minus_1 = gg.sc_neg(gg.sc_from_u64(1));
  EXPECT_TRUE(gg.g_eq(gg.g_pow(p, r_minus_1), gg.g_inv(p)));
  EXPECT_TRUE(gg.gt_eq(gg.gt_pow(z, r_minus_1), gg.gt_inv(z)));
  // Identity element behaves absorbingly.
  EXPECT_TRUE(gg.g_is_id(gg.g_pow(gg.g_id(), gg.sc_random(rng))));
  EXPECT_TRUE(gg.g_is_id(gg.g_inv(gg.g_id())));
  // Pairing with identity gives gt identity.
  EXPECT_TRUE(gg.gt_is_id(gg.pair(gg.g_id(), p)));
  EXPECT_TRUE(gg.gt_is_id(gg.pair(p, gg.g_id())));
}

TEST(MockGroupTest, ExponentEdges) { exponent_edges(make_mock(), 520); }
TEST(TateSS256Test, ExponentEdges) { exponent_edges(make_tate_ss256(), 521); }
TEST(TateSS512Test, ExponentEdges) { exponent_edges(make_tate_ss512(), 522); }

TEST(RngSmokeTest, OsEntropyProducesDistinctStreams) {
  auto a = Rng::from_os_entropy();
  auto b = Rng::from_os_entropy();
  EXPECT_NE(a.bytes(16), b.bytes(16));
}

TEST(MockGroupTest, MultiPow) { multi_pow_battery(make_mock(), 510, 50, 12); }
TEST(TateSS256Test, MultiPow) { multi_pow_battery(make_tate_ss256(), 511, 4, 6); }
TEST(TateSS512Test, MultiPow) { multi_pow_battery(make_tate_ss512(), 512, 1, 4); }

TEST(MockGroupTest, MultiPowSizeMismatchThrows) {
  const auto gg = make_mock();
  Rng rng(513);
  const std::vector<MockG> as{gg.g_random(rng)};
  const std::vector<std::uint64_t> ss;
  EXPECT_THROW((void)gg.g_multi_pow(as, ss), std::invalid_argument);
}

TEST(MockGroupTest, Battery) { backend_battery(make_mock(), 500, 200); }
TEST(MockGroupTest, Serialization) { serialization_battery(make_mock(), 501); }
TEST(TateSS256Test, Battery) { backend_battery(make_tate_ss256(), 502, 4); }
TEST(TateSS256Test, Serialization) { serialization_battery(make_tate_ss256(), 503); }
TEST(TateSS512Test, Battery) { backend_battery(make_tate_ss512(), 504, 1); }
TEST(TateSS512Test, Serialization) { serialization_battery(make_tate_ss512(), 505); }
TEST(TateSS1024Test, Serialization) { serialization_battery(make_tate_ss1024(), 509); }

// ---- Tate GT torus codec ---------------------------------------------------------

template <class GG>
Bytes raw_element(std::uint8_t flag, const typename GG::Ctx::Fq::E& payload) {
  ByteWriter w;
  w.u8(flag);
  w.raw(payload.to_bytes());
  return w.take();
}

/// -1 = (-1, 0): on the norm-1 circle but outside the odd-order GT; its
/// torus coordinate is 0.
template <class GG>
typename GG::GT gt_minus_one(const GG& gg) {
  const auto& fq = gg.ctx().fq();
  return {fq.neg(fq.one()), fq.zero()};
}

template <class GG>
void expect_gt_rejected(const GG& gg, const Bytes& b) {
  ByteReader r(b);
  EXPECT_THROW((void)gg.gt_deser(r), std::invalid_argument);
}

template <class GG>
void gt_codec_battery(const GG& gg, std::uint64_t seed) {
  using U = typename GG::Ctx::Fq::E;
  const auto& fq = gg.ctx().fq();
  const auto& f2 = gg.ctx().fq2();
  Rng rng(seed);
  const auto encode = [&](const typename GG::GT& t) {
    ByteWriter w;
    gg.gt_ser(w, t);
    return w.take();
  };
  const auto decode = [&](const Bytes& b) {
    ByteReader r(b);
    const auto t = gg.gt_deser(r);
    EXPECT_TRUE(r.done());
    return t;
  };

  // Round trips: the identity, -1 and random GT elements.
  std::vector<typename GG::GT> elems{gg.gt_id(), gt_minus_one(gg)};
  for (int i = 0; i < 8; ++i) elems.push_back(gg.gt_random(rng));
  for (const auto& t : elems) {
    const auto b = encode(t);
    EXPECT_EQ(b.size(), gg.gt_bytes());
    EXPECT_TRUE(gg.gt_eq(decode(b), t));
  }
  EXPECT_EQ(encode(gg.gt_id()), raw_element<GG>(1, U{}));
  EXPECT_EQ(encode(gt_minus_one(gg)), raw_element<GG>(0, U{}));

  // Every in-range torus coordinate decodes to a norm-1 element, and
  // re-encoding that element reproduces the bytes.
  std::vector<U> cs{U{}, U::from_u64(1), U::from_u64(2), fq.modulus() - U::from_u64(1)};
  for (int i = 0; i < 16; ++i) cs.push_back(fq.random_uint(rng));
  for (const auto& c : cs) {
    const auto b = raw_element<GG>(0, c);
    const auto t = decode(b);
    EXPECT_TRUE(f2.is_norm_one(t));
    EXPECT_EQ(encode(t), b);
  }

  // Rejected, typed: c >= q, unknown flags (2 and 3 are the retired
  // real-part encoding), and an identity with a non-zero payload.
  U ones;
  for (auto& l : ones.limb) l = ~0ull;
  expect_gt_rejected(gg, raw_element<GG>(0, fq.modulus()));
  expect_gt_rejected(gg, raw_element<GG>(0, ones));
  for (const std::uint8_t flag : {2, 3, 4, 0x80, 0xff})
    expect_gt_rejected(gg, raw_element<GG>(flag, U::from_u64(1)));
  expect_gt_rejected(gg, raw_element<GG>(1, U::from_u64(1)));
  // The old encoding of a real element, (2 or 3 by the parity of im, re).
  const auto z = gg.gt_random(rng);
  expect_gt_rejected(gg, raw_element<GG>(fq.to_uint(z.b).is_odd() ? 3 : 2, fq.to_uint(z.a)));
  // The encoder refuses elements off the circle instead of encoding another.
  ByteWriter w;
  EXPECT_THROW(gg.gt_ser(w, typename GG::GT{fq.from_uint(U::from_u64(2)), fq.zero()}),
               std::invalid_argument);

  // G's point at infinity is canonical too: flag 1 takes only a zero payload.
  ByteWriter gw;
  gg.g_ser(gw, gg.g_id());
  EXPECT_EQ(gw.bytes(), raw_element<GG>(1, U{}));
  const auto bad_inf = raw_element<GG>(1, U::from_u64(1));
  ByteReader gr(bad_inf);
  EXPECT_THROW((void)gg.g_deser(gr), std::invalid_argument);
}

/// gt_deser_many over a whole DLR round-1 message ((l+2)(kappa+1) elements,
/// one shared inversion) must equal element-by-element decoding, also when
/// identities, which skip the inversion, sit among the elements.
template <class GG>
void gt_batch_battery(const GG& gg, std::uint64_t seed) {
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), 1, 1);
  auto sys = schemes::DlrSystem<GG>::create(gg, prm, schemes::P1Mode::Plain, seed);
  Rng rng(seed + 1);
  const Bytes msg = sys.p1().dec_round1(sys.encrypt(gg.gt_random(rng), rng));
  const std::size_t n = (prm.ell + 2) * (prm.kappa + 1);
  ASSERT_EQ(msg.size(), n * gg.gt_bytes());

  const auto batched_equals_single = [&](const Bytes& m) {
    ByteReader rb(m);
    const auto many = gg.gt_deser_many(rb, n);
    EXPECT_TRUE(rb.done());
    ByteReader rs(m);
    for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(gg.gt_eq(many[i], gg.gt_deser(rs))) << i;
    return many;
  };
  auto elems = batched_equals_single(msg);
  ByteWriter again;
  gg.gt_ser_many(again, elems);
  EXPECT_EQ(again.bytes(), msg);

  elems.front() = gg.gt_id();
  elems[prm.kappa] = gt_minus_one(gg);
  elems[n / 2] = gg.gt_id();
  elems.back() = gg.gt_id();
  ByteWriter mixed;
  gg.gt_ser_many(mixed, elems);
  const auto back = batched_equals_single(mixed.bytes());
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(gg.gt_eq(back[i], elems[i])) << i;

  // One bad element fails the whole batch, typed.
  Bytes bad = msg;
  bad[(n - 1) * gg.gt_bytes()] = 2;
  ByteReader rbad(bad);
  EXPECT_THROW((void)gg.gt_deser_many(rbad, n), std::invalid_argument);
}

TEST(TateSS256Test, GtTorusCodec) { gt_codec_battery(make_tate_ss256(), 530); }
TEST(TateSS512Test, GtTorusCodec) { gt_codec_battery(make_tate_ss512(), 531); }
TEST(TateSS1024Test, GtTorusCodec) { gt_codec_battery(make_tate_ss1024(), 532); }
TEST(TateSS256Test, GtBatchDecodeMatchesSingle) { gt_batch_battery(make_tate_ss256(), 533); }
TEST(TateSS512Test, GtBatchDecodeMatchesSingle) { gt_batch_battery(make_tate_ss512(), 534); }
TEST(TateSS1024Test, GtBatchDecodeMatchesSingle) { gt_batch_battery(make_tate_ss1024(), 535); }

TEST(MockGroupTest, RejectsCompositeOrder) {
  EXPECT_THROW(MockGroup(1000), std::invalid_argument);
  EXPECT_THROW(MockGroup(1), std::invalid_argument);
}

TEST(MockGroupTest, RejectsHugeOrder) {
  EXPECT_THROW(MockGroup(std::uint64_t{1} << 63), std::invalid_argument);
}

TEST(MockGroupTest, DlogOracle) {
  const auto gg = make_mock_tiny();
  Rng rng(506);
  const auto s = gg.sc_random(rng);
  EXPECT_EQ(gg.dlog(gg.g_pow(gg.g_gen(), s)), s);
}

TEST(MockGroupTest, DeserRejectsOutOfRange) {
  const auto gg = make_mock_tiny(101);
  ByteWriter w;
  w.u64(101);  // == order, out of range
  ByteReader r(w.bytes());
  EXPECT_THROW((void)gg.g_deser(r), std::invalid_argument);
}

TEST(IsPrimeU64Test, SmallValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(101));
  EXPECT_TRUE(is_prime_u64(1009));
  EXPECT_FALSE(is_prime_u64(1001));  // 7*11*13
  EXPECT_TRUE(is_prime_u64((std::uint64_t{1} << 61) - 1));
  EXPECT_FALSE(is_prime_u64((std::uint64_t{1} << 62) - 1));
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(is_prime_u64(561));
}

TEST(TateSS256Test, DeserRejectsBadCompressedPoints) {
  const auto gg = make_tate_ss256();
  const auto& ctx = gg.ctx();
  // Bad flag byte.
  {
    ByteWriter w;
    w.u8(7);
    w.raw(mpint::UInt<4>::from_u64(1).to_bytes());
    ByteReader r(w.bytes());
    EXPECT_THROW((void)gg.g_deser(r), std::invalid_argument);
  }
  // x >= q.
  {
    ByteWriter w;
    w.u8(2);
    mpint::UInt<4> big{};
    for (auto& l : big.limb) l = ~0ull;
    w.raw(big.to_bytes());
    ByteReader r(w.bytes());
    EXPECT_THROW((void)gg.g_deser(r), std::invalid_argument);
  }
  // x with x^3 + x a quadratic non-residue: search a small one.
  for (std::uint64_t xi = 2;; ++xi) {
    const auto x = ctx.fq().from_uint(mpint::UInt<4>::from_u64(xi));
    if (ctx.curve().lift_x(x, false)) continue;
    ByteWriter w;
    w.u8(2);
    w.raw(mpint::UInt<4>::from_u64(xi).to_bytes());
    ByteReader r(w.bytes());
    EXPECT_THROW((void)gg.g_deser(r), std::invalid_argument);
    break;
  }
}

// The square-root decoder this test once fed (a real part re with 1 - re^2 a
// non-residue) is gone: under the torus codec no in-range encoding lies off
// the norm-1 circle, so the test asserts that guarantee directly and checks
// that its old input, now a retired flag, is still rejected.
TEST(TateSS256Test, DeserRejectsNonNormOneGt) {
  const auto gg = make_tate_ss256();
  const auto& fq = gg.ctx().fq();
  const auto& f2 = gg.ctx().fq2();
  for (std::uint64_t c = 0; c < 256; ++c) {
    const auto b = raw_element<TateSS256>(0, mpint::UInt<4>::from_u64(c));
    ByteReader r(b);
    EXPECT_TRUE(f2.is_norm_one(gg.gt_deser(r))) << c;
  }
  for (std::uint64_t a = 2;; ++a) {
    const auto re = fq.from_uint(mpint::UInt<4>::from_u64(a));
    const auto im2 = fq.sub(fq.one(), fq.sqr(re));
    if (fq.is_zero(im2) || fq.sqrt(im2)) continue;
    expect_gt_rejected(gg, raw_element<TateSS256>(2, mpint::UInt<4>::from_u64(a)));
    break;
  }
}

TEST(TateSS256Test, ScalarDeserRejectsOverflow) {
  const auto gg = make_tate_ss256();
  ByteWriter w;
  mpint::UInt<1> big{};
  big.limb[0] = ~0ull;
  w.raw(big.to_bytes());
  ByteReader r(w.bytes());
  EXPECT_THROW((void)gg.sc_deser(r), std::invalid_argument);
}

TEST(CrossBackendTest, MockAgreesWithItselfOnProtocolAlgebra) {
  // The algebra used by the DLR decryption identity, checked on the mock:
  // B * prod e(A,a_i)^{s_i} / e(A, Phi) == m when Phi = msk * prod a^s.
  const auto gg = make_mock();
  Rng rng(508);
  const auto alpha = gg.sc_random(rng);
  const auto g2 = gg.g_random(rng);
  const auto msk = gg.g_pow(g2, alpha);
  const std::size_t ell = 5;
  std::vector<MockG> a;
  std::vector<std::uint64_t> s;
  auto phi = msk;
  for (std::size_t i = 0; i < ell; ++i) {
    a.push_back(gg.g_random(rng));
    s.push_back(gg.sc_random(rng));
    phi = gg.g_mul(phi, gg.g_pow(a[i], s[i]));
  }
  const auto t = gg.sc_random(rng);
  const auto m = gg.gt_random(rng);
  const auto g1 = gg.g_pow(gg.g_gen(), alpha);
  const auto z = gg.pair(g1, g2);
  const auto A = gg.g_pow(gg.g_gen(), t);
  const auto B = gg.gt_mul(m, gg.gt_pow(z, t));
  auto acc = B;
  for (std::size_t i = 0; i < ell; ++i) acc = gg.gt_mul(acc, gg.gt_pow(gg.pair(A, a[i]), s[i]));
  acc = gg.gt_mul(acc, gg.gt_inv(gg.pair(A, phi)));
  EXPECT_TRUE(gg.gt_eq(acc, m));
}

}  // namespace
}  // namespace dlr::group
