// End-to-end tests of the DLR DPKE (Construction 5.3): algorithm correctness,
// the 2-party decryption and refresh protocols, refresh invariants, both P1
// storage modes, transcript structure, and secret-memory snapshots.
#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "group/counting_group.hpp"
#include "group/mock_group.hpp"
#include "group/tate_group.hpp"
#include "schemes/dlr.hpp"

namespace dlr::schemes {
namespace {

using crypto::Rng;
using group::make_mock;
using group::make_tate_ss256;
using group::MockGroup;
using Tate = group::TateSS256;

DlrParams mock_params(std::size_t lambda = 0) {
  // Mock group order ~2^61; lambda defaults to log p.
  auto gg = make_mock();
  return DlrParams::derive(gg.scalar_bits(), lambda == 0 ? gg.scalar_bits() : lambda);
}

// ---- algorithms ---------------------------------------------------------------

TEST(DlrCoreTest, GenProducesConsistentSharing) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  Rng rng(1000);
  const auto kg = DlrCore<MockGroup>::gen(gg, prm, rng);
  EXPECT_EQ(kg.sk1.a.size(), prm.ell);
  EXPECT_EQ(kg.sk2.s.size(), prm.ell);
  // Phi / prod a^s == msk, and pk.z == e(g,g2)^alpha == e(g^alpha, g2).
  EXPECT_TRUE(gg.g_eq(DlrCore<MockGroup>::reconstruct_msk(gg, kg.sk1, kg.sk2), kg.msk));
}

TEST(DlrCoreTest, EncDecReference) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  Rng rng(1001);
  const auto kg = DlrCore<MockGroup>::gen(gg, prm, rng);
  for (int i = 0; i < 50; ++i) {
    const auto m = gg.gt_random(rng);
    const auto c = DlrCore<MockGroup>::enc(gg, kg.pk, m, rng);
    EXPECT_TRUE(gg.gt_eq(DlrCore<MockGroup>::dec_reference(gg, kg.sk1, kg.sk2, c), m));
  }
}

TEST(DlrCoreTest, EncIsRandomized) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  Rng rng(1002);
  const auto kg = DlrCore<MockGroup>::gen(gg, prm, rng);
  const auto m = gg.gt_random(rng);
  const auto c1 = DlrCore<MockGroup>::enc(gg, kg.pk, m, rng);
  const auto c2 = DlrCore<MockGroup>::enc(gg, kg.pk, m, rng);
  EXPECT_FALSE(gg.g_eq(c1.a, c2.a));
}

TEST(DlrCoreTest, EncWithTDeterministic) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  Rng rng(1003);
  const auto kg = DlrCore<MockGroup>::gen(gg, prm, rng);
  const auto m = gg.gt_random(rng);
  const auto t = gg.sc_random(rng);
  const auto c1 = DlrCore<MockGroup>::enc_with_t(gg, kg.pk, m, t);
  const auto c2 = DlrCore<MockGroup>::enc_with_t(gg, kg.pk, m, t);
  EXPECT_TRUE(gg.g_eq(c1.a, c2.a));
  EXPECT_TRUE(gg.gt_eq(c1.b, c2.b));
}

TEST(DlrCoreTest, CiphertextSerialization) {
  const auto gg = make_mock();
  Rng rng(1004);
  const auto kg = DlrCore<MockGroup>::gen(gg, mock_params(), rng);
  const auto m = gg.gt_random(rng);
  const auto c = DlrCore<MockGroup>::enc(gg, kg.pk, m, rng);
  ByteWriter w;
  DlrCore<MockGroup>::ser_ciphertext(gg, w, c);
  EXPECT_EQ(w.size(), DlrCore<MockGroup>::ciphertext_bytes(gg));
  ByteReader r(w.bytes());
  const auto c2 = DlrCore<MockGroup>::deser_ciphertext(gg, r);
  EXPECT_TRUE(gg.g_eq(c.a, c2.a));
  EXPECT_TRUE(gg.gt_eq(c.b, c2.b));
}

TEST(DlrCoreTest, PairCtTransportsCiphertexts) {
  const auto gg = make_mock();
  Rng rng(1005);
  HpskeG<MockGroup> hg(gg, 4);
  HpskeGT<MockGroup> ht(gg, 4);
  const auto sigma = hg.gen(rng);
  const auto m = gg.g_random(rng);
  const auto ct = hg.enc(sigma, m, rng);
  const auto a = gg.g_random(rng);
  const auto ct_t = DlrCore<MockGroup>::pair_ct(gg, a, ct);
  typename HpskeGT<MockGroup>::SecretKey sigma_t{sigma.s};
  EXPECT_TRUE(gg.gt_eq(ht.dec(sigma_t, ct_t), gg.pair(a, m)));
}

// ---- distributed protocols ------------------------------------------------------

template <group::BilinearGroup GG>
void protocol_battery(const GG& gg, const DlrParams& prm, P1Mode mode, std::uint64_t seed,
                      int periods, int msgs_per_period) {
  auto sys = DlrSystem<GG>::create(gg, prm, mode, seed);
  Rng rng(seed + 999);
  for (int t = 0; t < periods; ++t) {
    for (int k = 0; k < msgs_per_period; ++k) {
      const auto m = gg.gt_random(rng);
      const auto c = DlrCore<GG>::enc(gg, sys.pk(), m, rng);
      EXPECT_TRUE(gg.gt_eq(sys.decrypt(c), m)) << "period " << t << " msg " << k;
    }
    sys.refresh();
  }
  // Still correct after all those refreshes.
  const auto m = gg.gt_random(rng);
  const auto c = DlrCore<GG>::enc(gg, sys.pk(), m, rng);
  EXPECT_TRUE(gg.gt_eq(sys.decrypt(c), m));
}

TEST(DlrProtocolTest, DecryptAndRefreshMockPlain) {
  protocol_battery(make_mock(), mock_params(), P1Mode::Plain, 1100, 10, 3);
}
TEST(DlrProtocolTest, DecryptAndRefreshMockCompact) {
  protocol_battery(make_mock(), mock_params(), P1Mode::Compact, 1101, 10, 3);
}
TEST(DlrProtocolTest, DecryptAndRefreshTatePlain) {
  const auto gg = make_tate_ss256();
  protocol_battery(gg, DlrParams::derive(gg.scalar_bits(), 32), P1Mode::Plain, 1102, 2, 1);
}
TEST(DlrProtocolTest, DecryptAndRefreshTateCompact) {
  const auto gg = make_tate_ss256();
  protocol_battery(gg, DlrParams::derive(gg.scalar_bits(), 32), P1Mode::Compact, 1103, 2, 1);
}

class DlrLambdaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DlrLambdaSweep, ProtocolCorrectAcrossLambda) {
  protocol_battery(make_mock(), mock_params(GetParam()), P1Mode::Plain, 1200 + GetParam(), 3,
                   1);
  protocol_battery(make_mock(), mock_params(GetParam()), P1Mode::Compact,
                   1300 + GetParam(), 3, 1);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, DlrLambdaSweep,
                         ::testing::Values(1, 16, 61, 128, 400, 1024));

// ---- refresh semantics ------------------------------------------------------------

TEST(DlrRefreshTest, SharesChangeButMskInvariant) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  auto sys = DlrSystem<MockGroup>::create(gg, prm, P1Mode::Plain, 1400);
  const auto sk1_0 = sys.p1().share();
  const auto sk2_0 = sys.p2().share();
  const auto msk0 = DlrCore<MockGroup>::reconstruct_msk(gg, sk1_0, sk2_0);
  for (int t = 0; t < 5; ++t) {
    sys.refresh();
    const auto& sk1 = sys.p1().share();
    const auto& sk2 = sys.p2().share();
    // The refresh is a *re-sharing*: same msk, fresh shares.
    EXPECT_TRUE(gg.g_eq(DlrCore<MockGroup>::reconstruct_msk(gg, sk1, sk2), msk0));
    EXPECT_FALSE(sk2.s == sk2_0.s);
    EXPECT_FALSE(gg.g_eq(sk1.phi, sk1_0.phi));
  }
}

TEST(DlrRefreshTest, CompactModeMskInvariant) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  auto sys = DlrSystem<MockGroup>::create(gg, prm, P1Mode::Compact, 1401);
  const auto msk0 = DlrCore<MockGroup>::reconstruct_msk(gg, sys.p1().recover_share_for_test(),
                                                        sys.p2().share());
  for (int t = 0; t < 5; ++t) {
    sys.refresh();
    EXPECT_TRUE(gg.g_eq(DlrCore<MockGroup>::reconstruct_msk(
                            gg, sys.p1().recover_share_for_test(), sys.p2().share()),
                        msk0));
  }
}

TEST(DlrRefreshTest, PublicKeyUnchangedForever) {
  const auto gg = make_mock();
  auto sys = DlrSystem<MockGroup>::create(gg, mock_params(), P1Mode::Plain, 1402);
  const auto z0 = sys.pk().z;
  for (int t = 0; t < 20; ++t) sys.refresh();
  EXPECT_TRUE(gg.gt_eq(sys.pk().z, z0));
}

// ---- transcript structure -----------------------------------------------------------

TEST(DlrTranscriptTest, PeriodTranscriptShape) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  auto sys = DlrSystem<MockGroup>::create(gg, prm, P1Mode::Plain, 1500);
  Rng rng(1501);
  const auto m = gg.gt_random(rng);
  const auto c = DlrCore<MockGroup>::enc(gg, sys.pk(), m, rng);
  const auto rec = sys.run_period(c);
  EXPECT_TRUE(gg.gt_eq(rec.dec_output, m));
  ASSERT_EQ(rec.transcript.count(), 4u);  // dec.r1, dec.r2, ref.r1, ref.r2
  const auto& ms = rec.transcript.messages();
  EXPECT_EQ(ms[0].label, "dec.r1");
  EXPECT_EQ(ms[0].from, net::DeviceId::P1);
  EXPECT_EQ(ms[1].label, "dec.r2");
  EXPECT_EQ(ms[1].from, net::DeviceId::P2);
  EXPECT_EQ(ms[2].label, "ref.r1");
  EXPECT_EQ(ms[3].label, "ref.r2");

  // Message sizes match the construction: dec.r1 carries l+2 GT-HPSKE
  // ciphertexts, ref.r1 carries 2l+1 G-HPSKE ciphertexts, replies carry 1.
  const std::size_t ct_gt = (prm.kappa + 1) * gg.gt_bytes();
  const std::size_t ct_g = (prm.kappa + 1) * gg.g_bytes();
  EXPECT_EQ(ms[0].size_bytes(), (prm.ell + 2) * ct_gt);
  EXPECT_EQ(ms[1].size_bytes(), ct_gt);
  EXPECT_EQ(ms[2].size_bytes(), (2 * prm.ell + 1) * ct_g);
  EXPECT_EQ(ms[3].size_bytes(), ct_g);
}

TEST(DlrTranscriptTest, TrailingBytesRejected) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  auto sys = DlrSystem<MockGroup>::create(gg, prm, P1Mode::Plain, 1502);
  Rng rng(1503);
  const auto c = DlrCore<MockGroup>::enc(gg, sys.pk(), gg.gt_random(rng), rng);
  auto msg1 = sys.p1().dec_round1(c);
  auto msg1_bad = msg1;
  msg1_bad.push_back(0);
  EXPECT_THROW((void)sys.p2().dec_respond(msg1_bad), std::invalid_argument);
  auto reply = sys.p2().dec_respond(msg1);
  auto reply_bad = reply;
  reply_bad.push_back(0);
  EXPECT_THROW((void)sys.p1().dec_finish(reply_bad), std::invalid_argument);
}

// ---- P2 operation profile (Section 1.1 "simplicity of P2") ---------------------------

TEST(DlrOpsTest, P2DoesOnlyPowAndMul) {
  using CG = group::CountingGroup<MockGroup>;
  static_assert(group::BilinearGroup<CG>);
  CG counting(make_mock());
  const auto prm = mock_params();
  Rng rng(1600);
  auto kg = DlrCore<CG>::gen(counting, prm, rng);
  DlrParty1<CG> p1(counting, prm, kg.pk, std::move(kg.sk1), P1Mode::Plain,
                   Rng(1601));
  CG counting_p2(make_mock());
  DlrParty2<CG> p2(counting_p2, prm, std::move(kg.sk2), Rng(1602));

  const auto m = counting.gt_random(rng);
  const auto c = DlrCore<CG>::enc(counting, kg.pk, m, rng);
  const auto msg1 = p1.dec_round1(c);
  (void)p2.dec_respond(msg1);
  const auto msg2 = p1.ref_round1();
  (void)p2.ref_respond(msg2);

  const auto& ops = counting_p2.counts();
  EXPECT_EQ(ops.pairings, 0u);          // P2 never pairs
  EXPECT_EQ(ops.g_random, 0u);          // P2 never samples group elements
  EXPECT_EQ(ops.gt_random, 0u);
  EXPECT_EQ(ops.hash_to_g, 0u);
  // It exponentiates (via multi-exponentiation chains) and multiplies.
  EXPECT_GT(ops.exps() + ops.multi_pows, 0u);
  EXPECT_GT(ops.multi_pow_terms, 0u);
  EXPECT_GT(ops.muls(), 0u);
  EXPECT_EQ(ops.sc_random, prm.ell);    // and samples l fresh scalars (s')
}

TEST(DlrOpsTest, EncryptionCostMatchesFootnote3) {
  // Footnote 3: DLR encryption = 2 exponentiations, 0 pairings (e(g1,g2) is
  // in the public key), ciphertext = 2 group elements.
  using CG = group::CountingGroup<MockGroup>;
  CG counting(make_mock());
  const auto prm = mock_params();
  Rng rng(1603);
  const auto kg = DlrCore<CG>::gen(counting, prm, rng);
  counting.reset_counts();
  const auto m = counting.gt_random(rng);
  counting.reset_counts();
  (void)DlrCore<CG>::enc(counting, kg.pk, m, rng);
  const auto& ops = counting.counts();
  EXPECT_EQ(ops.exps(), 2u);
  EXPECT_EQ(ops.pairings, 0u);
  EXPECT_EQ(ops.muls(), 1u);
}

// Construction 5.3's costs, pinned per request on the real pairing at
// lambda = 64 on SS256 (l = 21, kappa = 4): P1's round 1 pairs every
// coordinate of the l+1 transported ciphertexts, (l+1)(kappa+1) pairings (dB
// is encrypted, not paired); P2 never pairs; a refresh pairs nothing. Round 1
// carries l+2 GT-HPSKE ciphertexts and P2's reply carries one. A refresh
// cycle (round 1, finish, the next period's share encryptions) samples
// l(kappa+1) + (l+1)kappa = 193 raw points on P1, whether the next period's
// coins are drawn during PREPARE (the service runtime) or at set-up, and
// none on P2. Fan-out is forced off: CountingGroup's counters are not
// synchronized.
TEST(DlrOpsTest, TatePairingCountsAndMessageSizesMatchFormulas) {
  using CG = group::CountingGroup<Tate>;
  const auto tate = make_tate_ss256();
  const auto prm = DlrParams::derive(tate.scalar_bits(), 64);
  ASSERT_EQ(prm.ell, 21u);
  ASSERT_EQ(prm.kappa, 4u);
  CG g1(tate);
  CG g2(tate);
  Rng rng(1610);
  auto kg = DlrCore<CG>::gen(g1, prm, rng);
  DlrParty1<CG> p1(g1, prm, kg.pk, std::move(kg.sk1), P1Mode::Plain, Rng(1611));
  DlrParty2<CG> p2(g2, prm, std::move(kg.sk2), Rng(1612));
  const auto m = g1.gt_random(rng);
  const auto c = DlrCore<CG>::enc(g1, kg.pk, m, rng);
  p1.prepare_period();
  service::set_parallel_threads_for_test(0);

  g1.reset_counts();
  g2.reset_counts();
  const auto msg1 = p1.dec_round1(c);
  const std::size_t round1_pairings = g1.counts().pairings;
  const auto reply = p2.dec_respond(msg1);
  EXPECT_TRUE(g1.gt_eq(p1.dec_finish(reply), m));
  EXPECT_EQ(round1_pairings, (prm.ell + 1) * (prm.kappa + 1));
  EXPECT_EQ(round1_pairings, 110u);
  EXPECT_EQ(g1.counts().pairings, round1_pairings);  // dec_finish pairs nothing
  EXPECT_EQ(g2.counts().pairings, 0u);
  EXPECT_EQ(msg1.size(), (prm.ell + 2) * (prm.kappa + 1) * g1.gt_bytes());
  EXPECT_EQ(reply.size(), (prm.kappa + 1) * g1.gt_bytes());

  const std::size_t points = prm.ell * (prm.kappa + 1) + (prm.ell + 1) * prm.kappa;
  EXPECT_EQ(points, 193u);
  for (const bool early_coins : {false, true}) {
    SCOPED_TRACE(early_coins ? "coins drawn during PREPARE" : "coins drawn at set-up");
    g1.reset_counts();
    g2.reset_counts();
    const auto ref1 = p1.ref_round1();
    if (early_coins) p1.draw_next_coins();
    p1.ref_finish(p2.ref_respond(ref1));
    p1.prepare_period();
    EXPECT_EQ(g1.counts().pairings, 0u);
    EXPECT_EQ(g2.counts().pairings, 0u);
    EXPECT_EQ(g1.counts().g_random, points);
    EXPECT_EQ(g2.counts().g_random, 0u);
  }
  service::set_parallel_threads_for_test(-1);

  const auto c2 = DlrCore<CG>::enc(g1, kg.pk, m, rng);
  EXPECT_TRUE(g1.gt_eq(p1.dec_finish(p2.dec_respond(p1.dec_round1(c2))), m));
}

// Known answer at SS256: one SHA-256 over the serialized bytes of e(g, g), a
// prepared pair_many over 8 seeded points, a seeded decryption (round-1
// message, P2's reply, P1's plaintext) and a seeded ref_round1. The digest
// was recorded with the generic CIOS field kernel; any F_q kernel FpCtx
// selects must reproduce it bit for bit.
TEST(DlrOpsTest, SS256KnownAnswerDigestIsPinned) {
  const auto tate = make_tate_ss256();
  const auto prm = DlrParams::derive(tate.scalar_bits(), 64);
  service::set_parallel_threads_for_test(0);
  Rng rng(2210);
  ByteWriter w;
  tate.gt_ser(w, tate.pair(tate.g_gen(), tate.g_gen()));
  std::vector<Tate::G> qs;
  for (int i = 0; i < 8; ++i) qs.push_back(tate.g_random(rng));
  tate.gt_ser_many(w, tate.prepare_pair(tate.g_random(rng)).pair_many(qs));

  auto kg = DlrCore<Tate>::gen(tate, prm, rng);
  DlrParty1<Tate> p1(tate, prm, kg.pk, std::move(kg.sk1), P1Mode::Plain, Rng(2211));
  DlrParty2<Tate> p2(tate, prm, std::move(kg.sk2), Rng(2212));
  const auto m = tate.gt_random(rng);
  const auto c = DlrCore<Tate>::enc(tate, kg.pk, m, rng);
  p1.prepare_period();
  const auto msg1 = p1.dec_round1(c);
  const auto reply = p2.dec_respond(msg1);
  const auto pt = p1.dec_finish(reply);
  EXPECT_TRUE(tate.gt_eq(pt, m));
  w.raw(msg1);
  w.raw(reply);
  tate.gt_ser(w, pt);
  w.raw(p1.ref_round1());
  service::set_parallel_threads_for_test(-1);

  EXPECT_EQ(to_hex(crypto::Sha256::hash(w.take())),
            "9789802e66de4c5e70f62bd88f1210606e64ac56828c5cdedb7eb95f653c884d");
}

// ---- secret memory ---------------------------------------------------------------------

TEST(DlrSnapshotTest, SnapshotSizesMatchAccounting) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  for (auto mode : {P1Mode::Plain, P1Mode::Compact}) {
    auto sys = DlrSystem<MockGroup>::create(gg, prm, mode, 1700);
    Rng rng(1701);
    const auto c = DlrCore<MockGroup>::enc(gg, sys.pk(), gg.gt_random(rng), rng);
    (void)sys.run_period(c);
    // P2's normal snapshot is exactly the share: l scalars.
    EXPECT_EQ(sys.p2().normal_snapshot().bits(), prm.ell * 8 * gg.sc_bytes());
    // P2's refresh snapshot holds both shares.
    EXPECT_EQ(sys.p2().refresh_snapshot().bits(), 2 * prm.ell * 8 * gg.sc_bytes());
    EXPECT_EQ(sys.p2().secret_bits(net::Phase::Normal), prm.ell * 8 * gg.sc_bytes());
    EXPECT_EQ(sys.p2().secret_bits(net::Phase::Refresh), 2 * prm.ell * 8 * gg.sc_bytes());
    // P1 refresh memory is about double its normal memory.
    const auto n1 = sys.p1().secret_bits(net::Phase::Normal);
    const auto r1 = sys.p1().secret_bits(net::Phase::Refresh);
    EXPECT_GT(r1, n1);
    EXPECT_LE(r1, 2 * n1 + 8 * gg.g_bytes() + 8 * gg.sc_bytes());
  }
}

TEST(DlrSnapshotTest, CompactModeSecretIsSmall) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  auto plain = DlrSystem<MockGroup>::create(gg, prm, P1Mode::Plain, 1702);
  auto compact = DlrSystem<MockGroup>::create(gg, prm, P1Mode::Compact, 1703);
  // Compact P1 memory = kappa*log p + scratch << plain P1 memory (~l group
  // elements) -- the whole point of the optimal-leakage-rate remark.
  EXPECT_LT(compact.p1().secret_bits(net::Phase::Normal),
            plain.p1().secret_bits(net::Phase::Normal));
}

TEST(DlrSnapshotTest, GenRandomnessNonEmpty) {
  const auto gg = make_mock();
  auto sys = DlrSystem<MockGroup>::create(gg, mock_params(), P1Mode::Plain, 1704);
  EXPECT_GT(sys.gen_randomness().size(), 0u);
}

// ---- failure injection --------------------------------------------------------------------

TEST(DlrFailureTest, BadShareWidthRejected) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  Rng rng(1800);
  auto kg = DlrCore<MockGroup>::gen(gg, prm, rng);
  kg.sk1.a.pop_back();
  EXPECT_THROW(DlrParty1<MockGroup>(gg, prm, kg.pk, kg.sk1, P1Mode::Plain, Rng(1)),
               std::invalid_argument);
  kg.sk2.s.pop_back();
  EXPECT_THROW(DlrParty2<MockGroup>(gg, prm, kg.sk2, Rng(2)), std::invalid_argument);
}

TEST(DlrFailureTest, TamperedCiphertextDecryptsToGarbage) {
  const auto gg = make_mock();
  const auto prm = mock_params();
  auto sys = DlrSystem<MockGroup>::create(gg, prm, P1Mode::Plain, 1801);
  Rng rng(1802);
  const auto m = gg.gt_random(rng);
  auto c = DlrCore<MockGroup>::enc(gg, sys.pk(), m, rng);
  c.b = gg.gt_mul(c.b, gg.gt_gen());  // malleate
  const auto out = sys.decrypt(c);
  EXPECT_FALSE(gg.gt_eq(out, m));
  EXPECT_TRUE(gg.gt_eq(out, gg.gt_mul(m, gg.gt_gen())));  // CPA schemes are malleable
}

}  // namespace
}  // namespace dlr::schemes
