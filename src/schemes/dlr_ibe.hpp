// DLRIBE -- the paper's distributed identity-based encryption scheme,
// CPA-secure against continual memory leakage (Section 4.2).
//
// Both the master secret key and every identity-based secret key are 2-of-2
// shared with the Pi_ss sharing and refreshed with the DLR refresh protocol
// (Remark 4.1: leakage is tolerated from msk shares *and* id-key shares).
//
//   msk sharing:  P1: (a_1..a_l, Phi = g2^alpha * prod a^s),  P2: (s_1..s_l)
//   skID sharing: P1: (g^{r_1}..g^{r_n}, a'_1..a'_l, M' = M * prod a'^{s'}),
//                 P2: (s'_1..s'_l)
//
// Distributed extract: P1 sends (Enc'(a_i), Enc'(a'_i))_i and
// Enc'(Phi * W), W = prod_j u_{j,b_j}^{r_j}; P2 picks s' and responds
// prod f'^{s'} / f^{s} * f_{PhiW}, which decrypts to
// g2^alpha * W * prod a'^{s'} = M * prod a'^{s'} -- the blinded BB identity
// key, never unblinded anywhere.
//
// Distributed decrypt: as in DLR, with P1 folding the pairing correction
// V = prod_j e(g^{r_j}, C_j) into the dB component.
#pragma once

#include <map>

#include "net/transcript.hpp"
#include "schemes/bb_ibe.hpp"
#include "telemetry/trace.hpp"
#include "schemes/dlr.hpp"

namespace dlr::schemes {

template <group::BilinearGroup GG>
class DlrIbeP1;
template <group::BilinearGroup GG>
class DlrIbeP2;
template <group::BilinearGroup GG>
class DlrIbeSystem;

template <group::BilinearGroup GG>
class DlrIbe {
 public:
  using Scalar = typename GG::Scalar;
  using G = typename GG::G;
  using GT = typename GG::GT;
  using Bb = BbIbe<GG>;
  using HG = HpskeG<GG>;
  using HT = HpskeGT<GG>;
  using CtG = typename HG::Ciphertext;
  using CtT = typename HT::Ciphertext;
  using Ciphertext = typename Bb::Ciphertext;

  /// A 2-of-2 shared group element: P1 side.
  struct Unit1 {
    std::vector<G> a;
    G phi{};
  };
  /// P2 side.
  struct Unit2 {
    std::vector<Scalar> s;
  };

  struct P1IdShare {
    std::vector<G> r;  // g^{r_j}: the BB randomness, held by P1
    Unit1 unit;        // sharing of M
  };

  struct KeyGenResult {
    typename Bb::PublicParams pp;
    Unit1 msk1;
    Unit2 msk2;
    Bytes gen_randomness;
    G msk{};  // test-only
  };

  DlrIbe(GG gg, DlrParams prm, std::size_t id_bits)
      : gg_(std::move(gg)), prm_(prm), bb_(gg_, id_bits), hg_(gg_, prm.kappa),
        ht_(gg_, prm.kappa) {}

  [[nodiscard]] const GG& group() const { return gg_; }
  [[nodiscard]] const DlrParams& params() const { return prm_; }
  [[nodiscard]] const Bb& bb() const { return bb_; }

  KeyGenResult gen(crypto::Rng& rng) const {
    telemetry::ScopedSpan span("ibe.keygen");
    KeyGenResult out;
    auto [pp, mk] = bb_.setup(rng);
    out.pp = std::move(pp);
    out.msk = mk.msk;
    out.msk2.s.reserve(prm_.ell);
    for (std::size_t i = 0; i < prm_.ell; ++i) out.msk2.s.push_back(gg_.sc_random(rng));
    out.msk1.a.reserve(prm_.ell);
    for (std::size_t i = 0; i < prm_.ell; ++i) out.msk1.a.push_back(gg_.g_random(rng));
    out.msk1.phi = gg_.g_mul(mk.msk, gg_.g_multi_pow(out.msk1.a, out.msk2.s));
    ByteWriter w;
    for (const auto& s : out.msk2.s) gg_.sc_ser(w, s);
    gg_.g_ser(w, mk.msk);
    out.gen_randomness = w.take();
    return out;
  }

  /// Encryption is plain BB encryption under the unchanged public params.
  Ciphertext enc(const typename Bb::PublicParams& pp, const std::string& id, const GT& m,
                 crypto::Rng& rng) const {
    telemetry::ScopedSpan span("ibe.enc");
    return bb_.enc(pp, id, m, rng);
  }

  /// Test-only reference: reconstruct the shared element of a unit.
  [[nodiscard]] G reconstruct(const Unit1& u1, const Unit2& u2) const {
    return gg_.g_mul(u1.phi, gg_.g_inv(gg_.g_multi_pow(u1.a, u2.s)));
  }

 private:
  friend class DlrIbeP1<GG>;
  friend class DlrIbeP2<GG>;
  friend class DlrIbeSystem<GG>;

  GG gg_;
  DlrParams prm_;
  Bb bb_;
  HG hg_;
  HT ht_;
};

// =============================================================================
// Device P1
// =============================================================================

template <group::BilinearGroup GG>
class DlrIbeP1 {
 public:
  using Scheme = DlrIbe<GG>;
  using Scalar = typename GG::Scalar;
  using G = typename GG::G;
  using GT = typename GG::GT;
  using CtG = typename Scheme::CtG;
  using CtT = typename Scheme::CtT;
  using Unit1 = typename Scheme::Unit1;

  DlrIbeP1(Scheme sch, typename Scheme::Bb::PublicParams pp, Unit1 msk1, crypto::Rng rng)
      : sch_(std::move(sch)), pp_(std::move(pp)), msk1_(std::move(msk1)),
        rng_(std::move(rng)) {}

  [[nodiscard]] const typename Scheme::Bb::PublicParams& pp() const { return pp_; }
  [[nodiscard]] const Unit1& msk_share() const { return msk1_; }
  [[nodiscard]] const typename Scheme::P1IdShare& id_share(const std::string& id) const {
    return ids_.at(id);
  }
  [[nodiscard]] bool has_id(const std::string& id) const { return ids_.contains(id); }
  void erase_id(const std::string& id) { ids_.erase(id); }
  [[nodiscard]] std::size_t id_count() const { return ids_.size(); }

  // ---- extract ----------------------------------------------------------------

  /// Round 1 of the distributed extract for `id`.
  [[nodiscard]] Bytes ext_round1(const std::string& id) {
    const auto& gg = sch_.gg_;
    begin_op();
    const auto bits = sch_.bb_.hash_id(id);
    // BB randomness r_j, kept as g^{r_j}; W = prod u_{j,b_j}^{r_j}.
    pending_r_.clear();
    pending_r_.reserve(sch_.bb_.id_bits());
    G w = gg.g_id();
    for (std::size_t j = 0; j < sch_.bb_.id_bits(); ++j) {
      const Scalar rj = gg.sc_random(rng_);
      pending_r_.push_back(gg.g_pow(pp_.g, rj));
      w = gg.g_mul(w, gg.g_pow(pp_.u[j][bits[j] ? 1 : 0], rj));
    }
    pending_id_ = id;
    return share_transform_msg(msk1_, gg.g_mul(msk1_.phi, w));
  }

  /// Round 3: install the blinded identity key share.
  void ext_finish(const Bytes& reply) {
    typename Scheme::P1IdShare share;
    share.r = std::move(pending_r_);
    share.unit.a = std::move(pending_aprime_);
    share.unit.phi = decrypt_reply(reply);
    ids_[pending_id_] = std::move(share);
    end_op();
  }

  // ---- decrypt -----------------------------------------------------------------

  [[nodiscard]] Bytes dec_round1(const std::string& id, const typename Scheme::Ciphertext& c) {
    const auto& gg = sch_.gg_;
    const auto& share = ids_.at(id);
    begin_op();
    const GT v = sch_.bb_.pairing_correction(share.r, c.c);
    std::vector<CtT> d;
    d.reserve(share.unit.a.size() + 2);
    for (const auto& ai : share.unit.a) d.push_back(pair_enc(c.a, ai));
    d.push_back(pair_enc(c.a, share.unit.phi));
    d.push_back(sch_.ht_.enc(sigma_gt(), gg.gt_mul(c.b, v), rng_));
    ByteWriter w;
    sch_.ht_.ser_cts(w, d);
    return w.take();
  }

  [[nodiscard]] GT dec_finish(const Bytes& reply) {
    ByteReader r(reply);
    const CtT combined = sch_.ht_.deser_ct(r);
    if (!r.done()) throw std::invalid_argument("DlrIbeP1::dec_finish: trailing bytes");
    const GT m = sch_.ht_.dec(sigma_gt(), combined);
    end_op();
    return m;
  }

  // ---- refresh (msk or id-key shares; same protocol) -----------------------------

  [[nodiscard]] Bytes ref_round1_msk() {
    begin_op();
    refreshing_msk_ = true;
    return share_transform_msg(msk1_, msk1_.phi);
  }

  [[nodiscard]] Bytes ref_round1_id(const std::string& id) {
    begin_op();
    refreshing_msk_ = false;
    pending_id_ = id;
    const auto& unit = ids_.at(id).unit;
    return share_transform_msg(unit, unit.phi);
  }

  void ref_finish(const Bytes& reply) {
    const G new_phi = decrypt_reply(reply);
    Unit1& unit = refreshing_msk_ ? msk1_ : ids_.at(pending_id_).unit;
    capture_refresh_snapshot(unit, new_phi);
    unit.a = std::move(pending_aprime_);
    unit.phi = new_phi;
    end_op();
  }

  // ---- extension: BB-key re-randomization ------------------------------------------
  //
  // Beyond refreshing the *sharing* (a', s'), the BB identity key itself is
  // re-randomizable: r_j <- r_j + delta_j lifts to R_j <- R_j * g^{delta_j}
  // and M <- M * prod_j u_{j,b_j}^{delta_j}. The update commutes with the
  // blinding (phi = M * prod a'^{s'}), so P1 applies it locally -- no
  // interaction, and P2's share is untouched.
  void rerandomize_id_key(const std::string& id, crypto::Rng& rng) {
    const auto& gg = sch_.gg_;
    auto& share = ids_.at(id);
    const auto bits = sch_.bb_.hash_id(id);
    for (std::size_t j = 0; j < sch_.bb_.id_bits(); ++j) {
      const Scalar dj = gg.sc_random(rng);
      share.r[j] = gg.g_mul(share.r[j], gg.g_pow(pp_.g, dj));
      share.unit.phi =
          gg.g_mul(share.unit.phi, gg.g_pow(pp_.u[j][bits[j] ? 1 : 0], dj));
    }
  }

  // ---- secret memory --------------------------------------------------------------

  [[nodiscard]] net::SecretSnapshot normal_snapshot() const {
    const auto& gg = sch_.gg_;
    ByteWriter w;
    ser_unit(w, msk1_);
    for (const auto& [id, share] : ids_) {
      for (const auto& rj : share.r) gg.g_ser(w, rj);
      ser_unit(w, share.unit);
    }
    if (sigma_) sch_.hg_.ser_sk(w, *sigma_);
    return net::SecretSnapshot{w.take(), {}, {}};
  }

  [[nodiscard]] const net::SecretSnapshot& refresh_snapshot() const { return refresh_snap_; }

  /// Secret bits attributable to one shared unit (msk or one identity).
  [[nodiscard]] std::size_t unit_secret_bits() const {
    return 8 * (sch_.prm_.ell + 1) * sch_.gg_.g_bytes();
  }

 private:
  void begin_op() {
    sigma_ = sch_.hg_.gen(rng_);
    pending_aprime_.clear();
  }
  void end_op() {
    sigma_.reset();
    pending_aprime_.clear();
    pending_r_.clear();
  }

  [[nodiscard]] typename Scheme::HT::SecretKey sigma_gt() const {
    return typename Scheme::HT::SecretKey{sigma_->s};
  }

  [[nodiscard]] CtT pair_enc(const G& a, const G& m) {
    // Encrypt m under sigma over G with fresh coins, then pair into GT --
    // the fi/di construction collapsed into one step.
    const auto ct = sch_.hg_.enc(*sigma_, m, rng_);
    return DlrCore<GG>::pair_ct(sch_.gg_, a, ct);
  }

  /// The (f_i, f'_i)_i, f_payload message shared by extract and refresh.
  [[nodiscard]] Bytes share_transform_msg(const Unit1& unit, const G& payload) {
    const auto& gg = sch_.gg_;
    pending_aprime_.clear();
    pending_aprime_.reserve(sch_.prm_.ell);
    ByteWriter w;
    for (std::size_t i = 0; i < sch_.prm_.ell; ++i) {
      pending_aprime_.push_back(gg.g_random(rng_));
      sch_.hg_.ser_ct(w, sch_.hg_.enc(*sigma_, unit.a[i], rng_));
      sch_.hg_.ser_ct(w, sch_.hg_.enc(*sigma_, pending_aprime_[i], rng_));
    }
    sch_.hg_.ser_ct(w, sch_.hg_.enc(*sigma_, payload, rng_));
    return w.take();
  }

  [[nodiscard]] G decrypt_reply(const Bytes& reply) const {
    ByteReader r(reply);
    const CtG f = sch_.hg_.deser_ct(r);
    if (!r.done()) throw std::invalid_argument("DlrIbeP1: trailing bytes in reply");
    return sch_.hg_.dec(*sigma_, f);
  }

  void ser_unit(ByteWriter& w, const Unit1& u) const {
    for (const auto& ai : u.a) sch_.gg_.g_ser(w, ai);
    sch_.gg_.g_ser(w, u.phi);
  }

  void capture_refresh_snapshot(const Unit1& old_unit, const G& new_phi) {
    ByteWriter w;
    ser_unit(w, old_unit);
    for (const auto& ap : pending_aprime_) sch_.gg_.g_ser(w, ap);
    sch_.gg_.g_ser(w, new_phi);
    if (sigma_) sch_.hg_.ser_sk(w, *sigma_);
    refresh_snap_ = net::SecretSnapshot{w.take(), {}, {}};
  }

  Scheme sch_;
  typename Scheme::Bb::PublicParams pp_;
  Unit1 msk1_;
  std::map<std::string, typename Scheme::P1IdShare> ids_;
  crypto::Rng rng_;

  std::optional<typename Scheme::HG::SecretKey> sigma_;
  std::vector<G> pending_aprime_;
  std::vector<G> pending_r_;
  std::string pending_id_;
  bool refreshing_msk_ = false;
  net::SecretSnapshot refresh_snap_;
};

// =============================================================================
// Device P2
// =============================================================================

template <group::BilinearGroup GG>
class DlrIbeP2 {
 public:
  using Scheme = DlrIbe<GG>;
  using Scalar = typename GG::Scalar;
  using CtG = typename Scheme::CtG;
  using CtT = typename Scheme::CtT;
  using Unit2 = typename Scheme::Unit2;

  DlrIbeP2(Scheme sch, Unit2 msk2, crypto::Rng rng)
      : sch_(std::move(sch)), msk2_(std::move(msk2)), rng_(std::move(rng)) {
    if (msk2_.s.size() != sch_.prm_.ell)
      throw std::invalid_argument("DlrIbeP2: bad msk share width");
  }

  [[nodiscard]] const Unit2& msk_share() const { return msk2_; }
  [[nodiscard]] const Unit2& id_share(const std::string& id) const { return ids_.at(id); }
  void erase_id(const std::string& id) { ids_.erase(id); }

  /// Extract round 2: transform the msk sharing into a fresh id-key sharing.
  [[nodiscard]] Bytes ext_respond(const std::string& id, const Bytes& msg) {
    Unit2 next = fresh_unit();
    const Bytes reply = transform(msg, msk2_, next);
    ids_[id] = std::move(next);
    return reply;
  }

  /// Decryption round 2 under the identity's share.
  [[nodiscard]] Bytes dec_respond(const std::string& id, const Bytes& msg) {
    const auto& s = ids_.at(id).s;
    const std::size_t ell = sch_.prm_.ell;
    ByteReader r(msg);
    const auto d = sch_.ht_.deser_cts(r, ell + 2);  // (d_1..d_l, dPhi, dB)
    if (!r.done()) throw std::invalid_argument("DlrIbeP2::dec_respond: trailing bytes");
    CtT acc = sch_.ht_.ct_mul(d[ell + 1],
                              sch_.ht_.ct_multi_pow(std::span<const CtT>(d.data(), ell), s));
    acc = sch_.ht_.ct_mul(acc, sch_.ht_.ct_inv(d[ell]));
    ByteWriter w;
    sch_.ht_.ser_ct(w, acc);
    return w.take();
  }

  [[nodiscard]] Bytes ref_respond_msk(const Bytes& msg) {
    Unit2 next = fresh_unit();
    capture_refresh_snapshot(msk2_, next);
    const Bytes reply = transform(msg, msk2_, next);
    msk2_ = std::move(next);
    return reply;
  }

  [[nodiscard]] Bytes ref_respond_id(const std::string& id, const Bytes& msg) {
    Unit2 next = fresh_unit();
    capture_refresh_snapshot(ids_.at(id), next);
    const Bytes reply = transform(msg, ids_.at(id), next);
    ids_[id] = std::move(next);
    return reply;
  }

  [[nodiscard]] net::SecretSnapshot normal_snapshot() const {
    ByteWriter w;
    for (const auto& s : msk2_.s) sch_.gg_.sc_ser(w, s);
    for (const auto& [id, u] : ids_)
      for (const auto& s : u.s) sch_.gg_.sc_ser(w, s);
    return net::SecretSnapshot{w.take(), {}, {}};
  }

  [[nodiscard]] const net::SecretSnapshot& refresh_snapshot() const { return refresh_snap_; }

 private:
  [[nodiscard]] Unit2 fresh_unit() {
    Unit2 u;
    u.s.reserve(sch_.prm_.ell);
    for (std::size_t i = 0; i < sch_.prm_.ell; ++i) u.s.push_back(sch_.gg_.sc_random(rng_));
    return u;
  }

  /// prod f'_i^{next.s_i} / f_i^{cur.s_i} * f_payload.
  [[nodiscard]] Bytes transform(const Bytes& msg, const Unit2& cur, const Unit2& next) const {
    ByteReader r(msg);
    std::vector<CtG> f, fp;
    f.reserve(sch_.prm_.ell);
    fp.reserve(sch_.prm_.ell);
    for (std::size_t i = 0; i < sch_.prm_.ell; ++i) {
      f.push_back(sch_.hg_.deser_ct(r));
      fp.push_back(sch_.hg_.deser_ct(r));
    }
    const CtG fpay = sch_.hg_.deser_ct(r);
    if (!r.done()) throw std::invalid_argument("DlrIbeP2::transform: trailing bytes");
    CtG acc = sch_.hg_.ct_mul(fpay, sch_.hg_.ct_multi_pow(fp, next.s));
    acc = sch_.hg_.ct_mul(acc, sch_.hg_.ct_inv(sch_.hg_.ct_multi_pow(f, cur.s)));
    ByteWriter w;
    sch_.hg_.ser_ct(w, acc);
    return w.take();
  }

  void capture_refresh_snapshot(const Unit2& cur, const Unit2& next) {
    ByteWriter w;
    for (const auto& s : cur.s) sch_.gg_.sc_ser(w, s);
    for (const auto& s : next.s) sch_.gg_.sc_ser(w, s);
    refresh_snap_ = net::SecretSnapshot{w.take(), {}, {}};
  }

  Scheme sch_;
  Unit2 msk2_;
  std::map<std::string, Unit2> ids_;
  crypto::Rng rng_;
  net::SecretSnapshot refresh_snap_;
};

// =============================================================================
// System driver
// =============================================================================

template <group::BilinearGroup GG>
class DlrIbeSystem {
 public:
  using Scheme = DlrIbe<GG>;
  using GT = typename GG::GT;

  static DlrIbeSystem create(GG gg, const DlrParams& prm, std::size_t id_bits,
                             std::uint64_t seed) {
    Scheme sch(gg, prm, id_bits);
    crypto::Rng root(seed);
    auto gen_rng = root.fork("gen");
    auto kg = sch.gen(gen_rng);
    return DlrIbeSystem(sch, std::move(kg), root.fork("p1"), root.fork("p2"));
  }

  [[nodiscard]] const Scheme& scheme() const { return sch_; }
  [[nodiscard]] const typename Scheme::Bb::PublicParams& pp() const { return p1_.pp(); }
  [[nodiscard]] DlrIbeP1<GG>& p1() { return p1_; }
  [[nodiscard]] DlrIbeP2<GG>& p2() { return p2_; }
  [[nodiscard]] const Bytes& gen_randomness() const { return gen_randomness_; }
  [[nodiscard]] const typename GG::G& msk_for_test() const { return msk_; }

  void extract(const std::string& id, net::Channel& ch) {
    telemetry::ScopedSpan span("ibe.extract");
    const auto& m1 = ch.send(net::DeviceId::P1, "ext.r1", p1_.ext_round1(id));
    const auto& m2 = ch.send(net::DeviceId::P2, "ext.r2", p2_.ext_respond(id, m1));
    p1_.ext_finish(m2);
  }

  [[nodiscard]] GT decrypt(const std::string& id, const typename Scheme::Ciphertext& c,
                           net::Channel& ch) {
    telemetry::ScopedSpan span("ibe.dec");
    const auto& m1 = ch.send(net::DeviceId::P1, "dec.r1", p1_.dec_round1(id, c));
    const auto& m2 = ch.send(net::DeviceId::P2, "dec.r2", p2_.dec_respond(id, m1));
    return p1_.dec_finish(m2);
  }

  void refresh_msk(net::Channel& ch) {
    telemetry::ScopedSpan span("ibe.refresh_msk");
    const auto& m1 = ch.send(net::DeviceId::P1, "refmsk.r1", p1_.ref_round1_msk());
    const auto& m2 = ch.send(net::DeviceId::P2, "refmsk.r2", p2_.ref_respond_msk(m1));
    p1_.ref_finish(m2);
  }

  void refresh_id(const std::string& id, net::Channel& ch) {
    telemetry::ScopedSpan span("ibe.refresh_id");
    const auto& m1 = ch.send(net::DeviceId::P1, "refid.r1", p1_.ref_round1_id(id));
    const auto& m2 = ch.send(net::DeviceId::P2, "refid.r2", p2_.ref_respond_id(id, m1));
    p1_.ref_finish(m2);
  }

  // Channel-less conveniences.
  void extract(const std::string& id) {
    net::Channel ch;
    extract(id, ch);
  }
  [[nodiscard]] GT decrypt(const std::string& id, const typename Scheme::Ciphertext& c) {
    net::Channel ch;
    return decrypt(id, c, ch);
  }
  void refresh_msk() {
    net::Channel ch;
    refresh_msk(ch);
  }
  void refresh_id(const std::string& id) {
    net::Channel ch;
    refresh_id(id, ch);
  }

 private:
  DlrIbeSystem(Scheme sch, typename Scheme::KeyGenResult kg, crypto::Rng rng1,
               crypto::Rng rng2)
      : sch_(sch),
        gen_randomness_(std::move(kg.gen_randomness)),
        msk_(kg.msk),
        p1_(sch, std::move(kg.pp), std::move(kg.msk1), std::move(rng1)),
        p2_(sch, std::move(kg.msk2), std::move(rng2)) {}

  Scheme sch_;
  Bytes gen_randomness_;
  typename GG::G msk_;
  DlrIbeP1<GG> p1_;
  DlrIbeP2<GG> p2_;
};

}  // namespace dlr::schemes
