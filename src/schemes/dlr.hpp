// DLR -- the paper's distributed public-key encryption scheme, CPA-secure
// against continual memory leakage (Construction 5.3).
//
//   pk  = (p, g, e, Z = e(g1, g2)),  g1 = g^alpha
//   sk1 = (a_1..a_l, Phi = g2^alpha * prod a_i^{s_i})   (device P1)
//   sk2 = (s_1..s_l)                                    (device P2)
//   Enc(m in GT) = (g^t, m * Z^t)
//
// Decryption and refresh are the paper's 3-move 2-party protocols, including
// the two implementation remarks of Section 5.2:
//   * fi/di reuse: P1 encrypts its share once per period under sk_comm over
//     G (the f_i), and derives the decryption-protocol ciphertexts d_i by
//     coordinate-wise pairing with A (pair_ct) -- the same sigma decrypts
//     both, since e(A, b)^sigma = e(A, b^sigma).
//   * coins are sampled directly as group elements, never as g^rho, so no
//     discrete logarithms of coins ever reside in secret memory.
//
// P1 storage modes:
//   * P1Mode::Plain   -- P1 stores sk1 itself (the construction as first
//     presented). Secret memory of P1: sk1 + sk_comm.
//   * P1Mode::Compact -- the "optimal leakage rate" remark: P1 stores only
//     sk_comm; sk1 lives in *public* memory encrypted coordinate-wise under
//     sk_comm, and P1 never holds more than one unencrypted coordinate.
//     Secret memory of P1: sk_comm + one scratch group element
//     (= kappa*log p + log p bits, the paper's m1 + log p).
#pragma once

#include <algorithm>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "crypto/rng.hpp"
#include "group/fixed_pow.hpp"
#include "group/prepared.hpp"
#include "net/transcript.hpp"
#include "schemes/hpske.hpp"
#include "service/parallel.hpp"
#include "telemetry/trace.hpp"
#include "schemes/params.hpp"
#include "schemes/pi_ss.hpp"

namespace dlr::schemes {

enum class P1Mode { Plain, Compact };

template <group::BilinearGroup GG>
struct DlrCore {
  using Scalar = typename GG::Scalar;
  using G = typename GG::G;
  using GT = typename GG::GT;
  using SS = PiSS<GG>;     // width l, over G
  using HG = HpskeG<GG>;   // width kappa, over G
  using HT = HpskeGT<GG>;  // width kappa, over GT
  using CtG = typename HG::Ciphertext;
  using CtT = typename HT::Ciphertext;
  using SkComm = typename HG::SecretKey;  // sigma, shared across G and GT

  struct PublicKey {
    G g{};   // generator
    GT z{};  // e(g1, g2)
  };

  struct Sk1 {
    std::vector<G> a;
    G phi{};
  };

  struct Sk2 {
    std::vector<Scalar> s;
  };

  struct Ciphertext {
    G a{};   // g^t
    GT b{};  // m * Z^t
  };

  struct KeyGenResult {
    PublicKey pk;
    Sk1 sk1;
    Sk2 sk2;
    /// r^Gen: the secret randomness held during Gen (input to h^Gen).
    Bytes gen_randomness;
    /// The master secret key g2^alpha -- returned for tests only; a real
    /// deployment erases it (the devices never need it).
    G msk{};
  };

  static KeyGenResult gen(const GG& gg, const DlrParams& prm, crypto::Rng& rng) {
    telemetry::ScopedSpan span("dlr.keygen");
    KeyGenResult out;
    const Scalar alpha = gg.sc_random(rng);
    const G g = gg.g_gen();
    const G g1 = gg.g_pow(g, alpha);
    const G g2 = gg.g_random(rng);
    out.pk = PublicKey{g, gg.pair(g1, g2)};
    out.msk = gg.g_pow(g2, alpha);

    out.sk2.s.reserve(prm.ell);
    for (std::size_t i = 0; i < prm.ell; ++i) out.sk2.s.push_back(gg.sc_random(rng));

    out.sk1.a.reserve(prm.ell);
    for (std::size_t i = 0; i < prm.ell; ++i) out.sk1.a.push_back(gg.g_random(rng));
    out.sk1.phi = gg.g_mul(out.msk, gg.g_multi_pow(out.sk1.a, out.sk2.s));

    ByteWriter w;
    gg.sc_ser(w, alpha);
    for (const auto& s : out.sk2.s) gg.sc_ser(w, s);
    gg.g_ser(w, g2);
    gg.g_ser(w, out.msk);
    for (const auto& a : out.sk1.a) gg.g_ser(w, a);
    gg.g_ser(w, out.sk1.phi);
    out.gen_randomness = w.take();
    return out;
  }

  static Ciphertext enc(const GG& gg, const PublicKey& pk, const GT& m, crypto::Rng& rng) {
    return enc_with_t(gg, pk, m, gg.sc_random(rng));
  }

  static Ciphertext enc_with_t(const GG& gg, const PublicKey& pk, const GT& m,
                               const Scalar& t) {
    telemetry::ScopedSpan span("dlr.enc");
    return Ciphertext{gg.g_pow(pk.g, t), gg.gt_mul(m, gg.gt_pow(pk.z, t))};
  }

  /// Precomputed public-key tables for the heavy-encryptor setting. The GT
  /// base Z = e(g1, g2) always pays: GT multiplications are cheap (F_{q^2}
  /// muls), so the table replaces ~|r| squarings with ~|r|/4 muls. The G base
  /// g pays only since the g_comb_table/g_prod native hooks exist -- they
  /// build the table with ONE batch inversion and fold selected entries with
  /// mixed adds plus a single final inversion; the earlier generic path (one
  /// Fermat inversion per affine g_mul) was a measured loss in F6.
  struct PkTable {
    PublicKey pk;
    group::FixedPowG<GG> g;
    group::FixedPowGT<GG> z;
    PkTable(const GG& gg, const PublicKey& pk_in)
        : pk(pk_in), g(gg, pk_in.g), z(gg, pk_in.z) {}
  };

  static Ciphertext enc_precomp(const GG& gg, const PkTable& tbl, const GT& m,
                                crypto::Rng& rng) {
    telemetry::ScopedSpan span("dlr.enc");
    const Scalar t = gg.sc_random(rng);
    return Ciphertext{tbl.g.pow(gg, t), gg.gt_mul(m, tbl.z.pow(gg, t))};
  }

  /// Non-distributed reference decryption (tests / baselines): requires the
  /// reconstructed secret, never used by the devices.
  static GT dec_reference(const GG& gg, const Sk1& sk1, const Sk2& sk2, const Ciphertext& c) {
    // m = B * e(A, prod a^s / Phi) = B / e(A, g2^alpha)
    const G inv_msk = gg.g_mul(gg.g_multi_pow(sk1.a, sk2.s), gg.g_inv(sk1.phi));
    return gg.gt_mul(c.b, gg.pair(c.a, inv_msk));
  }

  /// Reconstruct msk from the two shares (test helper -- the protocols never
  /// do this; that is the point of the sharing).
  static G reconstruct_msk(const GG& gg, const Sk1& sk1, const Sk2& sk2) {
    return gg.g_mul(sk1.phi, gg.g_inv(gg.g_multi_pow(sk1.a, sk2.s)));
  }

  /// Transport a G-HPSKE ciphertext to a GT-HPSKE ciphertext of the paired
  /// plaintext: pair each coordinate with A. Correct under the same sigma
  /// because e(A, b^sigma) = e(A, b)^sigma.
  static CtT pair_ct(const GG& gg, const G& a, const CtG& ct) {
    return std::move(pair_cts(gg, a, {}, ct).front());
  }

  /// pair_ct for the l+1 ciphertexts P1 transports under the same A in round
  /// 1 (f_1..f_l, then fPhi; the fake game's simulator transports the same
  /// rows). Returns their l+1 transports in that order. The Miller loop for A
  /// runs once, and every coordinate goes through pair_many, which on native
  /// backends shares ONE batched inversion across the final exponentiations.
  /// With DLR_PARALLEL set the flat coordinate list splits into per-thread
  /// chunks of at least 4 coordinates (as MaskedEnc::masked_product splits
  /// its bases), one pair_many and so one inversion each; every chunk writes
  /// its own slots, so the result does not depend on the thread count.
  static std::vector<CtT> pair_cts(const GG& gg, const G& a, std::span<const CtG> fs,
                                   const CtG& fphi) {
    const group::PreparedPair<GG> pa(gg, a);
    const std::size_t rows = fs.size() + 1;
    auto row = [&](std::size_t i) -> const CtG& { return i < fs.size() ? fs[i] : fphi; };
    std::vector<G> coords;
    coords.reserve(rows * (fphi.b.size() + 1));
    for (std::size_t i = 0; i < rows; ++i) {
      coords.insert(coords.end(), row(i).b.begin(), row(i).b.end());
      coords.push_back(row(i).c0);
    }
    const std::span<const G> all(coords);
    const int t = service::fanout_suppressed() ? 0 : service::parallel_threads();
    std::vector<GT> gts;
    if (t <= 1 || all.size() < 8) {
      gts = pa.pair_many(gg, all);
    } else {
      const std::size_t chunks = std::min(static_cast<std::size_t>(t), all.size() / 4);
      const std::size_t per = (all.size() + chunks - 1) / chunks;
      gts.resize(all.size());
      service::par_for(chunks, [&](std::size_t c) {
        const std::size_t lo = c * per;
        const std::size_t hi = std::min(all.size(), lo + per);
        if (lo >= hi) return;
        auto part = pa.pair_many(gg, all.subspan(lo, hi - lo));
        std::move(part.begin(), part.end(), gts.begin() + static_cast<std::ptrdiff_t>(lo));
      });
    }
    std::vector<CtT> out;
    out.reserve(rows + 1);  // dec_round1 appends dB
    out.resize(rows);
    auto it = gts.begin();
    for (std::size_t i = 0; i < rows; ++i) {
      const auto w = static_cast<std::ptrdiff_t>(row(i).b.size());
      out[i].b.assign(std::make_move_iterator(it), std::make_move_iterator(it + w));
      out[i].c0 = std::move(it[w]);
      it += w + 1;
    }
    return out;
  }

  // ---- key serialization ---------------------------------------------------------
  static void ser_pk(const GG& gg, ByteWriter& w, const PublicKey& pk) {
    gg.g_ser(w, pk.g);
    gg.gt_ser(w, pk.z);
  }
  static PublicKey deser_pk(const GG& gg, ByteReader& r) {
    PublicKey pk;
    pk.g = gg.g_deser(r);
    pk.z = gg.gt_deser(r);
    return pk;
  }
  static void ser_sk1(const GG& gg, ByteWriter& w, const Sk1& sk1) {
    w.u64(sk1.a.size());
    for (const auto& ai : sk1.a) gg.g_ser(w, ai);
    gg.g_ser(w, sk1.phi);
  }
  static Sk1 deser_sk1(const GG& gg, ByteReader& r) {
    Sk1 sk1;
    const auto n = r.u64();
    sk1.a.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) sk1.a.push_back(gg.g_deser(r));
    sk1.phi = gg.g_deser(r);
    return sk1;
  }
  static void ser_sk2(const GG& gg, ByteWriter& w, const Sk2& sk2) {
    w.u64(sk2.s.size());
    for (const auto& si : sk2.s) gg.sc_ser(w, si);
  }
  static Sk2 deser_sk2(const GG& gg, ByteReader& r) {
    Sk2 sk2;
    const auto n = r.u64();
    sk2.s.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) sk2.s.push_back(gg.sc_deser(r));
    return sk2;
  }

  // ---- ciphertext serialization ------------------------------------------------
  static void ser_ciphertext(const GG& gg, ByteWriter& w, const Ciphertext& c) {
    gg.g_ser(w, c.a);
    gg.gt_ser(w, c.b);
  }
  static Ciphertext deser_ciphertext(const GG& gg, ByteReader& r) {
    Ciphertext c;
    c.a = gg.g_deser(r);
    c.b = gg.gt_deser(r);
    return c;
  }
  static std::size_t ciphertext_bytes(const GG& gg) { return gg.g_bytes() + gg.gt_bytes(); }
};

// =============================================================================
// Device P1 (main processor)
// =============================================================================

template <group::BilinearGroup GG>
class DlrParty1 {
 public:
  using Core = DlrCore<GG>;
  using Scalar = typename GG::Scalar;
  using G = typename GG::G;
  using GT = typename GG::GT;
  using CtG = typename Core::CtG;
  using CtT = typename Core::CtT;

  DlrParty1(GG gg, DlrParams prm, typename Core::PublicKey pk, typename Core::Sk1 sk1,
            P1Mode mode, crypto::Rng rng)
      : gg_(std::move(gg)),
        prm_(prm),
        pk_(std::move(pk)),
        mode_(mode),
        hg_(gg_, prm.kappa),
        ht_(gg_, prm.kappa),
        rng_(std::move(rng)) {
    if (sk1.a.size() != prm_.ell) throw std::invalid_argument("DlrParty1: bad share width");
    if (mode_ == P1Mode::Plain) {
      sk1_ = std::move(sk1);
    } else {
      // Compact mode: encrypt the share coordinate-wise under a fresh
      // sk_comm and keep only sk_comm secret. The encrypted share is public.
      sigma_ = hg_.gen(rng_);
      enc_a_.reserve(prm_.ell);
      for (const auto& ai : sk1.a) enc_a_.push_back(hg_.enc(*sigma_, ai, rng_));
      enc_phi_ = hg_.enc(*sigma_, sk1.phi, rng_);
    }
  }

  [[nodiscard]] const typename Core::PublicKey& pk() const { return pk_; }
  [[nodiscard]] P1Mode mode() const { return mode_; }

  /// Plain-mode share accessor (tests); throws in compact mode.
  [[nodiscard]] const typename Core::Sk1& share() const {
    if (!sk1_) throw std::logic_error("DlrParty1::share: compact mode stores no raw share");
    return *sk1_;
  }

  /// Compact-mode public encrypted share (it is public memory).
  [[nodiscard]] const std::vector<CtG>& encrypted_share() const { return enc_a_; }

  /// Recover the raw share (test helper; in compact mode decrypts).
  [[nodiscard]] typename Core::Sk1 recover_share_for_test() const {
    if (sk1_) return *sk1_;
    typename Core::Sk1 out;
    out.a.reserve(prm_.ell);
    for (const auto& ct : enc_a_) out.a.push_back(hg_.dec(*sigma_, ct));
    out.phi = hg_.dec(*sigma_, *enc_phi_);
    return out;
  }

  // ---- decryption protocol, P1 side ------------------------------------------

  /// Round 1: send (d_1..d_l, dPhi, dB) -- HPSKE-over-GT encryptions of
  /// e(A, a_i), e(A, Phi) and B under this period's sk_comm.
  [[nodiscard]] Bytes dec_round1(const typename Core::Ciphertext& c) {
    ensure_period_setup();
    return dec_round1(c, rng_);
  }

  /// Concurrent-read variant for the service runtime: requires the period to
  /// be set up already (prepare_period(), or any mutating protocol call) and
  /// takes the caller's rng, so it is const -- many decryption sessions may
  /// run it under a shared lock while refresh holds the exclusive one.
  [[nodiscard]] Bytes dec_round1(const typename Core::Ciphertext& c, crypto::Rng& rng) const {
    telemetry::ScopedSpan span("dec.round1");
    if (!fphi_) throw std::logic_error("dec_round1: period not prepared");
    // One Miller precomputation for A and one batched final exponentiation
    // (per fan-out chunk) serve all l+1 transported ciphertexts.
    std::vector<CtT> d = Core::pair_cts(gg_, c.a, fs_, *fphi_);
    d.push_back(ht_.enc(sigma_gt(), c.b, rng));  // dB
    ByteWriter w;
    ht_.ser_cts(w, d);
    return w.take();
  }

  /// Round 3: decrypt P2's combined ciphertext to obtain the message.
  [[nodiscard]] GT dec_finish(const Bytes& reply) { return dec_finish_with(sigma_gt(), reply); }

  /// Finish with an explicitly captured period key (period_sigma_gt() taken
  /// at round-1 time). Lets an in-flight decryption complete correctly even
  /// if a refresh rotated the period state during the network round trip.
  [[nodiscard]] GT dec_finish_with(const typename HpskeGT<GG>::SecretKey& sigma,
                                   const Bytes& reply) const {
    telemetry::ScopedSpan span("dec.finish");
    ByteReader r(reply);
    const CtT combined = ht_.deser_ct(r);
    if (!r.done()) throw std::invalid_argument("dec_finish: trailing bytes");
    return ht_.dec(sigma, combined);
  }

  /// Force this period's sk_comm + share encryptions into existence (the
  /// mutating half of dec_round1, split out so the service layer can do all
  /// mutation under an exclusive lock and all round-1 work under shared).
  void prepare_period() { ensure_period_setup(); }

  /// Copy of this period's sk_comm viewed over GT, for dec_finish_with.
  [[nodiscard]] typename HpskeGT<GG>::SecretKey period_sigma_gt() const {
    if (!sigma_) throw std::logic_error("period_sigma_gt: period not prepared");
    return sigma_gt();
  }

  // ---- refresh protocol, P1 side -----------------------------------------------

  /// Round 1: send ((f_i, f'_i) for i in [l], fPhi). The f_i (and fPhi) are
  /// the period's share encryptions, reused from the decryption protocol.
  /// With the period prepared, this reads the period state only as
  /// dec_round1 does and writes only the refresh state (a'_i, f'_i) and the
  /// party's rng, so the service runtime builds it under its shared lock
  /// while decryptions continue (one refresher at a time).
  [[nodiscard]] Bytes ref_round1() {
    telemetry::ScopedSpan span("ref.round1");
    ensure_period_setup();
    // Sample the next-share randomness a'_1..a'_l and encrypt it. In compact
    // mode each a'_i is held raw only transiently (one coordinate at a time).
    const std::size_t k = prm_.kappa;
    next_a_.clear();
    fprime_.clear();
    fprime_.reserve(prm_.ell);
    if (mode_ == P1Mode::Plain) {
      // One sampler call for every a'_i and its kappa coins: point i*(k+1)
      // is a'_i, the next k encrypt it (the order of one-by-one sampling).
      auto pts = SpaceG<GG>::random_many(gg_, rng_, prm_.ell * (k + 1));
      next_a_.reserve(prm_.ell);
      for (std::size_t i = 0; i < prm_.ell; ++i) {
        const auto at = pts.begin() + static_cast<std::ptrdiff_t>(i * (k + 1));
        next_a_.push_back(*at);
        fprime_.push_back(hg_.enc_with_coins(
            *sigma_, next_a_.back(),
            std::vector<G>(at + 1, at + 1 + static_cast<std::ptrdiff_t>(k))));
      }
    } else {
      // The public coins come in one call; each a'_i is drawn alone.
      auto coins = hg_.draw_coins(rng_, prm_.ell);
      for (std::size_t i = 0; i < prm_.ell; ++i) {
        const G ap = gg_.g_random(rng_);  // scratch: the only raw coordinate
        fprime_.push_back(hg_.enc_with_coins(*sigma_, ap, std::move(coins[i])));
      }
    }
    ByteWriter w;
    for (std::size_t i = 0; i < prm_.ell; ++i) {
      hg_.ser_ct(w, fs_[i]);
      hg_.ser_ct(w, fprime_[i]);
    }
    hg_.ser_ct(w, *fphi_);
    return w.take();
  }

  /// Round 3: decrypt Phi' and install the new share; end the period.
  void ref_finish(const Bytes& reply) {
    telemetry::ScopedSpan span("ref.finish");
    ByteReader r(reply);
    const CtG f = hg_.deser_ct(r);
    if (!r.done()) throw std::invalid_argument("ref_finish: trailing bytes");
    const G new_phi = hg_.dec(*sigma_, f);

    capture_refresh_snapshot(new_phi);

    if (mode_ == P1Mode::Plain) {
      sk1_->a = std::move(next_a_);
      sk1_->phi = new_phi;
    } else {
      // Rotate sk_comm: re-encrypt the new share coordinate-by-coordinate
      // under a fresh key; at most one raw coordinate in memory at a time.
      const auto sigma_next = hg_.gen(rng_);
      auto coins = take_period_coins();
      std::vector<CtG> enc_a_next;
      enc_a_next.reserve(prm_.ell);
      for (std::size_t i = 0; i < prm_.ell; ++i) {
        const G scratch = hg_.dec(*sigma_, fprime_[i]);
        enc_a_next.push_back(hg_.enc_with_coins(sigma_next, scratch, std::move(coins[i])));
      }
      const G scratch_phi = new_phi;
      enc_phi_ = hg_.enc_with_coins(sigma_next, scratch_phi, std::move(coins[prm_.ell]));
      enc_a_ = std::move(enc_a_next);
      sigma_ = sigma_next;
    }
    end_period();
  }

  /// Draw the next period's (l+1) kappa HPSKE coins now; the next period's
  /// share encryptions (prepare_period, or ref_finish in compact mode) use
  /// them instead of sampling. The coins are public ciphertext parts and
  /// the next sk_comm is still sampled at install time, so drawing them
  /// early puts nothing new in secret memory. Touches only the coin buffer
  /// and the party's rng, which no decryption reads: the service runtime
  /// runs it with no share lock while PREPARE is in flight.
  void draw_next_coins() { next_coins_ = hg_.draw_coins(rng_, prm_.ell + 1); }

  // ---- secret memory (Section 3.2) ----------------------------------------------

  /// Secret memory during "all other times" of the current period.
  [[nodiscard]] net::SecretSnapshot normal_snapshot() const {
    net::SecretSnapshot snap;
    ByteWriter share;
    if (mode_ == P1Mode::Plain) {
      ser_sk1(share, *sk1_);
      if (sigma_) hg_.ser_sk(share, *sigma_);
    } else {
      if (sigma_) hg_.ser_sk(share, *sigma_);
      // One scratch coordinate (zero-initialized placeholder slot).
      gg_.g_ser(share, gg_.g_id());
    }
    snap.share = share.take();
    return snap;
  }

  /// Secret memory during refresh of the most recrecently finished period.
  [[nodiscard]] const net::SecretSnapshot& refresh_snapshot() const { return refresh_snap_; }

  /// Essential secret-memory sizes in bits, for leakage-rate accounting.
  [[nodiscard]] std::size_t secret_bits(net::Phase phase) const {
    const std::size_t logp_bytes = gg_.sc_bytes();
    const std::size_t g_bytes = gg_.g_bytes();
    const std::size_t skcomm = prm_.kappa * logp_bytes;
    std::size_t bytes = 0;
    if (mode_ == P1Mode::Plain) {
      const std::size_t sk1 = (prm_.ell + 1) * g_bytes;
      bytes = (phase == net::Phase::Refresh) ? 2 * sk1 + skcomm : sk1 + skcomm;
    } else {
      bytes = (phase == net::Phase::Refresh) ? 2 * skcomm + g_bytes : skcomm + g_bytes;
    }
    return 8 * bytes;
  }

  /// Forcibly end the period (drops sk_comm and the cached f's).
  void end_period() {
    if (mode_ == P1Mode::Plain) sigma_.reset();
    fs_.clear();
    fphi_.reset();
    fprime_.clear();
    next_a_.clear();
  }

  // ---- state (de)serialization for crash-safe persistence ----------------------
  //
  // Everything durable about the device: the share (raw or encrypted), the
  // period's sk_comm and cached share encryptions, and any in-progress
  // refresh material (fprime_/next_a_), so a journaled post-round-1 state
  // can still ref_finish after a restart. The rng is deliberately NOT
  // serialized -- replaying entropy after a crash would reuse coins, so
  // restore() demands a fresh one.

  void ser_state(ByteWriter& w) const {
    const auto opt_ct = [&](const std::optional<CtG>& ct) {
      w.u8(ct ? 1 : 0);
      if (ct) hg_.ser_ct(w, *ct);
    };
    const auto ct_vec = [&](const std::vector<CtG>& v) {
      w.u64(v.size());
      for (const auto& ct : v) hg_.ser_ct(w, ct);
    };
    w.u8(mode_ == P1Mode::Plain ? 0 : 1);
    w.u8(sk1_ ? 1 : 0);
    if (sk1_) Core::ser_sk1(gg_, w, *sk1_);
    ct_vec(enc_a_);
    opt_ct(enc_phi_);
    w.u8(sigma_ ? 1 : 0);
    if (sigma_) hg_.ser_sk(w, *sigma_);
    ct_vec(fs_);
    opt_ct(fphi_);
    ct_vec(fprime_);
    w.u64(next_a_.size());
    for (const auto& a : next_a_) gg_.g_ser(w, a);
  }

  [[nodiscard]] static DlrParty1 restore(GG gg, DlrParams prm, typename Core::PublicKey pk,
                                         ByteReader& r, crypto::Rng rng) {
    const P1Mode mode = (r.u8() == 0) ? P1Mode::Plain : P1Mode::Compact;
    DlrParty1 p(std::move(gg), prm, std::move(pk), mode, std::move(rng), RestoreTag{});
    const auto opt_ct = [&](std::optional<CtG>& ct) {
      if (r.u8()) ct = p.hg_.deser_ct(r);
    };
    const auto ct_vec = [&](std::vector<CtG>& v) {
      const auto n = r.u64();
      v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) v.push_back(p.hg_.deser_ct(r));
    };
    if (r.u8()) p.sk1_ = Core::deser_sk1(p.gg_, r);
    ct_vec(p.enc_a_);
    opt_ct(p.enc_phi_);
    if (r.u8()) p.sigma_ = p.hg_.deser_sk(r);
    ct_vec(p.fs_);
    opt_ct(p.fphi_);
    ct_vec(p.fprime_);
    const auto n = r.u64();
    p.next_a_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) p.next_a_.push_back(p.gg_.g_deser(r));
    if (p.mode_ == P1Mode::Plain && (!p.sk1_ || p.sk1_->a.size() != prm.ell))
      throw std::invalid_argument("DlrParty1::restore: bad plain-mode share");
    if (p.mode_ == P1Mode::Compact && p.enc_a_.size() != prm.ell)
      throw std::invalid_argument("DlrParty1::restore: bad compact-mode share");
    return p;
  }

 private:
  struct RestoreTag {};
  DlrParty1(GG gg, DlrParams prm, typename Core::PublicKey pk, P1Mode mode, crypto::Rng rng,
            RestoreTag)
      : gg_(std::move(gg)),
        prm_(prm),
        pk_(std::move(pk)),
        mode_(mode),
        hg_(gg_, prm.kappa),
        ht_(gg_, prm.kappa),
        rng_(std::move(rng)) {}

  /// The same sigma vector viewed as a key for the GT-space HPSKE instance
  /// (sk_comm is one scalar vector serving both element spaces).
  [[nodiscard]] typename HpskeGT<GG>::SecretKey sigma_gt() const {
    return typename HpskeGT<GG>::SecretKey{sigma_->s};
  }

  /// The coins for one period's l+1 share encryptions: draw_next_coins()'s
  /// if it left a full set, else drawn now (after sk_comm, in row order, the
  /// draws of l+1 enc() calls).
  [[nodiscard]] std::vector<std::vector<G>> take_period_coins() {
    auto coins = std::move(next_coins_);
    next_coins_.clear();
    if (coins.size() != prm_.ell + 1) coins = hg_.draw_coins(rng_, prm_.ell + 1);
    return coins;
  }

  void ensure_period_setup() {
    if (fphi_) return;
    if (mode_ == P1Mode::Plain) {
      sigma_ = hg_.gen(rng_);  // fresh sk_comm each period
      auto coins = take_period_coins();
      fs_.clear();
      fs_.reserve(prm_.ell);
      for (std::size_t i = 0; i < prm_.ell; ++i)
        fs_.push_back(hg_.enc_with_coins(*sigma_, sk1_->a[i], std::move(coins[i])));
      fphi_ = hg_.enc_with_coins(*sigma_, sk1_->phi, std::move(coins[prm_.ell]));
    } else {
      // Compact mode: the stored public encrypted share *is* (f_i, fPhi).
      fs_ = enc_a_;
      fphi_ = enc_phi_;
    }
  }

  void capture_refresh_snapshot(const G& new_phi) {
    ByteWriter share;
    if (mode_ == P1Mode::Plain) {
      ser_sk1(share, *sk1_);
      for (const auto& ap : next_a_) gg_.g_ser(share, ap);
      gg_.g_ser(share, new_phi);
      if (sigma_) hg_.ser_sk(share, *sigma_);
    } else {
      hg_.ser_sk(share, *sigma_);
      hg_.ser_sk(share, *sigma_);  // stands for sigma' (old+new key material)
      gg_.g_ser(share, new_phi);   // scratch coordinate
    }
    refresh_snap_ = net::SecretSnapshot{share.take(), {}, {}};
  }

  void ser_sk1(ByteWriter& w, const typename Core::Sk1& sk1) const {
    for (const auto& ai : sk1.a) gg_.g_ser(w, ai);
    gg_.g_ser(w, sk1.phi);
  }

  GG gg_;
  DlrParams prm_;
  typename Core::PublicKey pk_;
  P1Mode mode_;
  HpskeG<GG> hg_;
  HpskeGT<GG> ht_;
  crypto::Rng rng_;

  // Plain mode: the raw share. Compact mode: nullopt.
  std::optional<typename Core::Sk1> sk1_;
  // Compact mode: the publicly stored encrypted share.
  std::vector<CtG> enc_a_;
  std::optional<CtG> enc_phi_;

  // Per-period state.
  std::optional<typename Core::SkComm> sigma_;
  std::vector<CtG> fs_;
  std::optional<CtG> fphi_;
  std::vector<CtG> fprime_;
  std::vector<G> next_a_;
  std::vector<std::vector<G>> next_coins_;  // draw_next_coins(); public, not journaled
  net::SecretSnapshot refresh_snap_;
};

// =============================================================================
// Device P2 (auxiliary device / smart card)
// =============================================================================
//
// P2's entire computational repertoire, by construction: sample uniform
// scalars, and raise received group elements to those scalars and multiply
// (ct_pow / ct_mul on opaque ciphertext coordinates). It performs no
// pairings, no decryption, and holds no group elements of its own.

template <group::BilinearGroup GG>
class DlrParty2 {
 public:
  using Core = DlrCore<GG>;
  using Scalar = typename GG::Scalar;
  using CtG = typename Core::CtG;
  using CtT = typename Core::CtT;

  DlrParty2(GG gg, DlrParams prm, typename Core::Sk2 sk2, crypto::Rng rng)
      : gg_(std::move(gg)),
        prm_(prm),
        hg_(gg_, prm.kappa),
        ht_(gg_, prm.kappa),
        sk2_(std::move(sk2)),
        rng_(std::move(rng)) {
    if (sk2_.s.size() != prm_.ell) throw std::invalid_argument("DlrParty2: bad share width");
  }

  [[nodiscard]] const typename Core::Sk2& share() const { return sk2_; }

  /// Decryption round 2: given (d_1..d_l, dPhi, dB), return
  /// dB * prod_i d_i^{s_i} / dPhi (coordinate-wise). Const -- reads only the
  /// current share, so the service runtime executes many of these
  /// concurrently under a shared lock (refresh takes the exclusive one).
  [[nodiscard]] Bytes dec_respond(const Bytes& msg) const {
    telemetry::ScopedSpan span("dec.round2");
    return dec_round2(msg, [&](std::span<const CtT> d) { return ht_.ct_multi_pow(d, sk2_.s); });
  }

  /// Shared preparation for a batch of round-2 requests. Every request in a
  /// batch raises its own rows to the SAME share vector s, so the exponent
  /// recoding (the wNAF digits on native backends) is computed once here and
  /// reused by every run(). run(msg) is bit-identical to dec_respond(msg);
  /// parsing, the per-coordinate chains, the combine and the serialization
  /// stay per-item, so callers keep per-request trace spans and per-request
  /// error isolation. Const capture of the share: hold the same shared lock
  /// across construction and the runs (the service runtime does).
  class DecBatch {
   public:
    explicit DecBatch(const DlrParty2& p2)
        : p2_(&p2), key_(p2.ht_.prepare_key(p2.sk2_.s)) {}

    [[nodiscard]] Bytes run(const Bytes& msg) const {
      telemetry::ScopedSpan span("dec.round2");
      return p2_->dec_round2(
          msg, [&](std::span<const CtT> d) { return p2_->ht_.ct_multi_pow_prepared(key_, d); });
    }

   private:
    const DlrParty2* p2_;
    typename HpskeGT<GG>::PreparedKey key_;
  };

  [[nodiscard]] DecBatch dec_batch() const { return DecBatch(*this); }

  /// One round-2 result per input; a malformed request fails alone.
  struct DecOutcome {
    Bytes reply;
    std::string error;
    [[nodiscard]] bool ok() const { return error.empty(); }
  };

  /// Batched round 2: bit-identical outputs to calling dec_respond on each
  /// message, with the share recoding shared across the whole batch.
  [[nodiscard]] std::vector<DecOutcome> dec_respond_many(std::span<const Bytes> msgs) const {
    const DecBatch b = dec_batch();
    std::vector<DecOutcome> out(msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      try {
        out[i].reply = b.run(msgs[i]);
      } catch (const std::exception& e) {
        out[i].error = e.what();
      }
    }
    return out;
  }

  /// The computed-but-not-installed half of a refresh: the candidate next
  /// share and the round-2 reply that commits to it. The two-phase service
  /// protocol journals this pair durably before anything is installed.
  struct RefPrepared {
    typename Core::Sk2 next;
    Bytes reply;
  };

  /// Refresh round 2, PREPARE phase: given ((f_i, f'_i), fPhi), sample s'
  /// from `rng`, compute prod_i f'_i^{s'_i} / f_i^{s_i} * fPhi -- but do NOT
  /// install s'. Const: the current share is only read, so the keystore runs
  /// it under the key's shared lock beside decryptions and decides when (and
  /// whether) the candidate becomes the share via ref_install().
  [[nodiscard]] RefPrepared ref_prepare(const Bytes& msg, crypto::Rng& rng) const {
    telemetry::ScopedSpan span("ref.round2");
    ByteReader r(msg);
    std::vector<CtG> f, fp;
    f.reserve(prm_.ell);
    fp.reserve(prm_.ell);
    for (std::size_t i = 0; i < prm_.ell; ++i) {
      f.push_back(hg_.deser_ct(r));
      fp.push_back(hg_.deser_ct(r));
    }
    const CtG fphi = hg_.deser_ct(r);
    if (!r.done()) throw std::invalid_argument("ref_respond: trailing bytes");

    RefPrepared out;
    out.next.s.reserve(prm_.ell);
    for (std::size_t i = 0; i < prm_.ell; ++i) out.next.s.push_back(gg_.sc_random(rng));

    CtG acc = hg_.ct_mul(fphi, hg_.ct_multi_pow(fp, out.next.s));
    acc = hg_.ct_mul(acc, hg_.ct_inv(hg_.ct_multi_pow(f, sk2_.s)));

    ByteWriter w;
    hg_.ser_ct(w, acc);
    out.reply = w.take();
    return out;
  }

  /// COMMIT phase: install a prepared next share (captures the old+new
  /// refresh snapshot first, as the protocol's refresh phase exposes both).
  void ref_install(typename Core::Sk2 next) {
    if (next.s.size() != prm_.ell)
      throw std::invalid_argument("DlrParty2::ref_install: bad share width");
    capture_refresh_snapshot(next);
    sk2_ = std::move(next);
  }

  /// Refresh round 2, one-shot: prepare and immediately install (the
  /// in-process driver's reliable-channel path).
  [[nodiscard]] Bytes ref_respond(const Bytes& msg) {
    RefPrepared prep = ref_prepare(msg, rng_);
    ref_install(std::move(prep.next));
    return std::move(prep.reply);
  }

  /// Replace the share from a durable record (recovery; no snapshot -- this
  /// is a restart, not a protocol run).
  void restore_share(typename Core::Sk2 sk2) {
    if (sk2.s.size() != prm_.ell)
      throw std::invalid_argument("DlrParty2::restore_share: bad share width");
    sk2_ = std::move(sk2);
  }

  [[nodiscard]] net::SecretSnapshot normal_snapshot() const {
    ByteWriter w;
    for (const auto& s : sk2_.s) gg_.sc_ser(w, s);
    return net::SecretSnapshot{w.take(), {}, {}};
  }

  [[nodiscard]] const net::SecretSnapshot& refresh_snapshot() const { return refresh_snap_; }

  [[nodiscard]] std::size_t secret_bits(net::Phase phase) const {
    const std::size_t sk2 = prm_.ell * gg_.sc_bytes();
    return 8 * ((phase == net::Phase::Refresh) ? 2 * sk2 : sk2);
  }

 private:
  /// Round 2 around a share multi-pow: decode the l+2 round-1 ciphertexts
  /// (d_1..d_l, dPhi, dB) in one batched call, return
  /// ser(dB * multi_pow(d) / dPhi).
  template <class MultiPow>
  [[nodiscard]] Bytes dec_round2(const Bytes& msg, const MultiPow& multi_pow) const {
    ByteReader r(msg);
    const auto d = ht_.deser_cts(r, prm_.ell + 2);
    if (!r.done()) throw std::invalid_argument("dec_respond: trailing bytes");
    CtT acc = ht_.ct_mul(d[prm_.ell + 1], multi_pow(std::span<const CtT>(d.data(), prm_.ell)));
    acc = ht_.ct_mul(acc, ht_.ct_inv(d[prm_.ell]));
    ByteWriter w;
    ht_.ser_ct(w, acc);
    return w.take();
  }

  void capture_refresh_snapshot(const typename Core::Sk2& next) {
    ByteWriter w;
    for (const auto& s : sk2_.s) gg_.sc_ser(w, s);
    for (const auto& s : next.s) gg_.sc_ser(w, s);
    refresh_snap_ = net::SecretSnapshot{w.take(), {}, {}};
  }

  GG gg_;
  DlrParams prm_;
  HpskeG<GG> hg_;
  HpskeGT<GG> ht_;
  typename Core::Sk2 sk2_;
  crypto::Rng rng_;
  net::SecretSnapshot refresh_snap_;
};

// =============================================================================
// System driver: wires the two devices through a recording channel.
// =============================================================================

template <group::BilinearGroup GG>
class DlrSystem {
 public:
  using Core = DlrCore<GG>;
  using GT = typename GG::GT;

  struct PeriodRecord {
    net::Transcript transcript;
    typename Core::Ciphertext dec_input;
    GT dec_output{};
  };

  static DlrSystem create(GG gg, const DlrParams& prm, P1Mode mode, std::uint64_t seed) {
    crypto::Rng root(seed);
    auto gen_rng = root.fork("gen");
    auto kg = Core::gen(gg, prm, gen_rng);
    return DlrSystem(std::move(gg), prm, mode, std::move(kg), root.fork("p1"),
                     root.fork("p2"));
  }

  [[nodiscard]] const typename Core::PublicKey& pk() const { return pk_; }
  /// Comb tables for pk.g and pk.Z, built once at keygen.
  [[nodiscard]] const typename Core::PkTable& pk_table() const { return pk_tbl_; }
  [[nodiscard]] const Bytes& gen_randomness() const { return gen_randomness_; }
  [[nodiscard]] DlrParty1<GG>& p1() { return p1_; }
  [[nodiscard]] DlrParty2<GG>& p2() { return p2_; }
  [[nodiscard]] const DlrParty1<GG>& p1() const { return p1_; }
  [[nodiscard]] const DlrParty2<GG>& p2() const { return p2_; }

  /// Run the decryption protocol over a recording channel.
  [[nodiscard]] GT decrypt(const typename Core::Ciphertext& c, net::Channel& ch) {
    telemetry::ScopedSpan span("dlr.dec");
    const auto& m1 = ch.send(net::DeviceId::P1, "dec.r1", p1_.dec_round1(c));
    const auto& m2 = ch.send(net::DeviceId::P2, "dec.r2", p2_.dec_respond(m1));
    return p1_.dec_finish(m2);
  }

  /// Run the refresh protocol over a recording channel.
  void refresh(net::Channel& ch) {
    telemetry::ScopedSpan span("dlr.refresh");
    const auto& m1 = ch.send(net::DeviceId::P1, "ref.r1", p1_.ref_round1());
    const auto& m2 = ch.send(net::DeviceId::P2, "ref.r2", p2_.ref_respond(m1));
    p1_.ref_finish(m2);
  }

  /// One full time period: decrypt c, then refresh (the paper's game loop).
  [[nodiscard]] PeriodRecord run_period(const typename Core::Ciphertext& c) {
    net::Channel ch;
    PeriodRecord rec;
    rec.dec_input = c;
    rec.dec_output = decrypt(c, ch);
    refresh(ch);
    rec.transcript = ch.take_transcript();
    return rec;
  }

  [[nodiscard]] GT decrypt(const typename Core::Ciphertext& c) {
    net::Channel ch;
    return decrypt(c, ch);
  }

  /// Encrypt through the cached pk tables (same distribution as Core::enc).
  [[nodiscard]] typename Core::Ciphertext encrypt(const GT& m, crypto::Rng& rng) const {
    return Core::enc_precomp(gg_, pk_tbl_, m, rng);
  }

  void refresh() {
    net::Channel ch;
    refresh(ch);
  }

 private:
  DlrSystem(GG gg, const DlrParams& prm, P1Mode mode, typename Core::KeyGenResult kg,
            crypto::Rng rng1, crypto::Rng rng2)
      : gg_(gg),
        pk_(kg.pk),
        pk_tbl_(gg_, kg.pk),
        gen_randomness_(std::move(kg.gen_randomness)),
        p1_(gg, prm, kg.pk, std::move(kg.sk1), mode, std::move(rng1)),
        p2_(gg, prm, std::move(kg.sk2), std::move(rng2)) {}

  GG gg_;
  typename Core::PublicKey pk_;
  typename Core::PkTable pk_tbl_;
  Bytes gen_randomness_;
  DlrParty1<GG> p1_;
  DlrParty2<GG> p2_;
};

}  // namespace dlr::schemes
