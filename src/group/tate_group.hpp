// BilinearGroup backend over the real type-A Tate pairing.
//
// A TateGroup is a cheap handle (shared_ptr to the immutable pairing context)
// so schemes can copy it freely. Scalars are plain integers in [0, r); group
// elements are affine points / F_{q^2} values in Montgomery form.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "group/bilinear.hpp"
#include "pairing/pairing.hpp"
#include "telemetry/metrics.hpp"

namespace dlr::group {

template <std::size_t LQ, std::size_t LR>
class TateGroup {
 public:
  using Ctx = pairing::PairingCtx<LQ, LR>;
  using Scalar = mpint::UInt<LR>;
  using G = typename Ctx::G;
  using GT = typename Ctx::GT;

  explicit TateGroup(std::shared_ptr<const Ctx> ctx)
      : ctx_(std::move(ctx)),
        zr_(ctx_->order()),
        tm_fast_sqr_(&telemetry::Registry::global().counter(
            "group.gt.fast_sqr", {{"backend", ctx_->name()}})) {}

  [[nodiscard]] const Ctx& ctx() const { return *ctx_; }

  // ---- scalars --------------------------------------------------------------
  [[nodiscard]] std::size_t scalar_bits() const { return ctx_->order().bit_length(); }
  [[nodiscard]] const Scalar& order() const { return ctx_->order(); }

  [[nodiscard]] Scalar sc_random(crypto::Rng& rng) const { return zr_.random_uint(rng); }
  [[nodiscard]] Scalar sc_from_u64(std::uint64_t v) const {
    return mpint::mod(Scalar::from_u64(v), ctx_->order());
  }
  [[nodiscard]] Scalar sc_add(const Scalar& a, const Scalar& b) const {
    return zr_.to_uint(zr_.add(zr_.from_uint(a), zr_.from_uint(b)));
  }
  [[nodiscard]] Scalar sc_sub(const Scalar& a, const Scalar& b) const {
    return zr_.to_uint(zr_.sub(zr_.from_uint(a), zr_.from_uint(b)));
  }
  [[nodiscard]] Scalar sc_mul(const Scalar& a, const Scalar& b) const {
    return zr_.to_uint(zr_.mul(zr_.from_uint(a), zr_.from_uint(b)));
  }
  [[nodiscard]] Scalar sc_neg(const Scalar& a) const {
    return zr_.to_uint(zr_.neg(zr_.from_uint(a)));
  }
  [[nodiscard]] Scalar sc_inv(const Scalar& a) const {
    return zr_.to_uint(zr_.inv(zr_.from_uint(a)));
  }
  [[nodiscard]] bool sc_eq(const Scalar& a, const Scalar& b) const { return a == b; }
  [[nodiscard]] bool sc_is_zero(const Scalar& a) const { return a.is_zero(); }

  // ---- G --------------------------------------------------------------------
  [[nodiscard]] G g_gen() const { return ctx_->generator(); }
  [[nodiscard]] G g_id() const { return G{}; }
  [[nodiscard]] G g_random(crypto::Rng& rng) const { return ctx_->random_point(rng); }
  [[nodiscard]] G g_mul(const G& a, const G& b) const { return ctx_->curve().add(a, b); }
  [[nodiscard]] G g_inv(const G& a) const { return ctx_->curve().neg(a); }
  [[nodiscard]] G g_pow(const G& a, const Scalar& s) const { return ctx_->curve().mul(a, s); }
  [[nodiscard]] bool g_eq(const G& a, const G& b) const { return a == b; }
  [[nodiscard]] bool g_is_id(const G& a) const { return a.inf; }
  /// prod_i a_i^{s_i} via an interleaved (Strauss) chain.
  [[nodiscard]] G g_multi_pow(std::span<const G> as, std::span<const Scalar> ss) const {
    return ctx_->curve().multi_mul(as, ss);
  }
  [[nodiscard]] G hash_to_g(const Bytes& data) const { return ctx_->hash_to_point(data); }
  /// Full (expensive) membership check: on curve and of order dividing r.
  [[nodiscard]] bool g_in_group(const G& a) const { return ctx_->in_group(a); }

  // ---- GT -------------------------------------------------------------------
  [[nodiscard]] GT gt_gen() const { return ctx_->gt_generator(); }
  [[nodiscard]] GT gt_id() const { return ctx_->fq2().one(); }
  [[nodiscard]] GT gt_random(crypto::Rng& rng) const { return ctx_->random_gt(rng); }
  [[nodiscard]] GT gt_mul(const GT& a, const GT& b) const { return ctx_->fq2().mul(a, b); }
  [[nodiscard]] GT gt_inv(const GT& a) const { return ctx_->gt_inv(a); }
  /// GT exponentiation. Genuine GT elements are norm-1 (gt_deser can produce
  /// nothing else), which unlocks the signed-window fast lane: conjugation
  /// is a free inverse and squaring costs 1 mul + 1 sqr. Elements off the
  /// circle (possible only through raw field values in tests) fall back to
  /// generic square-and-multiply; both paths agree where both apply.
  [[nodiscard]] GT gt_pow(const GT& a, const Scalar& s) const {
    const auto& f2 = ctx_->fq2();
    if (f2.is_norm_one(a)) {
      tm_fast_sqr_->add(s.bit_length());
      return f2.pow_norm1(a, s);
    }
    return f2.pow(a, s);
  }
  [[nodiscard]] bool gt_eq(const GT& a, const GT& b) const { return a == b; }
  [[nodiscard]] bool gt_is_id(const GT& a) const { return ctx_->fq2().eq(a, ctx_->fq2().one()); }
  /// prod_i t_i^{s_i} with one shared squaring chain. All-norm-1 inputs (the
  /// only kind the protocols produce) take the signed-window interleaving:
  /// per-base {t, t^3} tables, free negation via conj, cyclotomic-style
  /// squarings.
  [[nodiscard]] GT gt_multi_pow(std::span<const GT> ts, std::span<const Scalar> ss) const {
    if (ts.size() != ss.size())
      throw std::invalid_argument("gt_multi_pow: size mismatch");
    const auto& f2 = ctx_->fq2();
    bool fast = true;
    for (const auto& t : ts)
      if (!f2.is_norm_one(t)) {
        fast = false;
        break;
      }
    if (!fast) {
      std::size_t nbits = 0;
      for (const auto& s : ss) nbits = std::max(nbits, s.bit_length());
      GT acc = f2.one();
      for (std::size_t i = nbits; i-- > 0;) {
        acc = f2.sqr(acc);
        for (std::size_t j = 0; j < ts.size(); ++j)
          if (ss[j].bit(i)) acc = f2.mul(acc, ts[j]);
      }
      return acc;
    }
    std::vector<std::vector<int>> nafs;
    std::vector<std::array<GT, 2>> tbl;  // {t, t^3} per active base
    std::size_t nmax = 0;
    for (std::size_t j = 0; j < ts.size(); ++j) {
      if (ss[j].is_zero()) continue;
      nafs.push_back(mpint::wnaf_digits(ss[j], 3));
      tbl.push_back({ts[j], f2.mul(f2.sqr_norm1(ts[j]), ts[j])});
      nmax = std::max(nmax, nafs.back().size());
    }
    GT acc = f2.one();
    for (std::size_t i = nmax; i-- > 0;) {
      acc = f2.sqr_norm1(acc);
      for (std::size_t j = 0; j < tbl.size(); ++j) {
        if (i >= nafs[j].size()) continue;
        const int d = nafs[j][i];
        if (d == 0) continue;
        const GT& e = tbl[j][(d == 1 || d == -1) ? 0 : 1];
        acc = f2.mul(acc, d > 0 ? e : f2.conj(e));
      }
    }
    tm_fast_sqr_->add(nmax);
    return acc;
  }

  // ---- pairing ----------------------------------------------------------------
  [[nodiscard]] GT pair(const G& a, const G& b) const { return ctx_->pair(a, b); }

  /// Shared-exponent multi-pow: the wNAF-3 recoding of `ss` is computed once
  /// here and reused by every pow() call, which only builds the per-base
  /// {t, t^3} tables and walks the shared squaring chain. pow(ts) is
  /// bit-identical to gt_multi_pow(ts, ss) -- including the generic
  /// square-and-multiply fallback when a base is off the norm-1 circle.
  /// This is the cross-request seam: a decryption batch applies the SAME
  /// secret-share exponent vector to every request's rows.
  class PreparedGtMultiPow {
   public:
    PreparedGtMultiPow(std::shared_ptr<const Ctx> ctx, std::span<const Scalar> ss,
                       telemetry::Counter* fast_sqr)
        : ctx_(std::move(ctx)), ss_(ss.begin(), ss.end()), fast_sqr_(fast_sqr) {
      for (std::size_t j = 0; j < ss_.size(); ++j) {
        if (ss_[j].is_zero()) continue;
        active_.push_back(j);
        nafs_.push_back(mpint::wnaf_digits(ss_[j], 3));
        nmax_ = std::max(nmax_, nafs_.back().size());
      }
    }

    [[nodiscard]] GT pow(std::span<const GT> ts) const {
      if (ts.size() != ss_.size())
        throw std::invalid_argument("prepared gt_multi_pow: size mismatch");
      const auto& f2 = ctx_->fq2();
      bool fast = true;
      for (const auto& t : ts)
        if (!f2.is_norm_one(t)) {
          fast = false;
          break;
        }
      if (!fast) {
        std::size_t nbits = 0;
        for (const auto& s : ss_) nbits = std::max(nbits, s.bit_length());
        GT acc = f2.one();
        for (std::size_t i = nbits; i-- > 0;) {
          acc = f2.sqr(acc);
          for (std::size_t j = 0; j < ts.size(); ++j)
            if (ss_[j].bit(i)) acc = f2.mul(acc, ts[j]);
        }
        return acc;
      }
      std::vector<std::array<GT, 2>> tbl;  // {t, t^3} per active base
      tbl.reserve(active_.size());
      for (const std::size_t j : active_)
        tbl.push_back({ts[j], f2.mul(f2.sqr_norm1(ts[j]), ts[j])});
      GT acc = f2.one();
      for (std::size_t i = nmax_; i-- > 0;) {
        acc = f2.sqr_norm1(acc);
        for (std::size_t j = 0; j < tbl.size(); ++j) {
          if (i >= nafs_[j].size()) continue;
          const int d = nafs_[j][i];
          if (d == 0) continue;
          const GT& e = tbl[j][(d == 1 || d == -1) ? 0 : 1];
          acc = f2.mul(acc, d > 0 ? e : f2.conj(e));
        }
      }
      if (fast_sqr_) fast_sqr_->add(nmax_);
      return acc;
    }

   private:
    std::shared_ptr<const Ctx> ctx_;
    std::vector<Scalar> ss_;             // full vector (generic fallback)
    std::vector<std::size_t> active_;    // indices with nonzero scalar
    std::vector<std::vector<int>> nafs_; // wNAF-3 digits per active scalar
    std::size_t nmax_ = 0;
    telemetry::Counter* fast_sqr_;
  };

  [[nodiscard]] PreparedGtMultiPow prepare_gt_multi_pow(std::span<const Scalar> ss) const {
    return PreparedGtMultiPow(ctx_, ss, tm_fast_sqr_);
  }

  // ---- fast-lane natives -------------------------------------------------------
  // Optional extensions over the BilinearGroup concept; generic wrappers
  // (PreparedPair, FixedPow) detect them with `requires` and fall back to
  // concept-only code on backends that lack them.

  /// Fixed-argument pairing: run the Miller loop once for `a`, evaluate
  /// cheaply against many second arguments.
  [[nodiscard]] pairing::PreparedPairing<LQ, LR> prepare_pair(const G& a) const {
    return pairing::PreparedPairing<LQ, LR>(ctx_, a);
  }

  /// n uniform elements of G in one call: the same draws from `rng` as n
  /// g_random calls, with one square root per point and the cofactor
  /// cleared for the whole batch (PairingCtx::random_points), so a
  /// refresh's coins pay one batch inversion for their tables and one for
  /// the results.
  [[nodiscard]] std::vector<G> g_random_many(crypto::Rng& rng, std::size_t n) const {
    return ctx_->random_points(rng, n);
  }

  /// prod of group elements via Jacobian mixed-add accumulation: n cheap
  /// mixed adds + ONE inversion, vs n affine adds each paying a Fermat
  /// inversion. Makes comb-table lookups on G finally profitable.
  [[nodiscard]] G g_prod(std::span<const G> as) const {
    const auto& cv = ctx_->curve();
    ec::JacPoint<LQ> acc{ctx_->fq().one(), ctx_->fq().one(), ctx_->fq().zero()};
    for (const auto& p : as) acc = cv.add_mixed(acc, p);
    return cv.to_affine(acc);
  }

  /// Comb table base^(d * 16^i), d in [1,15], i in [0,windows): built with a
  /// Jacobian addition chain and normalized to affine with ONE batch
  /// inversion (vs 15*windows Fermat inversions for the generic g_mul loop).
  [[nodiscard]] std::vector<G> g_comb_table(const G& base, std::size_t windows) const {
    const auto& cv = ctx_->curve();
    std::vector<ec::JacPoint<LQ>> jac;
    jac.reserve(windows * 15);
    ec::JacPoint<LQ> cur = cv.to_jac(base);  // base^(16^i)
    for (std::size_t i = 0; i < windows; ++i) {
      ec::JacPoint<LQ> acc = cur;
      for (int d = 1; d <= 15; ++d) {
        jac.push_back(acc);
        acc = cv.add(acc, cur);
      }
      cur = acc;  // base^(16^{i+1})
    }
    return cv.batch_to_affine(jac);
  }

  // ---- serialization ----------------------------------------------------------
  // Scalars are packed to ceil(log r / 8) bytes: the measured secret-memory
  // sizes then match the paper's information-theoretic accounting (for SS512,
  // log r = 160 bits = exactly 20 bytes per scalar).
  //
  // Group elements take one flag byte and one F_q payload, half of an
  // uncompressed encoding. A G element is (flag, x): flag 1 is the point at
  // infinity with an all-zero payload, flags 2/3 carry the parity of y, and
  // decompression costs one square root.
  //
  // A GT element x = a + bi lies on the norm-1 circle a^2 + b^2 = 1 and is
  // sent as its torus coordinate (Rubin-Silverberg, CRYPTO 2003): flag 0 and
  // c = b / (1 - a). Decoding is a = (c^2 - 1) / (c^2 + 1) = 1 - 2 / (c^2 + 1),
  // b = 2c / (c^2 + 1). c^2 + 1 is never zero because -1 is a non-square mod
  // q == 3 (mod 4), so every in-range c decodes to a norm-1 element without a
  // square root or a membership test. The identity, the one point c cannot
  // reach, is flag 1 with an all-zero payload. The encoder rejects elements
  // off the circle. gt_ser_many/gt_deser_many share ONE batch inversion
  // across a whole protocol message; gt_ser/gt_deser are the one-element case.
  [[nodiscard]] std::size_t sc_bytes() const { return (scalar_bits() + 7) / 8; }
  [[nodiscard]] std::size_t g_bytes() const { return 1 + 8 * LQ; }
  [[nodiscard]] std::size_t gt_bytes() const { return 1 + 8 * LQ; }

  void sc_ser(ByteWriter& w, const Scalar& s) const {
    const auto full = s.to_bytes();
    w.raw(std::span<const std::uint8_t>(full.data(), sc_bytes()));
  }
  [[nodiscard]] Scalar sc_deser(ByteReader& r) const {
    auto bytes = r.raw(sc_bytes());
    bytes.resize(8 * LR, 0);
    const auto v = Scalar::from_bytes(bytes);
    if (v >= ctx_->order()) throw std::invalid_argument("sc_deser: out of range");
    return v;
  }

  void g_ser(ByteWriter& w, const G& a) const {
    if (a.inf) {
      w.u8(1);
      w.raw(mpint::UInt<LQ>{}.to_bytes());
      return;
    }
    const auto& fq = ctx_->fq();
    w.u8(fq.to_uint(a.y).is_odd() ? 3 : 2);
    w.raw(fq.to_uint(a.x).to_bytes());
  }
  [[nodiscard]] G g_deser(ByteReader& r) const {
    const auto flag = r.u8();
    const auto x = mpint::UInt<LQ>::from_bytes(r.raw(8 * LQ));
    if (flag == 1) {
      if (!x.is_zero()) throw std::invalid_argument("g_deser: non-zero infinity payload");
      return G{};
    }
    if (flag != 2 && flag != 3) throw std::invalid_argument("g_deser: bad flag");
    const auto& fq = ctx_->fq();
    if (x >= fq.modulus()) throw std::invalid_argument("g_deser: x out of range");
    const auto p = ctx_->curve().lift_x(fq.from_uint(x), flag == 3);
    if (!p) throw std::invalid_argument("g_deser: x not on curve");
    return *p;
  }

  void gt_ser(ByteWriter& w, const GT& t) const { gt_ser_many(w, std::span<const GT>(&t, 1)); }
  [[nodiscard]] GT gt_deser(ByteReader& r) const { return gt_deser_many(r, 1).front(); }

  void gt_ser_many(ByteWriter& w, std::span<const GT> ts) const;
  [[nodiscard]] std::vector<GT> gt_deser_many(ByteReader& r, std::size_t n) const;

  [[nodiscard]] std::string name() const { return ctx_->name(); }

 private:
  static constexpr std::uint8_t kGtTorus = 0;     // GT flag: torus coordinate follows
  static constexpr std::uint8_t kGtIdentity = 1;  // GT flag: identity, zero payload

  std::shared_ptr<const Ctx> ctx_;
  field::FpCtx<LR> zr_;
  // Registry handle (stable for the process lifetime; shared across copies).
  telemetry::Counter* tm_fast_sqr_ = nullptr;
};

using TateSS512 = TateGroup<8, 3>;
using TateSS256 = TateGroup<4, 1>;
using TateSS1024 = TateGroup<16, 4>;

/// Canonical PBC "a.param" (512-bit q, 160-bit r).
TateSS512 make_tate_ss512();
/// Small, fast, non-cryptographic preset (255-bit q, 64-bit r).
TateSS256 make_tate_ss256();
/// High-margin preset (1024-bit q, 256-bit r; a1-class sizes).
TateSS1024 make_tate_ss1024();

extern template class TateGroup<8, 3>;
extern template class TateGroup<4, 1>;
extern template class TateGroup<16, 4>;

}  // namespace dlr::group
