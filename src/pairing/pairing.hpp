// Tate pairing on the type-A supersingular curve E: y^2 = x^3 + x over F_q,
// q == 3 (mod 4), with distortion map phi(x, y) = (-x, i*y) into E(F_{q^2}).
//
//   e(P, Q) = f_{r,P}(phi(Q)) ^ ((q^2 - 1)/r),   P, Q in G = E(F_q)[r]
//
// The Miller loop runs in Jacobian coordinates with denominator elimination:
// since q+1 = r*h, the final exponentiation (q^2-1)/r = (q-1)*h kills every
// F_q^* factor, so vertical lines and all line denominators are dropped.
// phi(Q) has x-coordinate in F_q and purely imaginary y-coordinate, making
// line evaluations cost only F_q multiplications.
//
// The final exponentiation uses f^(q-1) = conj(f)/f (Frobenius on F_{q^2} is
// conjugation) followed by an exponentiation by the cofactor h = (q+1)/r.
// GT is the order-r subgroup of F_{q^2}^*; its elements have norm 1, so
// inversion in GT is conjugation. final_exp is the reference map;
// final_exp_many computes the same map for a batch on traces (a Lucas
// ladder over the bits of h) with one shared base-field inversion.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "ec/curve.hpp"
#include "field/fp2.hpp"

namespace dlr::pairing {

using mpint::UInt;

/// Cofactors in this library fit in 12 limbs (SS1024's h is 768 bits).
using Cofactor = UInt<12>;

template <std::size_t LQ, std::size_t LR>
class PairingCtx {
 public:
  using Fq = field::FpCtx<LQ>;
  using Fq2 = field::Fp2Ctx<LQ>;
  using Curve = ec::CurveCtx<LQ>;
  using G = ec::AffinePoint<LQ>;   // source-group element
  using GT = field::Fp2E<LQ>;      // target-group element (norm-1, order r)

  PairingCtx(const UInt<LQ>& q, const UInt<LR>& r, const Cofactor& h, std::string name)
      : fq_(q),
        fq2_(fq_),
        curve_(fq_),
        r_(r),
        h_(h),
        h_naf_(mpint::wnaf_digits(h, 4)),
        name_(std::move(name)) {
    validate();
    gen_ = find_generator();
    gt_gen_ = pair(gen_, gen_);
    if (fq2_.eq(gt_gen_, fq2_.one()))
      throw std::logic_error("PairingCtx: degenerate pairing e(g, g) == 1");
  }

  [[nodiscard]] const Fq& fq() const { return fq_; }
  [[nodiscard]] const Fq2& fq2() const { return fq2_; }
  [[nodiscard]] const Curve& curve() const { return curve_; }
  [[nodiscard]] const UInt<LR>& order() const { return r_; }
  [[nodiscard]] const Cofactor& cofactor() const { return h_; }
  [[nodiscard]] const G& generator() const { return gen_; }
  [[nodiscard]] const GT& gt_generator() const { return gt_gen_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Group membership: on curve and killed by r.
  [[nodiscard]] bool in_group(const G& p) const {
    if (p.inf) return true;
    if (!curve_.is_on_curve(p)) return false;
    return curve_.mul(p, r_).inf;
  }

  /// Map a curve point of any order into the order-r subgroup.
  [[nodiscard]] G clear_cofactor(const G& p) const {
    return clear_cofactor_many(std::span<const G>(&p, 1)).front();
  }

  /// [h]P for a batch of curve points. h's wNAF-4 digits are recoded once,
  /// at construction. Each point's odd multiples 3P, 5P, 7P go to affine
  /// together with ONE batch inversion, so every step of the chains is a
  /// mixed add, and the results share ONE more batch inversion.
  [[nodiscard]] std::vector<G> clear_cofactor_many(std::span<const G> ps) const {
    const auto& cv = curve_;
    std::vector<ec::JacPoint<LQ>> odd;  // 3P, 5P, 7P per point
    odd.reserve(3 * ps.size());
    for (const auto& p : ps) {
      const auto p2 = cv.dbl(cv.to_jac(p));
      odd.push_back(cv.add_mixed(p2, p));
      odd.push_back(cv.add(odd.back(), p2));
      odd.push_back(cv.add(odd.back(), p2));
    }
    const auto tbl = cv.batch_to_affine(odd);
    std::vector<ec::JacPoint<LQ>> acc(ps.size(), cv.to_jac(G{}));
    for (std::size_t j = 0; j < ps.size(); ++j) {
      for (std::size_t i = h_naf_.size(); i-- > 0;) {
        acc[j] = cv.dbl(acc[j]);
        const int d = h_naf_[i];
        if (d == 0) continue;
        const int k = d > 0 ? d : -d;
        const G& t = k == 1 ? ps[j] : tbl[3 * j + static_cast<std::size_t>(k - 3) / 2];
        acc[j] = cv.add_mixed(acc[j], d > 0 ? t : cv.neg(t));
      }
    }
    return cv.batch_to_affine(acc);
  }

  /// Uniform element of G sampled *without a known discrete log* (the paper's
  /// Section 5 remark requires the a_i and HPSKE coins to be sampled as raw
  /// group elements so their dlogs never enter secret memory).
  [[nodiscard]] G random_point(crypto::Rng& rng) const { return random_points(rng, 1).front(); }

  /// `n` independent uniform elements of G, drawing from `rng` exactly as n
  /// calls of random_point would (an x and a sign bit per point). Each x
  /// costs one square root: exactly one of x, -x lifts (CurveCtx::
  /// lift_x_or_neg), and both map to that one, so every liftable x' is hit
  /// with probability 2/q and the sign bit picks either root. That is the
  /// distribution of the two-attempt "retry until x lifts" loop: uniform over
  /// the curve points with y != 0, each then mapped into G by [h], which
  /// hits every element of G equally often. (0, 0) and the rare point of
  /// order dividing h clear to O and are redrawn. The cofactor is cleared for
  /// the whole batch at once (clear_cofactor_many).
  [[nodiscard]] std::vector<G> random_points(crypto::Rng& rng, std::size_t n) const {
    std::vector<G> out;
    out.reserve(n);
    std::vector<G> lifted;
    while (out.size() < n) {
      lifted.clear();
      for (std::size_t i = out.size(); i < n; ++i) {
        const auto x = fq_.random(rng);
        const bool sign = rng.coin();
        lifted.push_back(curve_.lift_x_or_neg(x, sign));
      }
      for (const auto& g : clear_cofactor_many(lifted))
        if (!g.inf) out.push_back(g);
    }
    return out;
  }

  /// Deterministic hash-to-group (used for the IBE's public matrix U).
  [[nodiscard]] G hash_to_point(const Bytes& data) const {
    for (std::uint32_t ctr = 0;; ++ctr) {
      ByteWriter w;
      w.str("dlr.h2g." + name_);
      w.blob(data);
      w.u32(ctr);
      const auto digest = crypto::kdf(w.bytes(), 8 * LQ, "dlr.h2g.kdf");
      auto v = UInt<LQ>::from_bytes(digest);
      const auto x = fq_.from_uint(mpint::mod(mpint::resize<2 * LQ>(v), fq_.modulus()));
      const auto p = curve_.lift_x(x, (digest[0] & 1) != 0);
      if (!p) continue;
      const auto g = clear_cofactor(*p);
      if (!g.inf) return g;
    }
  }

  /// Uniform element of GT without a known discrete log: x^((q-1)h) for
  /// uniform x in F_{q^2}^* surjects onto the order-r subgroup.
  [[nodiscard]] GT random_gt(crypto::Rng& rng) const {
    for (;;) {
      const auto x = fq2_.random_nonzero(rng);
      const auto y = gt_from_field(x);
      if (!fq2_.eq(y, fq2_.one())) return y;
    }
  }

  /// Project an arbitrary nonzero field element onto GT: x^((q-1)h), the
  /// final exponentiation.
  [[nodiscard]] GT gt_from_field(const GT& x) const {
    return final_exp_many(std::span<const GT>(&x, 1)).front();
  }

  /// GT inversion: conjugation (elements have norm 1).
  [[nodiscard]] GT gt_inv(const GT& x) const { return fq2_.conj(x); }

  /// The Tate pairing, reduced (output in GT, e(P,Q)=1 iff P or Q infinite).
  [[nodiscard]] GT pair(const G& p, const G& q) const {
    if (p.inf || q.inf) return fq2_.one();
    const auto f = miller(p, q);
    return final_exp(f);
  }

  /// Miller function f_{r,P}(phi(Q)) before the final exponentiation.
  [[nodiscard]] GT miller(const G& p, const G& q) const {
    const auto& fq = fq_;
    // phi(Q) = (-xQ, i yQ): the line formulas below absorb the x-negation
    // (they are written in terms of xQ directly); yQ scales the imaginary
    // part of every line value.
    const auto yq = q.y;

    GT f = fq2_.one();
    ec::JacPoint<LQ> t = curve_.to_jac(p);
    const std::size_t nbits = r_.bit_length();
    for (std::size_t i = nbits - 1; i-- > 0;) {
      // --- doubling step: line value then T <- 2T (shares intermediates) ---
      {
        const auto y2 = fq.sqr(t.Y);
        const auto z2 = fq.sqr(t.Z);
        const auto m = fq.add(fq.mul(three(), fq.sqr(t.X)), fq.sqr(z2));  // 3X^2 + Z^4
        // line: real = -2Y^2 + m*(Z^2*xQ' + X) with xQ' = xS...
        // derived with xS = -xQ:  real = -2Y^2 + m*(Z^2*(-xS) + X)? No:
        // real = -2Y^2 + m*(Z^2*xQ + X) where xQ = -xS. Use xq = q.x.
        const auto real = fq.sub(fq.mul(m, fq.add(fq.mul(z2, q.x), t.X)), fq.dbl(y2));
        const auto imag = fq.mul(fq.mul(fq.dbl(fq.mul(t.Y, t.Z)), z2), yq);  // Z3*Z^2*yQ
        const GT line{real, imag};
        f = fq2_.mul(fq2_.sqr(f), line);
        // T <- 2T
        const auto s = fq.dbl(fq.dbl(fq.mul(t.X, y2)));
        const auto x3 = fq.sub(fq.sqr(m), fq.dbl(s));
        const auto y3 = fq.sub(fq.mul(m, fq.sub(s, x3)), fq.dbl(fq.dbl(fq.dbl(fq.sqr(y2)))));
        const auto z3 = fq.dbl(fq.mul(t.Y, t.Z));
        t = {x3, y3, z3};
      }
      if (r_.bit(i)) {
        // --- mixed addition step: T <- T + P with line through T, P ---
        const auto z1z1 = fq.sqr(t.Z);
        const auto u2 = fq.mul(p.x, z1z1);
        const auto s2 = fq.mul(p.y, fq.mul(z1z1, t.Z));
        const auto hh = fq.sub(u2, t.X);
        const auto rr = fq.sub(s2, t.Y);
        if (fq.is_zero(hh)) {
          // T == +-P. For odd prime r this is the final vertical line
          // (T = -P, next T = infinity); the line x - xP lies in F_q and is
          // erased by the final exponentiation.
          if (!fq.is_zero(rr)) {
            t = {fq.one(), fq.one(), fq.zero()};
            continue;
          }
          throw std::logic_error("miller: unexpected doubling inside addition step");
        }
        const auto z3 = fq.mul(t.Z, hh);
        // line: real = -Z3*yP + R*(xQ + xP); imag = Z3*yQ  (negated overall
        // relative to the tangent convention -- an F_q^* factor, irrelevant).
        const auto real = fq.sub(fq.mul(rr, fq.add(q.x, p.x)), fq.mul(z3, p.y));
        const auto imag = fq.mul(z3, yq);
        const GT line{real, imag};
        f = fq2_.mul(f, line);
        const auto h2 = fq.sqr(hh);
        const auto h3 = fq.mul(h2, hh);
        const auto v = fq.mul(t.X, h2);
        const auto x3 = fq.sub(fq.sub(fq.sqr(rr), h3), fq.dbl(v));
        const auto y3 = fq.sub(fq.mul(rr, fq.sub(v, x3)), fq.mul(t.Y, h3));
        t = {x3, y3, z3};
      }
    }
    return f;
  }

  /// f -> f^((q^2-1)/r) = (conj(f)/f)^h. Reference implementation (generic
  /// Fq2 inversion + square-and-multiply), kept as the oracle for
  /// final_exp_many and used by the reference pairing above.
  [[nodiscard]] GT final_exp(const GT& f) const {
    const auto u = fq2_.mul(fq2_.conj(f), fq2_.inv(f));
    return fq2_.pow(u, h_);
  }

  /// The same map for a batch of nonzero values, on traces (Scott-Barreto,
  /// "Compressed Pairings", CRYPTO 2004). For f = a + bi the first factor
  /// u = conj(f)/f = conj(f^2)/N(f) lies on the norm-1 circle, so
  /// V_k = u^k + u^-k = 2 Re(u^k) obeys the Lucas recurrences
  ///
  ///   V_2k = V_k^2 - 2,   V_2k+1 = V_k V_k+1 - V_1,   V_1 = 2 Re(u),
  ///
  /// and a ladder over the bits of h carries (V_k, V_k+1) at one squaring
  /// and one multiplication per bit, with no window table. The imaginary
  /// part follows from Re(u^h u) = Re(u^h) Re(u) - Im(u^h) Im(u):
  ///
  ///   Im(u^h) = (Re(u^h) Re(u) - V_h+1 / 2) / Im(u),  1/Im(u) = -N(f)/(2ab).
  ///
  /// 1/N(f) and 1/(4ab) for the whole batch come from ONE batch inversion.
  /// An f with ab = 0 has u = +-1 and maps to the identity: h is even, since
  /// 4 | q+1 and r is odd. Agrees with final_exp element by element.
  [[nodiscard]] std::vector<GT> final_exp_many(std::span<const GT> fs) const {
    const auto& fq = fq_;
    struct Pending {
      std::size_t at;
      UInt<LQ> re;  // a^2 - b^2 = N(f) Re(u)
      UInt<LQ> n;   // N(f) = a^2 + b^2
    };
    std::vector<GT> out(fs.size(), fq2_.one());
    std::vector<Pending> todo;
    std::vector<UInt<LQ>> invs;  // N(f), 4ab per pending element
    todo.reserve(fs.size());
    invs.reserve(2 * fs.size());
    for (std::size_t i = 0; i < fs.size(); ++i) {
      const auto& f = fs[i];
      if (fq2_.is_zero(f)) throw std::domain_error("final_exp_many: zero");
      if (fq.is_zero(f.a) || fq.is_zero(f.b)) continue;
      const auto a2 = fq.sqr(f.a);
      const auto b2 = fq.sqr(f.b);
      todo.push_back({i, fq.sub(a2, b2), fq.add(a2, b2)});
      invs.push_back(todo.back().n);
      invs.push_back(fq.dbl(fq.dbl(fq.mul(f.a, f.b))));
    }
    fq.batch_inv(invs);
    const auto two = fq.dbl(fq.one());
    const std::size_t nbits = h_.bit_length();
    for (std::size_t j = 0; j < todo.size(); ++j) {
      const auto x = fq.mul(todo[j].re, invs[2 * j]);  // Re(u)
      const auto v1 = fq.dbl(x);
      auto v = v1;                         // V_k
      auto w = fq.sub(fq.sqr(v1), two);    // V_k+1
      for (std::size_t i = nbits - 1; i-- > 0;) {
        const auto vw = fq.sub(fq.mul(v, w), v1);  // V_2k+1
        if (h_.bit(i)) {
          v = vw;
          w = fq.sub(fq.sqr(w), two);
        } else {
          w = vw;
          v = fq.sub(fq.sqr(v), two);
        }
      }
      // Re(u^h) = V_h/2; Im(u^h) = (V_h Re(u) - V_h+1)/(2 Im(u)), where
      // 1/(2 Im(u)) = -N(f)/(4ab).
      const auto im = fq.mul(fq.mul(fq.sub(w, fq.mul(v, x)), todo[j].n), invs[2 * j + 1]);
      out[todo[j].at] = GT{fq.mul(v, fq.two_inv()), im};
    }
    return out;
  }

 private:
  void validate() const {
    // r * h == q + 1 (so the curve order q+1 contains the order-r subgroup
    // and the final exponentiation decomposes as (q-1)*h).
    const auto rh = mpint::mul_wide(mpint::resize<LQ>(r_), h_);  // UInt<LQ+12>
    const auto q1 = mpint::resize<LQ + 12>(fq_.modulus()) + mpint::UInt<LQ + 12>::from_u64(1);
    if (rh != q1) throw std::invalid_argument("PairingCtx: r*h != q+1");
    if ((fq_.modulus().limb[0] & 3) != 3)
      throw std::invalid_argument("PairingCtx: q != 3 mod 4");
  }

  [[nodiscard]] G find_generator() const {
    for (std::uint64_t xi = 1;; ++xi) {
      const auto x = fq_.from_uint(UInt<LQ>::from_u64(xi));
      const auto p = curve_.lift_x(x, false);
      if (!p) continue;
      const auto g = clear_cofactor(*p);
      if (g.inf) continue;
      if (!curve_.mul(g, r_).inf)
        throw std::logic_error("PairingCtx: cofactor-cleared point not killed by r");
      return g;
    }
  }

  [[nodiscard]] UInt<LQ> three() const { return three_; }

  Fq fq_;
  Fq2 fq2_;
  Curve curve_;
  UInt<LR> r_;
  Cofactor h_;
  std::vector<int> h_naf_;  // wNAF-4 digits of h, least significant first
  std::string name_;
  G gen_{};
  GT gt_gen_{};
  UInt<LQ> three_ = fq_.from_uint(UInt<LQ>::from_u64(3));
};

// ---- fixed-argument pairing -------------------------------------------------
//
// Every line the Miller loop multiplies into f has the shape
//
//   line(Q) = (c0 + cx * xQ) + (cy * yQ) i
//
// where c0/cx/cy depend only on P and the running point T -- not on Q. For a
// fixed first argument the whole loop over T can therefore run once,
// recording ~|r| coefficient pairs. Each recorded line is divided by its cy
// at preparation (Costello-Stebila, "Fixed Argument Pairings", LATINCRYPT
// 2010), with ONE batch inversion over all of them:
//
//   line'(Q) = (c0' + cx' * xQ) + yQ i,   c0' = c0/cy, cx' = cx/cy.
//
// The dropped factor is the F_q^* product of the cy, which the final
// exponentiation erases, so an evaluation costs 1 F_q mul per step plus the
// shared squaring chain, about 1/3 of a full Miller loop. Outputs therefore
// agree with PairingCtx::pair after the final exponentiation, not before it.
// pair_many() hands all its Miller values to PairingCtx::final_exp_many,
// which shares ONE inversion across the whole batch.

template <std::size_t LQ, std::size_t LR>
class PreparedPairing {
 public:
  using Ctx = PairingCtx<LQ, LR>;
  using G = typename Ctx::G;
  using GT = typename Ctx::GT;

  PreparedPairing(std::shared_ptr<const Ctx> ctx, const G& p)
      : ctx_(std::move(ctx)), inf_(p.inf) {
    if (!inf_) precompute(p);
  }

  /// e(P, q) for the fixed P.
  [[nodiscard]] GT pair(const G& q) const {
    return pair_many(std::span<const G>(&q, 1)).front();
  }

  /// e(P, q_j) for many q_j, sharing one batched inversion across the final
  /// exponentiations.
  [[nodiscard]] std::vector<GT> pair_many(std::span<const G> qs) const {
    std::vector<GT> ms(qs.size(), ctx_->fq2().one());  // infinity pairs to one
    if (!inf_)
      for (std::size_t i = 0; i < qs.size(); ++i)
        if (!qs[i].inf) ms[i] = miller_eval(qs[i]);
    return ctx_->final_exp_many(ms);
  }

  /// f_{r,P}(phi(q)) up to an F_q^* factor (the product of the recorded cy),
  /// before the final exponentiation.
  [[nodiscard]] GT miller_eval(const G& q) const {
    const auto& fq = ctx_->fq();
    const auto& f2 = ctx_->fq2();
    GT f = f2.one();
    for (const auto& s : steps_) {
      const GT line{fq.add(s.c0, fq.mul(s.cx, q.x)), q.y};
      f = s.dbl ? f2.mul(f2.sqr(f), line) : f2.mul(f, line);
    }
    return f;
  }

  [[nodiscard]] bool base_is_infinity() const { return inf_; }
  [[nodiscard]] std::size_t steps() const { return steps_.size(); }
  [[nodiscard]] const std::shared_ptr<const Ctx>& ctx() const { return ctx_; }

 private:
  struct Step {
    UInt<LQ> c0, cx;  // line(Q) = (c0 + cx*xQ, yQ), normalized by cy
    bool dbl;         // doubling step: square f before the line mul
  };

  // Replays PairingCtx::miller symbolically over Q: identical T-updates and
  // branch structure, with the Q-dependent factors left as coefficients.
  void precompute(const G& p) {
    const auto& fq = ctx_->fq();
    const auto& cv = ctx_->curve();
    const auto three = fq.from_uint(UInt<LQ>::from_u64(3));
    const auto& r = ctx_->order();
    ec::JacPoint<LQ> t = cv.to_jac(p);
    const std::size_t nbits = r.bit_length();
    steps_.reserve(nbits + nbits / 2);
    std::vector<UInt<LQ>> cys;  // one per step, inverted below
    cys.reserve(nbits + nbits / 2);
    for (std::size_t i = nbits - 1; i-- > 0;) {
      {
        const auto y2 = fq.sqr(t.Y);
        const auto z2 = fq.sqr(t.Z);
        const auto m = fq.add(fq.mul(three, fq.sqr(t.X)), fq.sqr(z2));  // 3X^2 + Z^4
        const auto z3 = fq.dbl(fq.mul(t.Y, t.Z));
        steps_.push_back(Step{fq.sub(fq.mul(m, t.X), fq.dbl(y2)), fq.mul(m, z2), true});
        cys.push_back(fq.mul(z3, z2));
        const auto s = fq.dbl(fq.dbl(fq.mul(t.X, y2)));
        const auto x3 = fq.sub(fq.sqr(m), fq.dbl(s));
        const auto y3 =
            fq.sub(fq.mul(m, fq.sub(s, x3)), fq.dbl(fq.dbl(fq.dbl(fq.sqr(y2)))));
        t = {x3, y3, z3};
      }
      if (r.bit(i)) {
        const auto z1z1 = fq.sqr(t.Z);
        const auto u2 = fq.mul(p.x, z1z1);
        const auto s2 = fq.mul(p.y, fq.mul(z1z1, t.Z));
        const auto hh = fq.sub(u2, t.X);
        const auto rr = fq.sub(s2, t.Y);
        if (fq.is_zero(hh)) {
          if (!fq.is_zero(rr)) {
            t = {fq.one(), fq.one(), fq.zero()};
            continue;
          }
          throw std::logic_error("miller: unexpected doubling inside addition step");
        }
        const auto z3 = fq.mul(t.Z, hh);
        steps_.push_back(Step{fq.sub(fq.mul(rr, p.x), fq.mul(z3, p.y)), rr, false});
        cys.push_back(z3);
        const auto h2 = fq.sqr(hh);
        const auto h3 = fq.mul(h2, hh);
        const auto v = fq.mul(t.X, h2);
        const auto x3 = fq.sub(fq.sub(fq.sqr(rr), h3), fq.dbl(v));
        const auto y3 = fq.sub(fq.mul(rr, fq.sub(v, x3)), fq.mul(t.Y, h3));
        t = {x3, y3, z3};
      }
    }
    fq.batch_inv(cys);
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      steps_[i].c0 = fq.mul(steps_[i].c0, cys[i]);
      steps_[i].cx = fq.mul(steps_[i].cx, cys[i]);
    }
  }

  std::shared_ptr<const Ctx> ctx_;
  bool inf_;
  std::vector<Step> steps_;
};

// ---- presets ----------------------------------------------------------------

/// Canonical PBC "a.param": |q| = 512, |r| = 160 (production-strength).
std::shared_ptr<const PairingCtx<8, 3>> make_ss512();

/// Reproduction-sized preset generated for this repo: |q| = 255, |r| = 64
/// (fast; NOT cryptographically strong -- tests and statistics only).
std::shared_ptr<const PairingCtx<4, 1>> make_ss256();

/// High-margin preset generated for this repo: |q| = 1024, |r| = 256
/// (comparable to PBC's a1-class sizes).
std::shared_ptr<const PairingCtx<16, 4>> make_ss1024();

}  // namespace dlr::pairing
