// The supersingular curve E: y^2 = x^3 + x over F_q (q == 3 mod 4), i.e. the
// PBC "type A" curve with a = 1, b = 0. #E(F_q) = q + 1, and the pairing
// group G is the order-r subgroup where r | q + 1.
//
// Points are kept in affine coordinates at API boundaries (they serialize and
// compare cheaply) and in Jacobian coordinates inside scalar multiplication.
#pragma once

#include <span>
#include <vector>

#include "field/fp.hpp"

namespace dlr::ec {

using mpint::UInt;

/// Affine point; (x, y) in Montgomery form, or the point at infinity.
template <std::size_t L>
struct AffinePoint {
  UInt<L> x{};
  UInt<L> y{};
  bool inf = true;
  bool operator==(const AffinePoint&) const = default;
};

/// Jacobian point (X : Y : Z), x = X/Z^2, y = Y/Z^3; Z == 0 encodes infinity.
template <std::size_t L>
struct JacPoint {
  UInt<L> X{};
  UInt<L> Y{};
  UInt<L> Z{};
};

template <std::size_t L>
class CurveCtx {
 public:
  using Fp = field::FpCtx<L>;
  using A = AffinePoint<L>;
  using J = JacPoint<L>;

  explicit CurveCtx(const Fp& fp) : fp_(fp) {}

  [[nodiscard]] const Fp& fp() const { return fp_; }

  [[nodiscard]] A infinity() const { return A{}; }

  [[nodiscard]] bool is_on_curve(const A& p) const {
    if (p.inf) return true;
    // y^2 == x^3 + x
    const auto lhs = fp_.sqr(p.y);
    const auto rhs = fp_.add(fp_.mul(fp_.sqr(p.x), p.x), p.x);
    return fp_.eq(lhs, rhs);
  }

  [[nodiscard]] J to_jac(const A& p) const {
    if (p.inf) return J{fp_.one(), fp_.one(), fp_.zero()};
    return J{p.x, p.y, fp_.one()};
  }

  [[nodiscard]] A to_affine(const J& p) const {
    if (fp_.is_zero(p.Z)) return A{};
    const auto zinv = fp_.inv(p.Z);
    const auto zinv2 = fp_.sqr(zinv);
    return A{fp_.mul(p.X, zinv2), fp_.mul(p.Y, fp_.mul(zinv2, zinv)), false};
  }

  [[nodiscard]] J dbl(const J& p) const {
    if (fp_.is_zero(p.Z) || fp_.is_zero(p.Y)) return J{fp_.one(), fp_.one(), fp_.zero()};
    const auto y2 = fp_.sqr(p.Y);
    const auto s = fp_.dbl(fp_.dbl(fp_.mul(p.X, y2)));            // 4XY^2
    const auto z2 = fp_.sqr(p.Z);
    const auto x2 = fp_.sqr(p.X);
    const auto m = fp_.add(fp_.add(fp_.dbl(x2), x2),  // 3X^2 + Z^4 (a = 1), 3X^2 by adds
                           fp_.sqr(z2));
    const auto x3 = fp_.sub(fp_.sqr(m), fp_.dbl(s));
    const auto y4 = fp_.sqr(y2);
    const auto y3 = fp_.sub(fp_.mul(m, fp_.sub(s, x3)), fp_.dbl(fp_.dbl(fp_.dbl(y4))));
    const auto z3 = fp_.dbl(fp_.mul(p.Y, p.Z));
    return J{x3, y3, z3};
  }

  [[nodiscard]] J add(const J& p, const J& q) const {
    if (fp_.is_zero(p.Z)) return q;
    if (fp_.is_zero(q.Z)) return p;
    const auto z1z1 = fp_.sqr(p.Z);
    const auto z2z2 = fp_.sqr(q.Z);
    const auto u1 = fp_.mul(p.X, z2z2);
    const auto u2 = fp_.mul(q.X, z1z1);
    const auto s1 = fp_.mul(p.Y, fp_.mul(z2z2, q.Z));
    const auto s2 = fp_.mul(q.Y, fp_.mul(z1z1, p.Z));
    const auto h = fp_.sub(u2, u1);
    const auto r = fp_.sub(s2, s1);
    if (fp_.is_zero(h)) {
      if (fp_.is_zero(r)) return dbl(p);
      return J{fp_.one(), fp_.one(), fp_.zero()};
    }
    const auto h2 = fp_.sqr(h);
    const auto h3 = fp_.mul(h2, h);
    const auto u1h2 = fp_.mul(u1, h2);
    const auto x3 = fp_.sub(fp_.sub(fp_.sqr(r), h3), fp_.dbl(u1h2));
    const auto y3 = fp_.sub(fp_.mul(r, fp_.sub(u1h2, x3)), fp_.mul(s1, h3));
    const auto z3 = fp_.mul(fp_.mul(p.Z, q.Z), h);
    return J{x3, y3, z3};
  }

  /// Mixed Jacobian + affine addition (q.Z == 1 implicitly): 8M + 3S vs
  /// 12M + 4S for the general add. The payoff of keeping precomputation
  /// tables in affine coordinates.
  [[nodiscard]] J add_mixed(const J& p, const A& q) const {
    if (q.inf) return p;
    if (fp_.is_zero(p.Z)) return to_jac(q);
    const auto z1z1 = fp_.sqr(p.Z);
    const auto u2 = fp_.mul(q.x, z1z1);
    const auto s2 = fp_.mul(q.y, fp_.mul(z1z1, p.Z));
    const auto h = fp_.sub(u2, p.X);
    const auto r = fp_.sub(s2, p.Y);
    if (fp_.is_zero(h)) {
      if (fp_.is_zero(r)) return dbl(p);
      return J{fp_.one(), fp_.one(), fp_.zero()};
    }
    const auto h2 = fp_.sqr(h);
    const auto h3 = fp_.mul(h2, h);
    const auto v = fp_.mul(p.X, h2);
    const auto x3 = fp_.sub(fp_.sub(fp_.sqr(r), h3), fp_.dbl(v));
    const auto y3 = fp_.sub(fp_.mul(r, fp_.sub(v, x3)), fp_.mul(p.Y, h3));
    const auto z3 = fp_.mul(p.Z, h);
    return J{x3, y3, z3};
  }

  /// Normalize a batch of Jacobian points with ONE field inversion
  /// (Montgomery's simultaneous-inversion trick) instead of one per point.
  /// Infinity entries pass through.
  [[nodiscard]] std::vector<A> batch_to_affine(std::span<const J> ps) const {
    std::vector<A> out(ps.size());
    std::vector<UInt<L>> zs;
    std::vector<std::size_t> idx;
    zs.reserve(ps.size());
    idx.reserve(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      if (fp_.is_zero(ps[i].Z)) continue;  // out[i] stays infinity
      zs.push_back(ps[i].Z);
      idx.push_back(i);
    }
    fp_.batch_inv(zs);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      const auto& p = ps[idx[j]];
      const auto zinv2 = fp_.sqr(zs[j]);
      out[idx[j]] = A{fp_.mul(p.X, zinv2), fp_.mul(p.Y, fp_.mul(zinv2, zs[j])), false};
    }
    return out;
  }

  [[nodiscard]] A add(const A& p, const A& q) const {
    return to_affine(add(to_jac(p), to_jac(q)));
  }

  [[nodiscard]] A neg(const A& p) const {
    if (p.inf) return p;
    return A{p.x, fp_.neg(p.y), false};
  }

  template <std::size_t LE>
  [[nodiscard]] A mul(const A& p, const UInt<LE>& k) const {
    return mul_wnaf(p, k);
  }

  /// Plain MSB-first double-and-add (reference implementation; wNAF is
  /// differentially tested against it).
  template <std::size_t LE>
  [[nodiscard]] A mul_binary(const A& p, const UInt<LE>& k) const {
    J acc{fp_.one(), fp_.one(), fp_.zero()};
    const J base = to_jac(p);
    const std::size_t n = k.bit_length();
    for (std::size_t i = n; i-- > 0;) {
      acc = dbl(acc);
      if (k.bit(i)) acc = add(acc, base);
    }
    return to_affine(acc);
  }

  /// Width-4 wNAF scalar multiplication: ~b doublings + b/5 additions using
  /// 8 precomputed odd multiples (vs b/2 additions for binary).
  template <std::size_t LE>
  [[nodiscard]] A mul_wnaf(const A& p, const UInt<LE>& k) const {
    if (p.inf || k.is_zero()) return A{};
    constexpr int kW = 4;
    const auto naf = wnaf_digits(k, kW);
    // Precompute the odd multiples P, 3P, 5P, 7P (negatives come free).
    std::array<J, 4> odd;
    odd[0] = to_jac(p);
    const J twop = dbl(odd[0]);
    for (int i = 1; i < 4; ++i) odd[i] = add(odd[i - 1], twop);
    J acc{fp_.one(), fp_.one(), fp_.zero()};
    for (std::size_t i = naf.size(); i-- > 0;) {
      acc = dbl(acc);
      const int d = naf[i];
      if (d > 0) acc = add(acc, odd[(d - 1) / 2]);
      if (d < 0) acc = add(acc, neg_jac(odd[(-d - 1) / 2]));
    }
    return to_affine(acc);
  }

  /// Interleaved multi-scalar multiplication (Strauss): computes
  /// sum_i [k_i] P_i with one shared doubling chain -- the workhorse of the
  /// prod a_i^{s_i} masks in Pi_ss / HPSKE.
  ///
  /// Per-base width-3 wNAF (digits +-1, +-3) halves the addition count of the
  /// binary interleaving; the odd-multiple tables live in affine coordinates
  /// (the 3P entries are normalized together with ONE batch inversion), so
  /// every table addition is a cheap mixed add.
  template <std::size_t LE>
  [[nodiscard]] A multi_mul(std::span<const A> points, std::span<const UInt<LE>> ks) const {
    if (points.size() != ks.size())
      throw std::invalid_argument("CurveCtx::multi_mul: size mismatch");
    std::vector<std::vector<int>> nafs;
    std::vector<const A*> act;
    std::size_t nmax = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].inf || ks[i].is_zero()) continue;
      nafs.push_back(mpint::wnaf_digits(ks[i], 3));
      act.push_back(&points[i]);
      nmax = std::max(nmax, nafs.back().size());
    }
    if (act.empty()) return A{};
    std::vector<J> threes;
    threes.reserve(act.size());
    for (const A* p : act) threes.push_back(add_mixed(dbl(to_jac(*p)), *p));
    const auto threes_aff = batch_to_affine(threes);
    J acc{fp_.one(), fp_.one(), fp_.zero()};
    for (std::size_t i = nmax; i-- > 0;) {
      acc = dbl(acc);
      for (std::size_t j = 0; j < act.size(); ++j) {
        if (i >= nafs[j].size()) continue;
        const int d = nafs[j][i];
        if (d == 0) continue;
        const A& t = (d == 1 || d == -1) ? *act[j] : threes_aff[j];
        acc = add_mixed(acc, d > 0 ? t : neg(t));
      }
    }
    return to_affine(acc);
  }

  /// Reference binary interleaving (the pre-fast-lane multi_mul); kept for
  /// differential tests against the wNAF/mixed-add path above.
  template <std::size_t LE>
  [[nodiscard]] A multi_mul_binary(std::span<const A> points,
                                   std::span<const UInt<LE>> ks) const {
    if (points.size() != ks.size())
      throw std::invalid_argument("CurveCtx::multi_mul: size mismatch");
    std::size_t nbits = 0;
    for (const auto& k : ks) nbits = std::max(nbits, k.bit_length());
    std::vector<J> bases;
    bases.reserve(points.size());
    for (const auto& p : points) bases.push_back(to_jac(p));
    J acc{fp_.one(), fp_.one(), fp_.zero()};
    for (std::size_t i = nbits; i-- > 0;) {
      acc = dbl(acc);
      for (std::size_t j = 0; j < bases.size(); ++j)
        if (ks[j].bit(i)) acc = add(acc, bases[j]);
    }
    return to_affine(acc);
  }

  /// Lift an x-coordinate (Montgomery form) to a point if x^3 + x is square.
  [[nodiscard]] std::optional<A> lift_x(const UInt<L>& x, bool y_sign) const {
    const auto rhs = fp_.add(fp_.mul(fp_.sqr(x), x), x);
    const auto y = fp_.sqrt(rhs);
    if (!y) return std::nullopt;
    auto yy = *y;
    // Canonical sign: choose the root whose raw integer form is even, then
    // flip if y_sign requests the other one.
    const bool canonical_odd = fp_.to_uint(yy).is_odd();
    if (canonical_odd != y_sign) yy = fp_.neg(yy);
    return A{x, yy, false};
  }

  /// The point over x, or over -x when x^3 + x is a non-square, for one
  /// square root. f(-x) = -f(x) and -1 is a non-square mod q == 3 (mod 4),
  /// so exactly one of x, -x lifts (x = 0 lifts to (0, 0)), and
  /// f(x)^((q+1)/4) is a root of whichever of f(x), f(-x) is the square.
  /// The sign rule is lift_x's, so the result equals lift_x(x, y_sign) when
  /// that succeeds and lift_x(-x, y_sign) otherwise.
  [[nodiscard]] A lift_x_or_neg(const UInt<L>& x, bool y_sign) const {
    const auto rhs = fp_.add(fp_.mul(fp_.sqr(x), x), x);
    auto y = fp_.sqrt_or_neg(rhs);
    const bool lifts = fp_.eq(fp_.sqr(y), rhs);
    if (fp_.to_uint(y).is_odd() != y_sign) y = fp_.neg(y);
    return A{lifts ? x : fp_.neg(x), y, false};
  }

  [[nodiscard]] J neg_jac(const J& p) const { return J{p.X, fp_.neg(p.Y), p.Z}; }

  /// Non-adjacent form with window w (lives in mpint::wnaf_digits now; alias
  /// kept for existing call sites and tests).
  template <std::size_t LE>
  static std::vector<int> wnaf_digits(const UInt<LE>& k, int w) {
    return mpint::wnaf_digits(k, w);
  }

 private:
  Fp fp_;
};

}  // namespace dlr::ec
