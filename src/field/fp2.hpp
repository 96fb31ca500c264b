// Quadratic extension F_{p^2} = F_p[i]/(i^2 + 1), valid when p == 3 (mod 4).
// This is the target-field arithmetic for the type-A Tate pairing: GT is the
// order-r subgroup of F_{p^2}^*.
#pragma once

#include <array>

#include "field/fp.hpp"

namespace dlr::field {

template <std::size_t L>
struct Fp2E {
  UInt<L> a{};  // real part (Montgomery form)
  UInt<L> b{};  // imaginary part (Montgomery form)
  bool operator==(const Fp2E&) const = default;
};

template <std::size_t L>
class Fp2Ctx {
 public:
  using E = Fp2E<L>;
  using Base = FpCtx<L>;

  explicit Fp2Ctx(const Base& base) : fp_(base) {
    if ((fp_.modulus().limb[0] & 3) != 3)
      throw std::invalid_argument("Fp2Ctx: need p == 3 mod 4 for i^2 = -1");
  }

  [[nodiscard]] const Base& base() const { return fp_; }

  [[nodiscard]] E zero() const { return {}; }
  [[nodiscard]] E one() const { return {fp_.one(), {}}; }
  [[nodiscard]] E from_base(const UInt<L>& re) const { return {re, {}}; }
  [[nodiscard]] E make(const UInt<L>& re, const UInt<L>& im) const { return {re, im}; }

  [[nodiscard]] bool is_zero(const E& x) const { return x.a.is_zero() && x.b.is_zero(); }
  [[nodiscard]] bool eq(const E& x, const E& y) const { return x == y; }

  [[nodiscard]] E add(const E& x, const E& y) const {
    return {fp_.add(x.a, y.a), fp_.add(x.b, y.b)};
  }
  [[nodiscard]] E sub(const E& x, const E& y) const {
    return {fp_.sub(x.a, y.a), fp_.sub(x.b, y.b)};
  }
  [[nodiscard]] E neg(const E& x) const { return {fp_.neg(x.a), fp_.neg(x.b)}; }

  [[nodiscard]] E mul(const E& x, const E& y) const {
    // Karatsuba: ac, bd, (a+b)(c+d).
    const auto ac = fp_.mul(x.a, y.a);
    const auto bd = fp_.mul(x.b, y.b);
    const auto cross = fp_.mul(fp_.add(x.a, x.b), fp_.add(y.a, y.b));
    return {fp_.sub(ac, bd), fp_.sub(cross, fp_.add(ac, bd))};
  }

  [[nodiscard]] E sqr(const E& x) const {
    // (a+bi)^2 = (a+b)(a-b) + 2ab i
    const auto t1 = fp_.mul(fp_.add(x.a, x.b), fp_.sub(x.a, x.b));
    const auto t2 = fp_.mul(x.a, x.b);
    return {t1, fp_.dbl(t2)};
  }

  [[nodiscard]] E conj(const E& x) const { return {x.a, fp_.neg(x.b)}; }

  /// Norm to the base field: a^2 + b^2.
  [[nodiscard]] UInt<L> norm(const E& x) const {
    return fp_.add(fp_.sqr(x.a), fp_.sqr(x.b));
  }

  /// Whether x lies on the norm-1 circle a^2 + b^2 = 1 (every element of the
  /// order-r pairing target group GT does: r | q+1 divides the norm-1
  /// subgroup order).
  [[nodiscard]] bool is_norm_one(const E& x) const { return fp_.eq(norm(x), fp_.one()); }

  [[nodiscard]] E inv(const E& x) const {
    const auto n = norm(x);
    const auto ninv = fp_.inv(n);  // throws on zero
    return {fp_.mul(x.a, ninv), fp_.neg(fp_.mul(x.b, ninv))};
  }

  /// Frobenius x^p == conj(x) for p == 3 mod 4.
  [[nodiscard]] E frobenius(const E& x) const { return conj(x); }

  template <std::size_t LE>
  [[nodiscard]] E pow(const E& x, const UInt<LE>& e) const {
    E result = one();
    const std::size_t n = e.bit_length();
    for (std::size_t i = n; i-- > 0;) {
      result = sqr(result);
      if (e.bit(i)) result = mul(result, x);
    }
    return result;
  }

  // ---- norm-1 fast lane -------------------------------------------------------
  // For x with a^2 + b^2 = 1 (the unit circle containing GT) two identities
  // buy cheaper arithmetic:
  //   * x^{-1} = conj(x)                       (inversion is free)
  //   * x^2 = (2a^2 - 1) + (2ab) i             (1 sqr + 1 mul vs 2 muls)
  // Callers must guarantee the precondition; outputs stay on the circle.

  /// Squaring on the norm-1 circle: (2a^2 - 1, 2ab).
  [[nodiscard]] E sqr_norm1(const E& x) const {
    return {fp_.sub(fp_.dbl(fp_.sqr(x.a)), fp_.one()), fp_.dbl(fp_.mul(x.a, x.b))};
  }

  /// Signed-window (wNAF) exponentiation on the norm-1 circle: free inversion
  /// makes negative digits cost nothing extra, cutting the per-bit
  /// multiplication count to ~1/(w+1); squarings use sqr_norm1.
  template <std::size_t LE>
  [[nodiscard]] E pow_norm1(const E& x, const UInt<LE>& e) const {
    if (e.is_zero()) return one();
    constexpr int kW = 5;
    const auto naf = mpint::wnaf_digits(e, kW);
    // Odd powers x^1, x^3, ..., x^31.
    std::array<E, 16> tbl;
    tbl[0] = x;
    const E x2 = sqr_norm1(x);
    for (std::size_t i = 1; i < tbl.size(); ++i) tbl[i] = mul(tbl[i - 1], x2);
    E acc = one();
    for (std::size_t i = naf.size(); i-- > 0;) {
      acc = sqr_norm1(acc);
      const int d = naf[i];
      if (d > 0) acc = mul(acc, tbl[static_cast<std::size_t>(d - 1) / 2]);
      if (d < 0) acc = mul(acc, conj(tbl[static_cast<std::size_t>(-d - 1) / 2]));
    }
    return acc;
  }

  /// Uniform nonzero element of F_{p^2}^*.
  [[nodiscard]] E random_nonzero(crypto::Rng& rng) const {
    for (;;) {
      const E x{fp_.random(rng), fp_.random(rng)};
      if (!is_zero(x)) return x;
    }
  }

 private:
  Base fp_;
};

}  // namespace dlr::field
