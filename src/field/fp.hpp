// Montgomery-form prime fields of fixed limb width.
//
// FpCtx<L> is a runtime context (modulus-dependent constants); field elements
// are plain UInt<L> values *in Montgomery form*. Keeping elements as raw
// UInts keeps the types trivially copyable/serializable; correctness of form
// is the caller's responsibility, which in this library is always a group or
// pairing context that owns the FpCtx.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "crypto/rng.hpp"
#include "field/fp_x64.hpp"
#include "mpint/uint.hpp"

namespace dlr::field {

using mpint::UInt;

namespace detail {

/// -m^{-1} mod 2^64 for odd m (Newton iteration over the 2-adics).
[[nodiscard]] constexpr std::uint64_t mont_n0inv(std::uint64_t m) {
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
  return ~inv + 1;  // negate
}

// The generic kernel: every FpCtx the x86-64 kernel (fp_x64.hpp) does not
// take runs these, and tests and F6 call them as its reference. They are
// forced inline into FpCtx's members so that an operation on the generic
// kernel costs at most one call, not two.

/// CIOS Montgomery multiplication: returns a*b*R^{-1} mod m, R = 2^(64L)
/// (Acar's Coarsely Integrated Operand Scanning).
template <std::size_t L>
[[nodiscard, gnu::always_inline]] inline UInt<L> mont_mul_cios(const UInt<L>& a,
                                                               const UInt<L>& b,
                                                               const UInt<L>& mod,
                                                               std::uint64_t n0inv) {
  std::uint64_t t[L + 2] = {0};
  for (std::size_t i = 0; i < L; ++i) {
    // t += a[i] * b
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < L; ++j) {
      const unsigned __int128 acc = static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] +
                                    t[j] + carry;
      t[j] = static_cast<std::uint64_t>(acc);
      carry = static_cast<std::uint64_t>(acc >> 64);
    }
    {
      const unsigned __int128 acc = static_cast<unsigned __int128>(t[L]) + carry;
      t[L] = static_cast<std::uint64_t>(acc);
      t[L + 1] = static_cast<std::uint64_t>(acc >> 64);
    }
    // Reduce one limb: t += m*mod, divide by 2^64.
    const std::uint64_t m = t[0] * n0inv;
    {
      const unsigned __int128 acc = static_cast<unsigned __int128>(m) * mod.limb[0] + t[0];
      carry = static_cast<std::uint64_t>(acc >> 64);  // low 64 bits are zero
    }
    for (std::size_t j = 1; j < L; ++j) {
      const unsigned __int128 acc = static_cast<unsigned __int128>(m) * mod.limb[j] +
                                    t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(acc);
      carry = static_cast<std::uint64_t>(acc >> 64);
    }
    {
      const unsigned __int128 acc = static_cast<unsigned __int128>(t[L]) + carry;
      t[L - 1] = static_cast<std::uint64_t>(acc);
      t[L] = t[L + 1] + static_cast<std::uint64_t>(acc >> 64);
    }
    t[L + 1] = 0;
  }
  UInt<L> r;
  for (std::size_t j = 0; j < L; ++j) r.limb[j] = t[j];
  if (t[L] != 0 || r >= mod) {
    UInt<L> s;
    mpint::sub(s, r, mod);
    return s;
  }
  return r;
}

/// a + b mod m for reduced a, b.
template <std::size_t L>
[[nodiscard, gnu::always_inline]] inline UInt<L> add_generic(const UInt<L>& a, const UInt<L>& b,
                                                             const UInt<L>& mod) {
  UInt<L> r;
  const std::uint64_t carry = mpint::add(r, a, b);
  if (carry != 0 || r >= mod) {
    UInt<L> t;
    mpint::sub(t, r, mod);
    return t;
  }
  return r;
}

/// a - b mod m for reduced a, b.
template <std::size_t L>
[[nodiscard, gnu::always_inline]] inline UInt<L> sub_generic(const UInt<L>& a, const UInt<L>& b,
                                                             const UInt<L>& mod) {
  UInt<L> r;
  if (mpint::sub(r, a, b) != 0) {
    UInt<L> t;
    mpint::add(t, r, mod);
    return t;
  }
  return r;
}

}  // namespace detail

/// Which Montgomery kernel an FpCtx runs; fixed at construction.
enum class FpKernel {
  Cios,      // detail::mont_mul_cios, add_generic, sub_generic: every L
  MulxAdx4,  // fp_x64.hpp: L == 4, q[3] < 2^63 - 2, x86-64 with BMI2 and ADX
};

template <std::size_t L>
class FpCtx {
 public:
  using E = UInt<L>;  // element, Montgomery form

  explicit FpCtx(const UInt<L>& modulus)
      : mod_(modulus), n0inv_(detail::mont_n0inv(modulus.limb[0])) {
    if (!modulus.is_odd() || modulus.bit_length() < 3)
      throw std::invalid_argument("FpCtx: modulus must be odd and > 4");
    if constexpr (kX64) {
      if (detail::x64::selects(mod_)) kernel_ = FpKernel::MulxAdx4;
    }

    // one_ = R mod m. 2^(64L) lives at bit 64L of a UInt<L+1>.
    UInt<L + 1> r{};
    r.limb[L] = 1;
    one_ = mpint::mod(r, mod_);
    // r2_ = R^2 mod m.
    r2_ = mpint::mod(mpint::mul_wide(one_, one_), mod_);
    two_inv_ = inv_(from_uint(UInt<L>::from_u64(2)));
  }

  [[nodiscard]] const UInt<L>& modulus() const { return mod_; }
  [[nodiscard]] std::size_t bits() const { return mod_.bit_length(); }

  [[nodiscard]] E zero() const { return E{}; }
  [[nodiscard]] E one() const { return one_; }
  [[nodiscard]] E two_inv() const { return two_inv_; }

  /// To Montgomery form. Decoders range-check and samplers draw below the
  /// modulus, so reduced input takes a single multiply by R^2; only
  /// unreduced input pays the division.
  [[nodiscard]] E from_uint(const UInt<L>& a) const {
    if (a < mod_) return mont_mul(a, r2_);
    return mont_mul(mpint::mod(mpint::resize<2 * L>(a), mod_), r2_);
  }

  [[nodiscard]] UInt<L> to_uint(const E& a) const {
    // Multiply by 1 (non-Montgomery) to divide out R.
    UInt<L> one_raw{};
    one_raw.limb[0] = 1;
    return mont_mul(a, one_raw);
  }

  /// The kernel add, sub and the Montgomery product run on.
  [[nodiscard]] FpKernel kernel() const { return kernel_; }

  [[nodiscard]] E add(const E& a, const E& b) const {
    if constexpr (kX64) {
      if (kernel_ == FpKernel::MulxAdx4) return detail::x64::add(a, b, mod_);
    }
    return detail::add_generic(a, b, mod_);
  }

  [[nodiscard]] E sub(const E& a, const E& b) const {
    if constexpr (kX64) {
      if (kernel_ == FpKernel::MulxAdx4) return detail::x64::sub(a, b, mod_);
    }
    return detail::sub_generic(a, b, mod_);
  }

  [[nodiscard]] E neg(const E& a) const { return sub(zero(), a); }

  [[nodiscard]] E dbl(const E& a) const { return add(a, a); }

  [[nodiscard]] E mul(const E& a, const E& b) const { return mont_mul(a, b); }
  [[nodiscard]] E sqr(const E& a) const { return mont_mul(a, a); }

  [[nodiscard]] bool is_zero(const E& a) const { return a.is_zero(); }
  [[nodiscard]] bool eq(const E& a, const E& b) const { return a == b; }

  template <std::size_t LE>
  [[nodiscard]] E pow(const E& a, const UInt<LE>& e) const {
    E result = one_;
    const std::size_t n = e.bit_length();
    for (std::size_t i = n; i-- > 0;) {
      result = sqr(result);
      if (e.bit(i)) result = mul(result, a);
    }
    return result;
  }

  /// Multiplicative inverse via Fermat (modulus is prime). Throws on zero.
  [[nodiscard]] E inv(const E& a) const {
    if (a.is_zero()) throw std::domain_error("FpCtx::inv: zero");
    return inv_(a);
  }

  /// Montgomery simultaneous inversion: replaces each xs[i] with xs[i]^{-1}
  /// using one Fermat inversion plus 3(n-1) multiplications. A Fermat
  /// inversion costs ~1.5*bits(p) multiplications, so sharing it across a
  /// batch is the enabler for batch-affine table normalization and the
  /// one-inversion-per-batch final exponentiation. Throws on any zero input.
  void batch_inv(std::span<E> xs) const {
    if (xs.empty()) return;
    // prefix[i] = xs[0] * ... * xs[i-1]
    std::vector<E> prefix(xs.size());
    E acc = one_;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (xs[i].is_zero()) throw std::domain_error("FpCtx::batch_inv: zero");
      prefix[i] = acc;
      acc = mul(acc, xs[i]);
    }
    E inv_acc = inv_(acc);  // (prod xs)^{-1}
    for (std::size_t i = xs.size(); i-- > 0;) {
      const E xi_inv = mul(inv_acc, prefix[i]);
      inv_acc = mul(inv_acc, xs[i]);
      xs[i] = xi_inv;
    }
  }

  /// Legendre symbol == 1 (a must be nonzero).
  [[nodiscard]] bool is_square(const E& a) const {
    const UInt<L> e = mpint::shr(mod_ - UInt<L>::from_u64(1), 1);  // (p-1)/2
    return eq(pow(a, e), one_);
  }

  /// Square root for p == 3 (mod 4): a^((p+1)/4). Returns nullopt if a is a
  /// non-residue. Zero maps to zero.
  [[nodiscard]] std::optional<E> sqrt(const E& a) const {
    if (a.is_zero()) return a;
    const E r = sqrt_or_neg(a);
    if (!eq(sqr(r), a)) return std::nullopt;
    return r;
  }

  /// a^((p+1)/4) for p == 3 (mod 4): a square root of a when a is a square,
  /// and of -a otherwise (-1 is a non-square, so exactly one of a, -a is a
  /// square). One exponentiation; the caller tells the cases apart by
  /// squaring the result.
  [[nodiscard]] E sqrt_or_neg(const E& a) const {
    if ((mod_.limb[0] & 3) != 3)
      throw std::logic_error("FpCtx::sqrt: only implemented for p == 3 mod 4");
    const UInt<L> e = mpint::shr(mod_ + UInt<L>::from_u64(1), 2);  // (p+1)/4
    return pow(a, e);
  }

  /// Uniform element of [0, p), already in Montgomery form.
  [[nodiscard]] E random(crypto::Rng& rng) const {
    return from_uint(random_uint(rng));
  }

  /// Uniform raw integer in [0, p) by rejection sampling.
  [[nodiscard]] UInt<L> random_uint(crypto::Rng& rng) const {
    const std::size_t nbits = mod_.bit_length();
    const std::size_t nbytes = (nbits + 7) / 8;
    for (;;) {
      Bytes b(8 * L, 0);
      rng.fill(std::span<std::uint8_t>(b.data(), nbytes));
      // Mask excess top bits to reduce rejection probability below 1/2.
      const std::size_t excess = 8 * nbytes - nbits;
      if (excess != 0) b[nbytes - 1] &= static_cast<std::uint8_t>(0xff >> excess);
      const auto v = UInt<L>::from_bytes(b);
      if (v < mod_) return v;
    }
  }

 private:
  // Whether this width can run the x86-64 kernel in this build at all.
  static constexpr bool kX64 = L == 4 && detail::x64::kAvailable;

  [[nodiscard]] E inv_(const E& a) const {
    const UInt<L> e = mod_ - UInt<L>::from_u64(2);
    return pow(a, e);
  }

  [[nodiscard]] E mont_mul(const E& a, const E& b) const {
    if constexpr (kX64) {
      if (kernel_ == FpKernel::MulxAdx4) return detail::x64::mont_mul(a, b, mod_, n0inv_);
    }
    return detail::mont_mul_cios(a, b, mod_, n0inv_);
  }

  UInt<L> mod_;
  std::uint64_t n0inv_ = 0;
  FpKernel kernel_ = FpKernel::Cios;
  E one_{};
  E r2_{};
  E two_inv_{};
};

}  // namespace dlr::field
