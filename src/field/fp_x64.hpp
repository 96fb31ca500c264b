// 4-limb x86-64 Montgomery kernel for FpCtx<4> (private to src/field/).
//
// FpCtx<4> selects this kernel once, at construction, when all of these
// hold; everything else runs the generic CIOS in fp.hpp:
//   - the build is x86-64 with GCC or Clang (kAvailable);
//   - the modulus leaves its top bit free: q[3] < 2^63 - 2 (fits());
//   - the CPU reports BMI2 (MULX) and ADX (ADCX/ADOX) (cpu_has_bmi2_adx()).
//
// mont_mul is the "no-carry" CIOS of Botrel, Gutoski and Piellard ("Faster
// big-integer modular multiplication for most moduli", gnark, 2020): with
// q[3] < 2^63 - 2 the running sum never needs a fifth word beyond the one
// carried inside a row. Each row multiplies with MULX and adds on two
// independent carry chains, ADCX on CF and ADOX on OF (Ozturk, Guilford,
// Gopal and Feghali, "New Instructions Supporting Large Integer Arithmetic
// on Intel Architecture Processors", Intel, 2012). Every final correction is
// branch-free:
//   - mul and add: SUB/SBB of q, then CMOVC restores the minuend on borrow;
//   - sub: SUB/SBB, then q masked in by CMOVC on borrow and added back.
// Inputs must be reduced (< q), FpCtx's contract; a + b < 2q < 2^256 then,
// so add needs no carry word either. Values match the generic CIOS bit for
// bit, because both compute the same Montgomery product with R = 2^256.
#pragma once

#include <cstdint>

#include "mpint/uint.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define DLR_FIELD_X64 1
#else
#define DLR_FIELD_X64 0
#endif

namespace dlr::field::detail::x64 {

using mpint::UInt;

inline constexpr bool kAvailable = DLR_FIELD_X64 != 0;

/// The no-carry bound on the top limb; it also keeps a + b below 2^256.
[[nodiscard]] constexpr bool fits(const UInt<4>& q) {
  return q.limb[3] < 0x7ffffffffffffffeull;
}

#if DLR_FIELD_X64

/// CPUID leaf 7, sub-leaf 0: EBX bit 8 is BMI2, bit 19 is ADX. Read once,
/// on first use, so static-initialization order cannot leave it unset.
[[nodiscard]] inline bool cpu_has_bmi2_adx() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
    return (b & (1u << 8)) != 0 && (b & (1u << 19)) != 0;
  }();
  return has;
}

// The asm reads a, b and q through pointer registers. The "memory" clobber
// declares those reads; it also keeps the operand count low enough for -O0
// and sanitizer builds, which pin more registers.

// One row i >= 1 of the product: (t0..t3, c) = t + a * b[i]. Both carry
// chains are empty on entry (xor) and folded into c on exit.
#define DLR_X64_ROW(off)                \
  "movq " #off "(%[b]), %%rdx\n\t"      \
  "xorl %%eax, %%eax\n\t"               \
  "mulxq (%[a]), %%rax, %[c]\n\t"       \
  "adoxq %%rax, %[t0]\n\t"              \
  "adcxq %[c], %[t1]\n\t"               \
  "mulxq 8(%[a]), %%rax, %[c]\n\t"      \
  "adoxq %%rax, %[t1]\n\t"              \
  "adcxq %[c], %[t2]\n\t"               \
  "mulxq 16(%[a]), %%rax, %[c]\n\t"     \
  "adoxq %%rax, %[t2]\n\t"              \
  "adcxq %[c], %[t3]\n\t"               \
  "mulxq 24(%[a]), %%rax, %[c]\n\t"     \
  "adoxq %%rax, %[t3]\n\t"              \
  "movl $0, %%eax\n\t"                  \
  "adcxq %%rax, %[c]\n\t"               \
  "adoxq %%rax, %[c]\n\t"

// One reduction: m = t0 * n0inv, t = (t + m * q) / 2^64, with the row's
// fifth word c folded into the new t3 (no carry out: q[3] < 2^63 - 2).
// t0 + lo(m * q0) is 0 mod 2^64; only its carry enters the CF chain.
#define DLR_X64_REDUCE                  \
  "movq %[t0], %%rdx\n\t"               \
  "imulq %[n0], %%rdx\n\t"              \
  "xorl %%eax, %%eax\n\t"               \
  "mulxq (%[q]), %%rax, %[s]\n\t"       \
  "adcxq %[t0], %%rax\n\t"              \
  "movq %[s], %[t0]\n\t"                \
  "adcxq %[t1], %[t0]\n\t"              \
  "mulxq 8(%[q]), %%rax, %[t1]\n\t"     \
  "adoxq %%rax, %[t0]\n\t"              \
  "adcxq %[t2], %[t1]\n\t"              \
  "mulxq 16(%[q]), %%rax, %[t2]\n\t"    \
  "adoxq %%rax, %[t1]\n\t"              \
  "adcxq %[t3], %[t2]\n\t"              \
  "mulxq 24(%[q]), %%rax, %[t3]\n\t"    \
  "adoxq %%rax, %[t2]\n\t"              \
  "movl $0, %%eax\n\t"                  \
  "adcxq %%rax, %[t3]\n\t"              \
  "adoxq %[c], %[t3]\n\t"

/// a * b * 2^-256 mod q for a, b < q, q odd with fits(q); n0inv = -q^-1
/// mod 2^64.
[[nodiscard, gnu::always_inline]] inline UInt<4> mont_mul(const UInt<4>& a, const UInt<4>& b,
                                                           const UInt<4>& q, std::uint64_t n0inv) {
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, c = 0, s = 0;
  asm("movq (%[b]), %%rdx\n\t"  // row 0: t = a * b[0]
      "xorl %%eax, %%eax\n\t"
      "mulxq (%[a]), %[t0], %[t1]\n\t"
      "mulxq 8(%[a]), %%rax, %[t2]\n\t"
      "adoxq %%rax, %[t1]\n\t"
      "mulxq 16(%[a]), %%rax, %[t3]\n\t"
      "adoxq %%rax, %[t2]\n\t"
      "mulxq 24(%[a]), %%rax, %[c]\n\t"
      "adoxq %%rax, %[t3]\n\t"
      "movl $0, %%eax\n\t"
      "adoxq %%rax, %[c]\n\t"
      DLR_X64_REDUCE
      DLR_X64_ROW(8) DLR_X64_REDUCE
      DLR_X64_ROW(16) DLR_X64_REDUCE
      DLR_X64_ROW(24) DLR_X64_REDUCE
      // t < 2q: keep t - q unless it borrows.
      "movq %[t0], %%rax\n\t"
      "movq %[t1], %%rdx\n\t"
      "movq %[t2], %[s]\n\t"
      "movq %[t3], %[c]\n\t"
      "subq (%[q]), %[t0]\n\t"
      "sbbq 8(%[q]), %[t1]\n\t"
      "sbbq 16(%[q]), %[t2]\n\t"
      "sbbq 24(%[q]), %[t3]\n\t"
      "cmovcq %%rax, %[t0]\n\t"
      "cmovcq %%rdx, %[t1]\n\t"
      "cmovcq %[s], %[t2]\n\t"
      "cmovcq %[c], %[t3]\n\t"
      : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3), [c] "=&r"(c),
        [s] "=&r"(s)
      : [a] "r"(a.limb.data()), [b] "r"(b.limb.data()), [q] "r"(q.limb.data()),
        [n0] "m"(n0inv)
      : "rax", "rdx", "cc", "memory");
  UInt<4> r;
  r.limb = {t0, t1, t2, t3};
  return r;
}

#undef DLR_X64_ROW
#undef DLR_X64_REDUCE

/// a + b mod q for a, b < q with fits(q): the sum has no carry out, and the
/// reduced value is selected by CMOVC.
[[nodiscard, gnu::always_inline]] inline UInt<4> add(const UInt<4>& a, const UInt<4>& b,
                                                      const UInt<4>& q) {
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  asm("movq (%[a]), %[t0]\n\t"
      "movq 8(%[a]), %[t1]\n\t"
      "movq 16(%[a]), %[t2]\n\t"
      "movq 24(%[a]), %[t3]\n\t"
      "addq (%[b]), %[t0]\n\t"
      "adcq 8(%[b]), %[t1]\n\t"
      "adcq 16(%[b]), %[t2]\n\t"
      "adcq 24(%[b]), %[t3]\n\t"
      "movq %[t0], %[s0]\n\t"
      "movq %[t1], %[s1]\n\t"
      "movq %[t2], %[s2]\n\t"
      "movq %[t3], %[s3]\n\t"
      "subq (%[q]), %[t0]\n\t"
      "sbbq 8(%[q]), %[t1]\n\t"
      "sbbq 16(%[q]), %[t2]\n\t"
      "sbbq 24(%[q]), %[t3]\n\t"
      "cmovcq %[s0], %[t0]\n\t"
      "cmovcq %[s1], %[t1]\n\t"
      "cmovcq %[s2], %[t2]\n\t"
      "cmovcq %[s3], %[t3]\n\t"
      : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3), [s0] "=&r"(s0),
        [s1] "=&r"(s1), [s2] "=&r"(s2), [s3] "=&r"(s3)
      : [a] "r"(a.limb.data()), [b] "r"(b.limb.data()), [q] "r"(q.limb.data())
      : "cc", "memory");
  UInt<4> r;
  r.limb = {t0, t1, t2, t3};
  return r;
}

/// a - b mod q for a, b < q: q, masked to zero unless the difference
/// borrowed, is added back.
[[nodiscard, gnu::always_inline]] inline UInt<4> sub(const UInt<4>& a, const UInt<4>& b,
                                                      const UInt<4>& q) {
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  asm("movq (%[a]), %[t0]\n\t"
      "movq 8(%[a]), %[t1]\n\t"
      "movq 16(%[a]), %[t2]\n\t"
      "movq 24(%[a]), %[t3]\n\t"
      "subq (%[b]), %[t0]\n\t"
      "sbbq 8(%[b]), %[t1]\n\t"
      "sbbq 16(%[b]), %[t2]\n\t"
      "sbbq 24(%[b]), %[t3]\n\t"
      "movl $0, %k[s0]\n\t"  // mov leaves CF alone, unlike xor
      "movl $0, %k[s1]\n\t"
      "movl $0, %k[s2]\n\t"
      "movl $0, %k[s3]\n\t"
      "cmovcq (%[q]), %[s0]\n\t"
      "cmovcq 8(%[q]), %[s1]\n\t"
      "cmovcq 16(%[q]), %[s2]\n\t"
      "cmovcq 24(%[q]), %[s3]\n\t"
      "addq %[s0], %[t0]\n\t"
      "adcq %[s1], %[t1]\n\t"
      "adcq %[s2], %[t2]\n\t"
      "adcq %[s3], %[t3]\n\t"
      : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3), [s0] "=&r"(s0),
        [s1] "=&r"(s1), [s2] "=&r"(s2), [s3] "=&r"(s3)
      : [a] "r"(a.limb.data()), [b] "r"(b.limb.data()), [q] "r"(q.limb.data())
      : "cc", "memory");
  UInt<4> r;
  r.limb = {t0, t1, t2, t3};
  return r;
}

#else  // !DLR_FIELD_X64: never selected, so never called.

[[nodiscard]] inline bool cpu_has_bmi2_adx() { return false; }
UInt<4> mont_mul(const UInt<4>& a, const UInt<4>& b, const UInt<4>& q, std::uint64_t n0inv);
UInt<4> add(const UInt<4>& a, const UInt<4>& b, const UInt<4>& q);
UInt<4> sub(const UInt<4>& a, const UInt<4>& b, const UInt<4>& q);

#endif

/// The one selection rule: FpCtx<4> runs this kernel iff it returns true.
[[nodiscard]] inline bool selects(const UInt<4>& q) {
  return kAvailable && fits(q) && cpu_has_bmi2_adx();
}

}  // namespace dlr::field::detail::x64
