// Message-space adapters: the paper's secondary scheme Pi_ss and the HPSKE
// Pi_comm are the same algebraic construction instantiated over G or over GT
// ("a HPSKE for l, G, GT", Definition 5.1). These adapters let one template
// serve both element types.
#pragma once

#include "group/bilinear.hpp"
#include "group/multi_exp.hpp"

namespace dlr::schemes {

template <group::BilinearGroup GG>
struct SpaceG {
  using Elem = typename GG::G;
  static Elem random(const GG& gg, crypto::Rng& rng) { return gg.g_random(rng); }
  /// `n` fresh elements: the backend's batch sampler when it has one, else
  /// n random() calls (the same draws either way).
  static std::vector<Elem> random_many(const GG& gg, crypto::Rng& rng, std::size_t n) {
    if constexpr (group::NativeGRandomMany<GG>) {
      return gg.g_random_many(rng, n);
    } else {
      std::vector<Elem> out;
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i) out.push_back(gg.g_random(rng));
      return out;
    }
  }
  static Elem mul(const GG& gg, const Elem& a, const Elem& b) { return gg.g_mul(a, b); }
  static Elem inv(const GG& gg, const Elem& a) { return gg.g_inv(a); }
  static Elem pow(const GG& gg, const Elem& a, const typename GG::Scalar& s) {
    return gg.g_pow(a, s);
  }
  static Elem multi_pow(const GG& gg, std::span<const Elem> as,
                        std::span<const typename GG::Scalar> ss) {
    return gg.g_multi_pow(as, ss);
  }
  /// Shared-exponent seam: G has no recode-once native, so Prepared is just
  /// the scalar copy and multi_pow_prepared forwards to g_multi_pow.
  struct Prepared {
    std::vector<typename GG::Scalar> ss;
  };
  static Prepared prepare_multi_pow(const GG&, std::span<const typename GG::Scalar> ss) {
    return Prepared{{ss.begin(), ss.end()}};
  }
  static Elem multi_pow_prepared(const GG& gg, const Prepared& p,
                                 std::span<const Elem> as) {
    return gg.g_multi_pow(as, p.ss);
  }
  static Elem id(const GG& gg) { return gg.g_id(); }
  static bool eq(const GG& gg, const Elem& a, const Elem& b) { return gg.g_eq(a, b); }
  static void ser(const GG& gg, ByteWriter& w, const Elem& a) { gg.g_ser(w, a); }
  static Elem deser(const GG& gg, ByteReader& r) { return gg.g_deser(r); }
  static constexpr bool kBatchCodec = false;
  static std::size_t bytes(const GG& gg) { return gg.g_bytes(); }
};

template <group::BilinearGroup GG>
struct SpaceGT {
  using Elem = typename GG::GT;
  static Elem random(const GG& gg, crypto::Rng& rng) { return gg.gt_random(rng); }
  static std::vector<Elem> random_many(const GG& gg, crypto::Rng& rng, std::size_t n) {
    std::vector<Elem> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(gg.gt_random(rng));
    return out;
  }
  static Elem mul(const GG& gg, const Elem& a, const Elem& b) { return gg.gt_mul(a, b); }
  static Elem inv(const GG& gg, const Elem& a) { return gg.gt_inv(a); }
  static Elem pow(const GG& gg, const Elem& a, const typename GG::Scalar& s) {
    return gg.gt_pow(a, s);
  }
  static Elem multi_pow(const GG& gg, std::span<const Elem> as,
                        std::span<const typename GG::Scalar> ss) {
    return gg.gt_multi_pow(as, ss);
  }
  /// Shared-exponent seam: recodes ss once (native backends) so a batch of
  /// rows under one key pays a single wNAF recoding.
  using Prepared = group::PreparedGtPow<GG>;
  static Prepared prepare_multi_pow(const GG& gg, std::span<const typename GG::Scalar> ss) {
    return Prepared(gg, ss);
  }
  static Elem multi_pow_prepared(const GG& gg, const Prepared& p,
                                 std::span<const Elem> ts) {
    return p.pow(gg, ts);
  }
  static Elem id(const GG& gg) { return gg.gt_id(); }
  static bool eq(const GG& gg, const Elem& a, const Elem& b) { return gg.gt_eq(a, b); }
  static void ser(const GG& gg, ByteWriter& w, const Elem& a) { gg.gt_ser(w, a); }
  static Elem deser(const GG& gg, ByteReader& r) { return gg.gt_deser(r); }
  /// Whole-message codec (native backends only, see kBatchCodec): one call
  /// shares the backend's field inversion across every element.
  static constexpr bool kBatchCodec = group::NativeGtBatchCodec<GG>;
  static void ser_many(const GG& gg, ByteWriter& w, std::span<const Elem> ts) {
    gg.gt_ser_many(w, ts);
  }
  static std::vector<Elem> deser_many(const GG& gg, ByteReader& r, std::size_t n) {
    return gg.gt_deser_many(r, n);
  }
  static std::size_t bytes(const GG& gg) { return gg.gt_bytes(); }
};

}  // namespace dlr::schemes
