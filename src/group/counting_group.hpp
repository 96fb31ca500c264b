// A BilinearGroup decorator that counts group operations.
//
// Used by the T1 efficiency experiment (footnote 3 of the paper compares
// schemes by exponentiation/pairing counts and ciphertext sizes) and by the
// F2 experiment (demonstrating that device P2's operation profile contains
// only exponentiations and multiplications -- "simplicity of one of the two
// devices", Section 1.1).
//
// Copies share the counter block, so handing a CountingGroup<GG> to a party
// and reading the counts afterwards Just Works.
//
// Every operation is also published live into the global telemetry registry
// under per-backend labels ("group.exp{backend=ss512}", ...), so a protocol
// run leaves its group-op profile queryable/exportable without the caller
// threading OpCounts around. Handles are resolved once per CountingGroup and
// the increments are relaxed atomics; with DLR_TELEMETRY=OFF they vanish.
#pragma once

#include <memory>
#include <vector>

#include "group/bilinear.hpp"
#include "group/prepared.hpp"
#include "telemetry/metrics.hpp"

namespace dlr::group {

struct OpCounts {
  std::size_t g_mul = 0;
  std::size_t g_pow = 0;
  std::size_t g_inv = 0;
  std::size_t gt_mul = 0;
  std::size_t gt_pow = 0;
  std::size_t gt_inv = 0;
  std::size_t pairings = 0;
  std::size_t multi_pows = 0;       // calls to g/gt_multi_pow
  std::size_t multi_pow_terms = 0;  // total bases across those calls
  std::size_t g_random = 0;
  std::size_t gt_random = 0;
  std::size_t sc_random = 0;
  std::size_t hash_to_g = 0;

  [[nodiscard]] std::size_t exps() const { return g_pow + gt_pow; }
  [[nodiscard]] std::size_t muls() const { return g_mul + gt_mul; }

  void reset() { *this = OpCounts{}; }

  OpCounts operator-(const OpCounts& o) const {
    OpCounts r;
    r.g_mul = g_mul - o.g_mul;
    r.g_pow = g_pow - o.g_pow;
    r.g_inv = g_inv - o.g_inv;
    r.gt_mul = gt_mul - o.gt_mul;
    r.gt_pow = gt_pow - o.gt_pow;
    r.gt_inv = gt_inv - o.gt_inv;
    r.pairings = pairings - o.pairings;
    r.multi_pows = multi_pows - o.multi_pows;
    r.multi_pow_terms = multi_pow_terms - o.multi_pow_terms;
    r.g_random = g_random - o.g_random;
    r.gt_random = gt_random - o.gt_random;
    r.sc_random = sc_random - o.sc_random;
    r.hash_to_g = hash_to_g - o.hash_to_g;
    return r;
  }
};

template <BilinearGroup GG>
class CountingGroup {
 public:
  using Scalar = typename GG::Scalar;
  using G = typename GG::G;
  using GT = typename GG::GT;

  explicit CountingGroup(GG inner)
      : inner_(std::move(inner)), counts_(std::make_shared<OpCounts>()) {
    const telemetry::Labels backend{{"backend", inner_.name()}};
    auto& reg = telemetry::Registry::global();
    tm_exp_ = &reg.counter("group.exp", backend);
    tm_mul_ = &reg.counter("group.mul", backend);
    tm_inv_ = &reg.counter("group.inv", backend);
    tm_pairing_ = &reg.counter("group.pairing", backend);
    tm_multi_pow_ = &reg.counter("group.multi_pow", backend);
    tm_multi_pow_terms_ = &reg.counter("group.multi_pow_terms", backend);
    tm_random_ = &reg.counter("group.random", backend);
    tm_hash_ = &reg.counter("group.hash_to_g", backend);
  }

  [[nodiscard]] const OpCounts& counts() const { return *counts_; }
  [[nodiscard]] OpCounts snapshot() const { return *counts_; }
  void reset_counts() { counts_->reset(); }
  [[nodiscard]] const GG& inner() const { return inner_; }

  [[nodiscard]] std::size_t scalar_bits() const { return inner_.scalar_bits(); }
  [[nodiscard]] Scalar sc_random(crypto::Rng& rng) const {
    ++counts_->sc_random;
    tm_random_->add();
    return inner_.sc_random(rng);
  }
  [[nodiscard]] Scalar sc_from_u64(std::uint64_t v) const { return inner_.sc_from_u64(v); }
  [[nodiscard]] Scalar sc_add(const Scalar& a, const Scalar& b) const {
    return inner_.sc_add(a, b);
  }
  [[nodiscard]] Scalar sc_sub(const Scalar& a, const Scalar& b) const {
    return inner_.sc_sub(a, b);
  }
  [[nodiscard]] Scalar sc_mul(const Scalar& a, const Scalar& b) const {
    return inner_.sc_mul(a, b);
  }
  [[nodiscard]] Scalar sc_neg(const Scalar& a) const { return inner_.sc_neg(a); }
  [[nodiscard]] Scalar sc_inv(const Scalar& a) const { return inner_.sc_inv(a); }
  [[nodiscard]] bool sc_eq(const Scalar& a, const Scalar& b) const { return inner_.sc_eq(a, b); }
  [[nodiscard]] bool sc_is_zero(const Scalar& a) const { return inner_.sc_is_zero(a); }

  [[nodiscard]] G g_gen() const { return inner_.g_gen(); }
  [[nodiscard]] G g_id() const { return inner_.g_id(); }
  [[nodiscard]] G g_random(crypto::Rng& rng) const {
    ++counts_->g_random;
    tm_random_->add();
    return inner_.g_random(rng);
  }
  /// Batch sampler forward: n elements count as n g_random calls.
  [[nodiscard]] std::vector<G> g_random_many(crypto::Rng& rng, std::size_t n) const
    requires NativeGRandomMany<GG>
  {
    counts_->g_random += n;
    tm_random_->add(n);
    return inner_.g_random_many(rng, n);
  }
  [[nodiscard]] G g_mul(const G& a, const G& b) const {
    ++counts_->g_mul;
    tm_mul_->add();
    return inner_.g_mul(a, b);
  }
  [[nodiscard]] G g_inv(const G& a) const {
    ++counts_->g_inv;
    tm_inv_->add();
    return inner_.g_inv(a);
  }
  [[nodiscard]] G g_pow(const G& a, const Scalar& s) const {
    ++counts_->g_pow;
    tm_exp_->add();
    return inner_.g_pow(a, s);
  }
  [[nodiscard]] bool g_eq(const G& a, const G& b) const { return inner_.g_eq(a, b); }
  [[nodiscard]] bool g_is_id(const G& a) const { return inner_.g_is_id(a); }
  [[nodiscard]] G hash_to_g(const Bytes& d) const {
    ++counts_->hash_to_g;
    tm_hash_->add();
    return inner_.hash_to_g(d);
  }
  [[nodiscard]] G g_multi_pow(std::span<const G> as, std::span<const Scalar> ss) const {
    ++counts_->multi_pows;
    counts_->multi_pow_terms += as.size();
    tm_multi_pow_->add();
    tm_multi_pow_terms_->add(as.size());
    return inner_.g_multi_pow(as, ss);
  }

  [[nodiscard]] GT gt_gen() const { return inner_.gt_gen(); }
  [[nodiscard]] GT gt_id() const { return inner_.gt_id(); }
  [[nodiscard]] GT gt_random(crypto::Rng& rng) const {
    ++counts_->gt_random;
    tm_random_->add();
    return inner_.gt_random(rng);
  }
  [[nodiscard]] GT gt_mul(const GT& a, const GT& b) const {
    ++counts_->gt_mul;
    tm_mul_->add();
    return inner_.gt_mul(a, b);
  }
  [[nodiscard]] GT gt_inv(const GT& a) const {
    ++counts_->gt_inv;
    tm_inv_->add();
    return inner_.gt_inv(a);
  }
  [[nodiscard]] GT gt_pow(const GT& a, const Scalar& s) const {
    ++counts_->gt_pow;
    tm_exp_->add();
    return inner_.gt_pow(a, s);
  }
  [[nodiscard]] bool gt_eq(const GT& a, const GT& b) const { return inner_.gt_eq(a, b); }
  [[nodiscard]] bool gt_is_id(const GT& a) const { return inner_.gt_is_id(a); }
  [[nodiscard]] GT gt_multi_pow(std::span<const GT> ts, std::span<const Scalar> ss) const {
    ++counts_->multi_pows;
    counts_->multi_pow_terms += ts.size();
    tm_multi_pow_->add();
    tm_multi_pow_terms_->add(ts.size());
    return inner_.gt_multi_pow(ts, ss);
  }

  [[nodiscard]] GT pair(const G& a, const G& b) const {
    ++counts_->pairings;
    tm_pairing_->add();
    return inner_.pair(a, b);
  }

  // ---- fast-lane native forwards (present iff the inner backend has them) ----

  /// Counting view of a native prepared pairing: every evaluation still
  /// counts as a pairing (it is one, semantically), so the T1/F2 op profiles
  /// stay meaningful when schemes route through the fast lane.
  template <class Inner>
  class Prepared {
   public:
    Prepared(Inner inner, std::shared_ptr<OpCounts> counts, telemetry::Counter* tm)
        : inner_(std::move(inner)), counts_(std::move(counts)), tm_pairing_(tm) {}
    [[nodiscard]] GT pair(const G& b) const {
      ++counts_->pairings;
      tm_pairing_->add();
      return inner_.pair(b);
    }
    [[nodiscard]] std::vector<GT> pair_many(std::span<const G> bs) const {
      counts_->pairings += bs.size();
      tm_pairing_->add(bs.size());
      return inner_.pair_many(bs);
    }

   private:
    Inner inner_;
    std::shared_ptr<OpCounts> counts_;
    telemetry::Counter* tm_pairing_;
  };

  [[nodiscard]] auto prepare_pair(const G& a) const
    requires NativePreparedPairing<GG>
  {
    return Prepared<decltype(inner_.prepare_pair(a))>(inner_.prepare_pair(a), counts_,
                                                      tm_pairing_);
  }

  /// Counting view of a native shared-exponent multi-pow: each pow() still
  /// counts as one multi_pow over ts.size() terms (it is one, semantically),
  /// so op profiles are identical whether a batch shares the recoding or not.
  template <class Inner>
  class PreparedMultiPow {
   public:
    PreparedMultiPow(Inner inner, std::shared_ptr<OpCounts> counts,
                     telemetry::Counter* tm, telemetry::Counter* tm_terms)
        : inner_(std::move(inner)),
          counts_(std::move(counts)),
          tm_multi_pow_(tm),
          tm_multi_pow_terms_(tm_terms) {}
    [[nodiscard]] GT pow(std::span<const GT> ts) const {
      ++counts_->multi_pows;
      counts_->multi_pow_terms += ts.size();
      tm_multi_pow_->add();
      tm_multi_pow_terms_->add(ts.size());
      return inner_.pow(ts);
    }

   private:
    Inner inner_;
    std::shared_ptr<OpCounts> counts_;
    telemetry::Counter* tm_multi_pow_;
    telemetry::Counter* tm_multi_pow_terms_;
  };

  [[nodiscard]] auto prepare_gt_multi_pow(std::span<const Scalar> ss) const
    requires requires(const GG& g, std::span<const Scalar> s) { g.prepare_gt_multi_pow(s); }
  {
    return PreparedMultiPow<decltype(inner_.prepare_gt_multi_pow(ss))>(
        inner_.prepare_gt_multi_pow(ss), counts_, tm_multi_pow_, tm_multi_pow_terms_);
  }

  [[nodiscard]] G g_prod(std::span<const G> as) const
    requires requires(const GG& g, std::span<const G> s) { g.g_prod(s); }
  {
    counts_->g_mul += as.size();
    tm_mul_->add(as.size());
    return inner_.g_prod(as);
  }

  [[nodiscard]] std::vector<G> g_comb_table(const G& base, std::size_t windows) const
    requires requires(const GG& g, const G& b, std::size_t w) { g.g_comb_table(b, w); }
  {
    counts_->g_mul += 15 * windows;
    tm_mul_->add(15 * windows);
    return inner_.g_comb_table(base, windows);
  }

  [[nodiscard]] std::size_t sc_bytes() const { return inner_.sc_bytes(); }
  [[nodiscard]] std::size_t g_bytes() const { return inner_.g_bytes(); }
  [[nodiscard]] std::size_t gt_bytes() const { return inner_.gt_bytes(); }
  void sc_ser(ByteWriter& w, const Scalar& s) const { inner_.sc_ser(w, s); }
  [[nodiscard]] Scalar sc_deser(ByteReader& r) const { return inner_.sc_deser(r); }
  void g_ser(ByteWriter& w, const G& a) const { inner_.g_ser(w, a); }
  [[nodiscard]] G g_deser(ByteReader& r) const { return inner_.g_deser(r); }
  void gt_ser(ByteWriter& w, const GT& t) const { inner_.gt_ser(w, t); }
  [[nodiscard]] GT gt_deser(ByteReader& r) const { return inner_.gt_deser(r); }
  void gt_ser_many(ByteWriter& w, std::span<const GT> ts) const
    requires NativeGtBatchCodec<GG>
  {
    inner_.gt_ser_many(w, ts);
  }
  [[nodiscard]] std::vector<GT> gt_deser_many(ByteReader& r, std::size_t n) const
    requires NativeGtBatchCodec<GG>
  {
    return inner_.gt_deser_many(r, n);
  }

  [[nodiscard]] std::string name() const { return "counting(" + inner_.name() + ")"; }

 private:
  GG inner_;
  std::shared_ptr<OpCounts> counts_;
  // Registry handles (stable for the process lifetime; shared across copies).
  telemetry::Counter* tm_exp_ = nullptr;
  telemetry::Counter* tm_mul_ = nullptr;
  telemetry::Counter* tm_inv_ = nullptr;
  telemetry::Counter* tm_pairing_ = nullptr;
  telemetry::Counter* tm_multi_pow_ = nullptr;
  telemetry::Counter* tm_multi_pow_terms_ = nullptr;
  telemetry::Counter* tm_random_ = nullptr;
  telemetry::Counter* tm_hash_ = nullptr;
};

}  // namespace dlr::group
