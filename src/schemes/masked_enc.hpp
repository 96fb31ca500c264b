// The shared algebraic core of the paper's Pi_ss (Section 4.1) and Pi_comm /
// HPSKE (Lemma 5.2): a secret-key encryption scheme over a group G' with
//
//   Gen:  sk = (s_1, ..., s_w)   uniform in Z_p^w
//   Enc:  (b_1, ..., b_w, m * prod_i b_i^{s_i})   with uniform b_i in G'
//   Dec:  c_0 / prod_i c_i^{s_i}
//
// Coordinate-wise multiplication of ciphertexts is a homomorphism:
//   Dec(c * c') = Dec(c) * Dec(c')   (Definition 5.1, part 1)
//
// The b_i are sampled *directly as group elements* -- never as g^rho for a
// known rho -- per the paper's "hiding discrete logs of random coins" remark:
// the secret memory must not contain the coins' discrete logarithms.
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

#include "schemes/spaces.hpp"
#include "service/parallel.hpp"

namespace dlr::schemes {

template <group::BilinearGroup GG, template <class> class Space>
class MaskedEnc {
 public:
  using Sp = Space<GG>;
  using Elem = typename Sp::Elem;
  using Scalar = typename GG::Scalar;

  struct SecretKey {
    std::vector<Scalar> s;
  };

  struct Ciphertext {
    std::vector<Elem> b;  // the "coins", public components
    Elem c0{};            // masked message

    bool operator==(const Ciphertext&) const = default;
  };

  MaskedEnc(GG gg, std::size_t width) : gg_(std::move(gg)), width_(width) {
    if (width_ == 0) throw std::invalid_argument("MaskedEnc: width must be positive");
  }

  [[nodiscard]] const GG& group() const { return gg_; }
  [[nodiscard]] std::size_t width() const { return width_; }

  [[nodiscard]] SecretKey gen(crypto::Rng& rng) const {
    SecretKey sk;
    sk.s.reserve(width_);
    for (std::size_t i = 0; i < width_; ++i) sk.s.push_back(gg_.sc_random(rng));
    return sk;
  }

  /// Encrypt with fresh uniform coins.
  [[nodiscard]] Ciphertext enc(const SecretKey& sk, const Elem& m, crypto::Rng& rng) const {
    return enc_with_coins(sk, m, std::move(draw_coins(rng, 1).front()));
  }

  /// Fresh coins for `count` encryptions in one sampler call
  /// (Sp::random_many): row i holds the i-th encryption's coins, the same
  /// draws `count` enc() calls would make. The coins are public ciphertext
  /// parts, so they can be drawn ahead of the key they will be used with.
  [[nodiscard]] std::vector<std::vector<Elem>> draw_coins(crypto::Rng& rng,
                                                          std::size_t count) const {
    auto flat = Sp::random_many(gg_, rng, count * width_);
    std::vector<std::vector<Elem>> rows(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto first = flat.begin() + static_cast<std::ptrdiff_t>(i * width_);
      rows[i].assign(std::make_move_iterator(first),
                     std::make_move_iterator(first + static_cast<std::ptrdiff_t>(width_)));
    }
    return rows;
  }

  /// Encrypt with caller-supplied coins (used by tests and the fi/di reuse).
  [[nodiscard]] Ciphertext enc_with_coins(const SecretKey& sk, const Elem& m,
                                          std::vector<Elem> coins) const {
    check_key(sk);
    if (coins.size() != width_) throw std::invalid_argument("MaskedEnc: wrong coin count");
    const Elem mask = masked_product(coins, sk.s);
    return Ciphertext{std::move(coins), Sp::mul(gg_, m, mask)};
  }

  [[nodiscard]] Elem dec(const SecretKey& sk, const Ciphertext& ct) const {
    check_key(sk);
    check_ct(ct);
    const Elem mask = masked_product(ct.b, sk.s);
    return Sp::mul(gg_, ct.c0, Sp::inv(gg_, mask));
  }

  /// Coordinate-wise product: Dec(ct_mul(x, y)) = Dec(x) * Dec(y).
  [[nodiscard]] Ciphertext ct_mul(const Ciphertext& x, const Ciphertext& y) const {
    check_ct(x);
    check_ct(y);
    Ciphertext r;
    r.b.reserve(width_);
    for (std::size_t i = 0; i < width_; ++i) r.b.push_back(Sp::mul(gg_, x.b[i], y.b[i]));
    r.c0 = Sp::mul(gg_, x.c0, y.c0);
    return r;
  }

  /// Coordinate-wise inverse: Dec(ct_inv(x)) = Dec(x)^{-1}.
  [[nodiscard]] Ciphertext ct_inv(const Ciphertext& x) const {
    check_ct(x);
    Ciphertext r;
    r.b.reserve(width_);
    for (const auto& e : x.b) r.b.push_back(Sp::inv(gg_, e));
    r.c0 = Sp::inv(gg_, x.c0);
    return r;
  }

  /// Coordinate-wise power: Dec(ct_pow(x, k)) = Dec(x)^k.
  [[nodiscard]] Ciphertext ct_pow(const Ciphertext& x, const Scalar& k) const {
    check_ct(x);
    Ciphertext r;
    r.b.reserve(width_);
    for (const auto& e : x.b) r.b.push_back(Sp::pow(gg_, e, k));
    r.c0 = Sp::pow(gg_, x.c0, k);
    return r;
  }

  /// Coordinate-wise multi-exponentiation: prod_i cts[i]^{ks[i]}, i.e.
  /// Dec(ct_multi_pow(cts, ks)) = prod_i Dec(cts[i])^{ks[i]}. This is P2's
  /// whole job in the decryption/refresh protocols, done with one shared
  /// doubling chain per ciphertext coordinate.
  [[nodiscard]] Ciphertext ct_multi_pow(std::span<const Ciphertext> cts,
                                        std::span<const Scalar> ks) const {
    if (cts.size() != ks.size())
      throw std::invalid_argument("MaskedEnc::ct_multi_pow: size mismatch");
    for (const auto& ct : cts) check_ct(ct);
    Ciphertext r = ct_one();
    if (cts.empty()) return r;
    // Coordinates are independent and each writes a distinct slot of r, so
    // with DLR_PARALLEL set the width+1 doubling chains fan out over the pool.
    service::par_for(width_ + 1, [&](std::size_t j) {
      std::vector<Elem> column(cts.size());
      for (std::size_t i = 0; i < cts.size(); ++i)
        column[i] = (j < width_) ? cts[i].b[j] : cts[i].c0;
      Elem v = Sp::multi_pow(gg_, column, ks);
      if (j < width_) {
        r.b[j] = std::move(v);
      } else {
        r.c0 = std::move(v);
      }
    });
    return r;
  }

  /// Recode-once view of an exponent vector for many ct_multi_pow calls with
  /// the SAME scalars (a decryption batch applies one share vector to every
  /// request's rows). On native backends the wNAF recoding of ks runs once at
  /// prepare_key; results are bit-identical to ct_multi_pow(cts, ks).
  struct PreparedKey {
    typename Sp::Prepared prep;
    std::size_t count = 0;  // expected cts.size()
  };
  [[nodiscard]] PreparedKey prepare_key(std::span<const Scalar> ks) const {
    return PreparedKey{Sp::prepare_multi_pow(gg_, ks), ks.size()};
  }
  [[nodiscard]] Ciphertext ct_multi_pow_prepared(const PreparedKey& pk,
                                                 std::span<const Ciphertext> cts) const {
    if (cts.size() != pk.count)
      throw std::invalid_argument("MaskedEnc::ct_multi_pow_prepared: size mismatch");
    for (const auto& ct : cts) check_ct(ct);
    Ciphertext r = ct_one();
    if (cts.empty()) return r;
    service::par_for(width_ + 1, [&](std::size_t j) {
      std::vector<Elem> column(cts.size());
      for (std::size_t i = 0; i < cts.size(); ++i)
        column[i] = (j < width_) ? cts[i].b[j] : cts[i].c0;
      Elem v = Sp::multi_pow_prepared(gg_, pk.prep, column);
      if (j < width_) {
        r.b[j] = std::move(v);
      } else {
        r.c0 = std::move(v);
      }
    });
    return r;
  }

  /// Identity ciphertext (encrypts 1 with identity coins); the unit of ct_mul.
  [[nodiscard]] Ciphertext ct_one() const {
    Ciphertext r;
    r.b.assign(width_, Sp::id(gg_));
    r.c0 = Sp::id(gg_);
    return r;
  }

  /// Re-randomize by multiplying with a fresh encryption of 1.
  [[nodiscard]] Ciphertext rerandomize(const SecretKey& sk, const Ciphertext& ct,
                                       crypto::Rng& rng) const {
    return ct_mul(ct, enc(sk, Sp::id(gg_), rng));
  }

  // ---- serialization ----------------------------------------------------------
  void ser_sk(ByteWriter& w, const SecretKey& sk) const {
    for (const auto& s : sk.s) gg_.sc_ser(w, s);
  }
  [[nodiscard]] SecretKey deser_sk(ByteReader& r) const {
    SecretKey sk;
    sk.s.reserve(width_);
    for (std::size_t i = 0; i < width_; ++i) sk.s.push_back(gg_.sc_deser(r));
    return sk;
  }
  // A ciphertext is (b_1..b_w, c0) on the wire. ser_cts/deser_cts carry a
  // whole protocol message of ciphertexts back to back, the same bytes as
  // ser_ct/deser_ct on each; spaces with a batch codec handle the message in
  // one call (one shared field inversion on Tate GT), others stream element
  // by element.
  void ser_ct(ByteWriter& w, const Ciphertext& ct) const { ser_cts(w, {&ct, 1}); }
  [[nodiscard]] Ciphertext deser_ct(ByteReader& r) const {
    if constexpr (Sp::kBatchCodec) {
      return std::move(deser_cts(r, 1).front());
    } else {
      Ciphertext ct;
      ct.b.reserve(width_);
      for (std::size_t i = 0; i < width_; ++i) ct.b.push_back(Sp::deser(gg_, r));
      ct.c0 = Sp::deser(gg_, r);
      return ct;
    }
  }
  void ser_cts(ByteWriter& w, std::span<const Ciphertext> cts) const {
    if constexpr (Sp::kBatchCodec) {
      std::vector<Elem> flat;
      flat.reserve(cts.size() * (width_ + 1));
      for (const auto& ct : cts) {
        flat.insert(flat.end(), ct.b.begin(), ct.b.end());
        flat.push_back(ct.c0);
      }
      Sp::ser_many(gg_, w, flat);
    } else {
      for (const auto& ct : cts) {
        for (const auto& e : ct.b) Sp::ser(gg_, w, e);
        Sp::ser(gg_, w, ct.c0);
      }
    }
  }
  [[nodiscard]] std::vector<Ciphertext> deser_cts(ByteReader& r, std::size_t count) const {
    std::vector<Ciphertext> cts;
    cts.reserve(count);
    if constexpr (Sp::kBatchCodec) {
      const auto flat = Sp::deser_many(gg_, r, count * (width_ + 1));
      for (auto it = flat.begin(); it != flat.end(); it += width_ + 1)
        cts.push_back(Ciphertext{{it, it + width_}, it[width_]});
    } else {
      for (std::size_t i = 0; i < count; ++i) cts.push_back(deser_ct(r));
    }
    return cts;
  }
  [[nodiscard]] std::size_t sk_bytes() const { return width_ * gg_.sc_bytes(); }
  [[nodiscard]] std::size_t ct_bytes() const { return (width_ + 1) * Sp::bytes(gg_); }

 private:
  /// The mask prod_i b_i^{s_i}. With DLR_PARALLEL set and enough bases, the
  /// product splits into per-thread chunks (multi_pow distributes over
  /// concatenation) and the partials are multiplied back together.
  [[nodiscard]] Elem masked_product(std::span<const Elem> bs, std::span<const Scalar> ks) const {
    const int t = service::fanout_suppressed() ? 0 : service::parallel_threads();
    if (t <= 1 || bs.size() < 8) return Sp::multi_pow(gg_, bs, ks);
    const std::size_t chunks =
        std::min(static_cast<std::size_t>(t), bs.size() / 4);
    const std::size_t per = (bs.size() + chunks - 1) / chunks;
    std::vector<Elem> parts(chunks, Sp::id(gg_));
    service::par_for(chunks, [&](std::size_t c) {
      const std::size_t lo = c * per;
      const std::size_t hi = std::min(bs.size(), lo + per);
      if (lo < hi)
        parts[c] = Sp::multi_pow(gg_, bs.subspan(lo, hi - lo), ks.subspan(lo, hi - lo));
    });
    Elem acc = parts[0];
    for (std::size_t c = 1; c < parts.size(); ++c) acc = Sp::mul(gg_, acc, parts[c]);
    return acc;
  }

  void check_key(const SecretKey& sk) const {
    if (sk.s.size() != width_) throw std::invalid_argument("MaskedEnc: wrong key width");
  }
  void check_ct(const Ciphertext& ct) const {
    if (ct.b.size() != width_) throw std::invalid_argument("MaskedEnc: wrong ciphertext width");
  }

  GG gg_;
  std::size_t width_;
};

}  // namespace dlr::schemes
