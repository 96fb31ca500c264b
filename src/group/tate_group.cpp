#include "group/tate_group.hpp"

namespace dlr::pairing {

namespace {

// Canonical PBC "a.param": q = 512-bit prime, r = 160-bit prime, q + 1 = r*h,
// q == 3 (mod 4). Verified prime/structure in tests (pairing_params_test.cpp).
const mpint::UInt<8> kQ512 = mpint::UInt<8>::from_limbs(
    {0xcf6230c28e284d97ull, 0x2539e8ff9b4f30a3ull, 0x459e54dab7ba5be9ull, 0xa7afdaf9b049744aull,
     0x28d1f80010940622ull, 0x364bb946f5ed8396ull, 0x6edef8ce96e7217eull, 0xa7a73868e95fba88ull});
const mpint::UInt<3> kR512 =
    mpint::UInt<3>::from_limbs({0x0000000000000001ull, 0x0000080000000000ull, 0x0000000080000000ull});
const Cofactor kH512 = Cofactor::from_limbs({0xcf6230c28e284d98ull, 0xe2cd28ff9b4f30a3ull,
                                             0x85050f93a6344777ull, 0x37cc83915f505f0eull,
                                             0xd2bf601bf6b0d471ull, 0x000000014f4e70d1ull});

// Reproduction-sized type-A parameters generated for this repo (seeded search;
// see DESIGN.md): q = 255-bit prime == 3 mod 4, r = 64-bit prime, q + 1 = r*h.
const mpint::UInt<4> kQ256 = mpint::UInt<4>::from_limbs(
    {0xe3645773fff4fddbull, 0x6279bf2daf80d346ull, 0x034181081bf01ba0ull, 0x76650863ad001749ull});
const mpint::UInt<1> kR256 = mpint::UInt<1>::from_limbs({0xbbfb8ce90d980297ull});
const Cofactor kH256 = Cofactor::from_limbs(
    {0x5afe83aec7869884ull, 0x58fea97080009664ull, 0xa13bb0c25207dd81ull});

// High-margin preset generated for this repo (seeded search, see DESIGN.md):
// q = 1024-bit prime == 3 mod 4, r = 256-bit prime, q + 1 = r*h.
const mpint::UInt<16> kQ1024 = mpint::UInt<16>::from_limbs(
    {0x7268b85b6946775bull, 0x5fb7bb092775e7f9ull, 0x90e949152920d4fdull, 0xb9adcd27b99eb7b3ull,
     0x900d818d4aab0dcaull, 0x00dc8acfc29a930full, 0xa1350b68291f4211ull, 0xe801628b90cb1574ull,
     0xe49df2dfd366d53cull, 0xb0aa2d7ee70784c6ull, 0x868f1007deda8912ull, 0x440afb417411ec52ull,
     0x5a2206921bb54b03ull, 0x6725c0268de36e99ull, 0xe2315e308feeb6cdull, 0xa6ca33de68b1cb69ull});
const mpint::UInt<4> kR1024 = mpint::UInt<4>::from_limbs(
    {0x759d56380983c043ull, 0x3306ee2fc3ede7dcull, 0x40874977197fc09bull, 0xd22199a5b69bdaabull});
const Cofactor kH1024 = Cofactor::from_limbs(
    {0x3f078be883423374ull, 0x3fd38ff90e3efe73ull, 0xcb07748f594f09dbull, 0x5f3442693b2a9f86ull,
     0x360d4c55d60d7a5dull, 0x353784679fb2386dull, 0xba4d7078af4c8355ull, 0xedf349343e987af5ull,
     0x7b9901dad83e7660ull, 0xf5561ad0a22006b8ull, 0x98796b4a9fa39319ull, 0xcb32a162839d89beull});

}  // namespace

std::shared_ptr<const PairingCtx<16, 4>> make_ss1024() {
  static const auto ctx =
      std::make_shared<const PairingCtx<16, 4>>(kQ1024, kR1024, kH1024, "ss1024");
  return ctx;
}

std::shared_ptr<const PairingCtx<8, 3>> make_ss512() {
  static const auto ctx = std::make_shared<const PairingCtx<8, 3>>(kQ512, kR512, kH512, "ss512");
  return ctx;
}

std::shared_ptr<const PairingCtx<4, 1>> make_ss256() {
  static const auto ctx = std::make_shared<const PairingCtx<4, 1>>(kQ256, kR256, kH256, "ss256");
  return ctx;
}

}  // namespace dlr::pairing

namespace dlr::group {

// The GT torus codec (format in tate_group.hpp), compiled here once per preset
// by the explicit instantiations below.

template <std::size_t LQ, std::size_t LR>
void TateGroup<LQ, LR>::gt_ser_many(ByteWriter& w, std::span<const GT> ts) const {
  const auto& fq = ctx_->fq();
  const auto& f2 = ctx_->fq2();
  // On the circle a == 1 forces b == 0, so 1 - a is non-zero for every
  // element but the identity.
  std::vector<typename Ctx::Fq::E> inv_den;  // (1 - a)^{-1} per non-identity
  inv_den.reserve(ts.size());
  for (const auto& t : ts) {
    if (!f2.is_norm_one(t)) throw std::invalid_argument("gt_ser: not a norm-1 element");
    if (!gt_is_id(t)) inv_den.push_back(fq.sub(fq.one(), t.a));
  }
  fq.batch_inv(inv_den);
  std::size_t j = 0;
  for (const auto& t : ts) {
    if (gt_is_id(t)) {
      w.u8(kGtIdentity);
      w.raw(mpint::UInt<LQ>{}.to_bytes());
    } else {
      w.u8(kGtTorus);
      w.raw(fq.to_uint(fq.mul(t.b, inv_den[j++])).to_bytes());
    }
  }
}

template <std::size_t LQ, std::size_t LR>
std::vector<typename TateGroup<LQ, LR>::GT> TateGroup<LQ, LR>::gt_deser_many(
    ByteReader& r, std::size_t n) const {
  const auto& fq = ctx_->fq();
  std::vector<GT> out(n, gt_id());
  std::vector<typename Ctx::Fq::E> cs, inv_den;  // c and (c^2 + 1)^{-1} per torus element
  std::vector<std::size_t> at;                   // its index in out
  for (std::size_t i = 0; i < n; ++i) {
    const auto flag = r.u8();
    const auto v = mpint::UInt<LQ>::from_bytes(r.raw(8 * LQ));
    if (flag == kGtIdentity) {
      if (!v.is_zero()) throw std::invalid_argument("gt_deser: non-zero identity payload");
      continue;
    }
    if (flag != kGtTorus) throw std::invalid_argument("gt_deser: bad flag");
    if (v >= fq.modulus()) throw std::invalid_argument("gt_deser: torus coordinate out of range");
    const auto c = fq.from_uint(v);
    cs.push_back(c);
    inv_den.push_back(fq.add(fq.sqr(c), fq.one()));
    at.push_back(i);
  }
  fq.batch_inv(inv_den);
  for (std::size_t j = 0; j < at.size(); ++j)
    out[at[j]] = GT{fq.sub(fq.one(), fq.dbl(inv_den[j])), fq.dbl(fq.mul(cs[j], inv_den[j]))};
  return out;
}

template class TateGroup<8, 3>;
template class TateGroup<4, 1>;
template class TateGroup<16, 4>;

TateSS512 make_tate_ss512() { return TateSS512(pairing::make_ss512()); }
TateSS256 make_tate_ss256() { return TateSS256(pairing::make_ss256()); }
TateSS1024 make_tate_ss1024() { return TateSS1024(pairing::make_ss1024()); }

}  // namespace dlr::group
