// The Section 6 reduction, executable: the distinguisher D's "fake game".
//
// Given a (mock) BDDH tuple (g^a, g^b, g^c, T), D simulates the CML game for
// DLR while deviating from the honest challenger exactly as the proof
// prescribes:
//   * pk    = (p, g, e, e(g^a, g^b))      -- the BDDH tuple planted in pk;
//   * C*    = (g^c, m_b * T)              -- and in the challenge;
//   * per period: sk1 = (a_1..a_l, Phi) and sk_comm are *uniform* (stage a);
//     c', dPhi, dB, fPhi, f_i, f'_i honestly encrypt the prescribed
//     plaintexts (stage b); d_i = pair_ct(f_i, A) (stage c); and sk2 is
//     sampled uniformly subject to the linear constraint
//     c' = dB * prod_i d_i^{s_i} / dPhi (stage d), with a full-rank
//     requirement on the coefficient matrix enforced by resampling; the
//     refresh reply f is then computed from (s, s') (stage e).
//
// On the mock group the discrete logarithms D "keeps track of" are directly
// readable, so the whole object is runnable and testable: the fake transcript
// must be protocol-consistent (P2's formula reproduces c'; c' decrypts to the
// advice M), and the observable view must be distributed like the real
// game's. Experiment F10 measures exactly that.
#pragma once

#include "analysis/linear.hpp"
#include "group/mock_group.hpp"
#include "schemes/dlr.hpp"

namespace dlr::analysis {

struct BddhTuple {
  group::MockG ga, gb, gc;
  group::MockGT t;
};

/// Sample a real (T = e(g,g)^{abc}) or random-T BDDH tuple.
inline BddhTuple sample_bddh(const group::MockGroup& gg, bool real, crypto::Rng& rng) {
  const auto a = gg.sc_random(rng);
  const auto b = gg.sc_random(rng);
  const auto c = gg.sc_random(rng);
  BddhTuple out;
  out.ga = gg.g_pow(gg.g_gen(), a);
  out.gb = gg.g_pow(gg.g_gen(), b);
  out.gc = gg.g_pow(gg.g_gen(), c);
  out.t = real ? gg.gt_pow(gg.pair(out.ga, out.gb), c) : gg.gt_random(rng);
  return out;
}

class FakeGame {
 public:
  using GG = group::MockGroup;
  using Core = schemes::DlrCore<GG>;
  using HG = schemes::HpskeG<GG>;
  using HT = schemes::HpskeGT<GG>;
  using G = GG::G;
  using GT = GG::GT;

  struct FakePeriod {
    // The planted secret state.
    typename Core::Sk1 sk1;            // uniform (the deviation!)
    typename HG::SecretKey sigma;      // uniform
    typename Core::Sk2 sk2;            // solved from the constraint
    // The simulated decryption-protocol transcript.
    typename Core::Ciphertext bg;      // background ciphertext (A, B)
    GT advice_m{};                     // its "correct" output M (advice)
    std::vector<typename HT::Ciphertext> d;
    typename HT::Ciphertext dphi, db, cprime;
    // The simulated refresh-protocol round-1 message.
    std::vector<typename HG::Ciphertext> f, fprime;
    typename HG::Ciphertext fphi;
    std::size_t resamples = 0;  // full-rank re-sampling count
  };

  FakeGame(GG gg, schemes::DlrParams prm, BddhTuple tuple)
      : gg_(gg), prm_(prm), tuple_(tuple), hg_(gg_, prm.kappa), ht_(gg_, prm.kappa) {}

  /// pk with the BDDH tuple planted: z = e(g^a, g^b).
  [[nodiscard]] typename Core::PublicKey pk() const {
    return {gg_.g_gen(), gg_.pair(tuple_.ga, tuple_.gb)};
  }

  /// Challenge with the tuple planted: (g^c, m_b * T).
  [[nodiscard]] typename Core::Ciphertext challenge(const GT& mb) const {
    return {tuple_.gc, gg_.gt_mul(mb, tuple_.t)};
  }

  /// One simulated time period (stages a-e of the proof).
  [[nodiscard]] FakePeriod fake_period(crypto::Rng& rng) const {
    FakePeriod p;
    // (a) uniform sk1 and sk_comm.
    p.sk1.a.reserve(prm_.ell);
    for (std::size_t i = 0; i < prm_.ell; ++i) p.sk1.a.push_back(gg_.g_random(rng));
    p.sk1.phi = gg_.g_random(rng);
    p.sigma = hg_.gen(rng);
    const typename HT::SecretKey sigma_t{p.sigma.s};

    // (b)+(c) with the full-rank requirement of stage (d): resample the
    // f_i coins until the coefficient matrix has rank kappa+1. The background
    // ciphertext is resampled too -- on tiny groups A = g^t can hit the
    // identity (probability 1/p), which zeroes the whole coefficient matrix.
    for (;;) {
      // Background decryption input/output: D can generate its own advice
      // because C encrypts uniform messages under the planted pk.
      p.advice_m = gg_.gt_random(rng);
      p.bg = Core::enc(gg_, pk(), p.advice_m, rng);
      p.f.clear();
      for (std::size_t i = 0; i < prm_.ell; ++i)
        p.f.push_back(hg_.enc(p.sigma, p.sk1.a[i], rng));
      p.fphi = hg_.enc(p.sigma, p.sk1.phi, rng);
      // All l+1 transported ciphertexts share the first argument A = bg.a:
      // one pair_cts call, as in dec_round1.
      p.d = Core::pair_cts(gg_, p.bg.a, p.f, p.fphi);
      p.dphi = std::move(p.d.back());
      p.d.pop_back();
      p.db = ht_.enc(sigma_t, p.bg.b, rng);
      p.cprime = ht_.enc(sigma_t, p.advice_m, rng);  // c' encrypts the advice M!

      // (d) solve for sk2: one linear equation per ciphertext coordinate.
      MatZp mat(prm_.kappa + 1, prm_.ell, gg_.order_u64());
      std::vector<std::uint64_t> rhs(prm_.kappa + 1);
      for (std::size_t j = 0; j <= prm_.kappa; ++j) {
        for (std::size_t i = 0; i < prm_.ell; ++i) mat.at(j, i) = coord(p.d[i], j);
        rhs[j] = gg_.sc_sub(gg_.sc_add(coord(p.cprime, j), coord(p.dphi, j)),
                            coord(p.db, j));
      }
      if (mat.rank() != prm_.kappa + 1) {
        ++p.resamples;
        continue;  // the proof's re-sampling step
      }
      auto sol = mat.sample_solution(rhs, rng);
      if (!sol) {
        ++p.resamples;
        continue;
      }
      p.sk2.s = std::move(*sol);
      break;
    }

    // (e) the refresh-round message: f'_i encrypt fresh a'_i. (The reply f
    // for chaining into the next period is produced by next_refresh_reply.)
    p.fprime.clear();
    for (std::size_t i = 0; i < prm_.ell; ++i)
      p.fprime.push_back(hg_.enc(p.sigma, gg_.g_random(rng), rng));
    return p;
  }

  /// Stage (e): f = prod_i f'_i^{s'_i} / f_i^{s_i} * fPhi for given s'.
  [[nodiscard]] typename HG::Ciphertext refresh_reply(
      const FakePeriod& p, const std::vector<std::uint64_t>& s_next) const {
    auto acc = hg_.ct_mul(p.fphi, hg_.ct_multi_pow(p.fprime, s_next));
    return hg_.ct_mul(acc, hg_.ct_inv(hg_.ct_multi_pow(p.f, p.sk2.s)));
  }

  /// Consistency check: P2's honest formula on (d, dPhi, dB) with the solved
  /// sk2 must reproduce c', and c' must decrypt to the advice M under sigma.
  [[nodiscard]] bool period_consistent(const FakePeriod& p) const {
    auto acc = ht_.ct_mul(p.db, ht_.ct_multi_pow(p.d, p.sk2.s));
    acc = ht_.ct_mul(acc, ht_.ct_inv(p.dphi));
    if (!(acc == p.cprime)) return false;
    const typename HT::SecretKey sigma_t{p.sigma.s};
    return gg_.gt_eq(ht_.dec(sigma_t, p.cprime), p.advice_m);
  }

 private:
  [[nodiscard]] std::uint64_t coord(const typename HT::Ciphertext& ct, std::size_t j) const {
    return j < prm_.kappa ? ct.b[j].v : ct.c0.v;
  }

  GG gg_;
  schemes::DlrParams prm_;
  BddhTuple tuple_;
  HG hg_;
  HT ht_;
};

}  // namespace dlr::analysis
