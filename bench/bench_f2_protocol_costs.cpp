// F2 -- distributed-protocol costs and the per-device operation split
// (paper Section 1.1 "Simplicity of One of the Two Devices" and the
// Construction 5.3 protocols).
//
// For a sweep of lambda on the fast SS256 curve (plus one SS512 point):
// decryption / refresh latency, communication bytes, and per-party operation
// counts -- verifying that P2 executes only scalar sampling, exponentiations
// and multiplications (no pairings, no group sampling, no hashing).
//
// Every step runs exactly once, so the counts are those of one decryption
// and one refresh (and the times are single samples). A refresh's count
// includes the next period's share encryptions, whose coins it samples. The
// bench exits 1 if any row's P1 pairings differ from (l+1)(kappa+1) or P2's
// from 0, or if P1 samples other than l(kappa+1) + (l+1)kappa raw points per
// refresh or P2 samples any.
#include <chrono>

#include "bench_util.hpp"
#include "group/counting_group.hpp"
#include "group/tate_group.hpp"
#include "schemes/dlr.hpp"

namespace {

using namespace dlr;
using namespace dlr::bench;

/// Wall time of one call: no warm-up run, so the counting groups see the
/// step exactly once.
template <class F>
double once_ms(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One row; returns false if the pairing or sampling split is not the paper's.
template <class GG>
bool run_one(const std::string& label, GG base, std::size_t lambda, Table& t) {
  using CG = group::CountingGroup<GG>;
  const auto prm = schemes::DlrParams::derive(base.scalar_bits(), lambda);

  CG gg1(base);  // counts P1's ops (and keygen/encryption, reset below)
  CG gg2(base);  // counts P2's ops
  crypto::Rng rng(99);
  auto kg = schemes::DlrCore<CG>::gen(gg1, prm, rng);
  schemes::DlrParty1<CG> p1(gg1, prm, kg.pk, std::move(kg.sk1), schemes::P1Mode::Plain,
                            crypto::Rng(1));
  schemes::DlrParty2<CG> p2(gg2, prm, std::move(kg.sk2), crypto::Rng(2));

  const auto m = gg1.gt_random(rng);
  const auto c = schemes::DlrCore<CG>::enc(gg1, kg.pk, m, rng);
  p1.prepare_period();  // the period's set-up is not part of a decryption

  gg1.reset_counts();
  gg2.reset_counts();

  Bytes msg1, msg2, msg3, msg4;
  const double dec_p1_ms = once_ms([&] { msg1 = p1.dec_round1(c); });
  const double dec_p2_ms = once_ms([&] { msg2 = p2.dec_respond(msg1); });
  const double fin = once_ms([&] { (void)p1.dec_finish(msg2); });
  const auto dec_ops1 = gg1.snapshot();
  const auto dec_ops2 = gg2.snapshot();
  gg1.reset_counts();
  gg2.reset_counts();
  const double ref_p1_ms = once_ms([&] { msg3 = p1.ref_round1(); });
  const double ref_p2_ms = once_ms([&] { msg4 = p2.ref_respond(msg3); });
  const double ref_fin_ms = once_ms([&] { p1.ref_finish(msg4); });
  p1.prepare_period();  // the next period's share encryptions close the cycle
  const auto ref_ops1 = gg1.snapshot();
  const auto ref_ops2 = gg2.snapshot();

  t.row({label, std::to_string(lambda), std::to_string(prm.ell), std::to_string(prm.kappa),
         fmt(dec_p1_ms + fin), fmt(dec_p2_ms), fmt(ref_p1_ms + ref_fin_ms), fmt(ref_p2_ms),
         fmt_bytes(msg1.size() + msg2.size()), fmt_bytes(msg3.size() + msg4.size()),
         std::to_string(dec_ops1.pairings),
         std::to_string(dec_ops2.pairings + ref_ops2.pairings), std::to_string(ref_ops1.g_random),
         std::to_string(dec_ops2.exps() + ref_ops2.exps() + dec_ops2.multi_pow_terms +
                        ref_ops2.multi_pow_terms)});
  const std::size_t want = (prm.ell + 1) * (prm.kappa + 1);
  const std::size_t p2_pairings = dec_ops2.pairings + ref_ops2.pairings;
  const bool pairs_ok = dec_ops1.pairings == want && p2_pairings == 0;
  if (!pairs_ok)
    std::fprintf(stderr, "F2 %s lambda=%zu: P1 paired %zu times (want %zu), P2 %zu (want 0)\n",
                 label.c_str(), lambda, dec_ops1.pairings, want, p2_pairings);
  const std::size_t want_points = prm.ell * (prm.kappa + 1) + (prm.ell + 1) * prm.kappa;
  const std::size_t p2_points = dec_ops2.g_random + ref_ops2.g_random;
  const bool points_ok = ref_ops1.g_random == want_points && p2_points == 0;
  if (!points_ok)
    std::fprintf(stderr,
                 "F2 %s lambda=%zu: P1 sampled %zu points per refresh (want %zu), P2 %zu "
                 "(want 0)\n",
                 label.c_str(), lambda, ref_ops1.g_random, want_points, p2_points);
  return pairs_ok && points_ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlr;
  using namespace dlr::bench;

  banner("F2: protocol latency, communication, per-device op profile",
         "paper Section 1.1 (P2 simplicity) + Construction 5.3");

  Table t({"curve", "lambda", "l", "kappa", "dec P1 ms", "dec P2 ms", "ref P1 ms",
           "ref P2 ms", "dec comm", "ref comm", "P1 pairings", "P2 pairings", "P1 ref points",
           "P2 exps"});

  bool ok = true;
  const auto ss256 = group::make_tate_ss256();
  for (const std::size_t lambda : {16u, 32u, 64u, 128u, 256u, 512u})
    ok &= run_one("ss256", ss256, lambda, t);
  ok &= run_one("ss512", group::make_tate_ss512(), 160, t);
  t.print();

  std::printf(
      "\nShape check: P2 executes ZERO pairings in every configuration -- its\n"
      "entire job is 'products of received elements raised to its scalars'\n"
      "(Section 1.1), so it can be a smart card. All pairing work sits on P1.\n"
      "Costs grow linearly in l*kappa = O(lambda^2/n^2), the price of tolerating\n"
      "a (1-o(1)) leakage fraction.\n");
  export_json_if_requested(argc, argv, "bench_f2_protocol_costs");
  return ok ? 0 : 1;
}
