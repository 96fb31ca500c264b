// PR 8 cross-request batching: differential tests of the recode-once
// decryption path (PreparedGtMultiPow, ct_multi_pow_prepared,
// DlrParty2::DecBatch, dec_respond_many) against the unbatched originals --
// wire outputs must be BIT-identical, not merely algebraically equal --
// plus unit and hammer coverage of the BatchCollector and the
// resolved-once parallel-config knobs (service/parallel.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "group/counting_group.hpp"
#include "group/mock_group.hpp"
#include "group/tate_group.hpp"
#include "schemes/dlr.hpp"
#include "service/batcher.hpp"
#include "service/parallel.hpp"

namespace dlr {
namespace {

using crypto::Rng;
using group::make_mock;
using group::make_tate_ss256;
using group::make_tate_ss512;
using group::MockGroup;

// ---- prepared gt multi-pow ----------------------------------------------------

/// Native prepared path (Tate backends): prepare once, apply to several base
/// vectors, compare against gt_multi_pow on the same inputs. Exercises the
/// zero-scalar skip and the all-zero edge that the prepared path must
/// replicate exactly.
template <class GG>
void prepared_gt_differential(const GG& gg, std::uint64_t seed, int iters,
                              std::size_t max_terms) {
  Rng rng(seed);
  for (int it = 0; it < iters; ++it) {
    const std::size_t n = 1 + rng.below(max_terms);
    std::vector<typename GG::Scalar> ss;
    for (std::size_t i = 0; i < n; ++i) ss.push_back(gg.sc_random(rng));
    if (it % 2 == 1) ss[rng.below(n)] = gg.sc_from_u64(0);
    const auto prep = gg.prepare_gt_multi_pow(ss);
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<typename GG::GT> ts;
      for (std::size_t i = 0; i < n; ++i) ts.push_back(gg.gt_random(rng));
      EXPECT_TRUE(gg.gt_eq(prep.pow(ts), gg.gt_multi_pow(ts, ss)));
    }
  }
  // All scalars zero -> identity, via the prepared path too.
  const std::vector<typename GG::Scalar> zs{gg.sc_from_u64(0), gg.sc_from_u64(0)};
  const std::vector<typename GG::GT> ts{gg.gt_random(rng), gg.gt_random(rng)};
  EXPECT_TRUE(gg.gt_eq(gg.prepare_gt_multi_pow(zs).pow(ts), gg.gt_multi_pow(ts, zs)));
}

TEST(PreparedMultiPowTest, TateSS256MatchesGtMultiPow) {
  prepared_gt_differential(make_tate_ss256(), 801, 4, 5);
}

TEST(PreparedMultiPowTest, TateSS512MatchesGtMultiPow) {
  prepared_gt_differential(make_tate_ss512(), 802, 2, 3);
}

TEST(PreparedMultiPowTest, SizeMismatchThrows) {
  const auto gg = make_tate_ss256();
  Rng rng(803);
  const std::vector<typename group::TateSS256::Scalar> ss{gg.sc_random(rng)};
  const auto prep = gg.prepare_gt_multi_pow(ss);
  const std::vector<typename group::TateSS256::GT> two{gg.gt_random(rng),
                                                       gg.gt_random(rng)};
  EXPECT_THROW((void)prep.pow(two), std::invalid_argument);
}

/// CountingGroup forwards prepare_gt_multi_pow so op profiles stay exact:
/// one prepared pow must count exactly one multi_pow with n terms, like the
/// unprepared call. (Only native backends expose the prepare hook -- the
/// requires-clause hides it on CountingGroup<MockGroup> -- so wrap Tate.)
TEST(PreparedMultiPowTest, CountingGroupProfilesThePreparedPath) {
  using CG = group::CountingGroup<group::TateSS256>;
  CG gg(make_tate_ss256());
  Rng rng(804);
  std::vector<typename CG::Scalar> ss;
  std::vector<typename CG::GT> ts;
  for (int i = 0; i < 3; ++i) {
    ss.push_back(gg.sc_random(rng));
    ts.push_back(gg.gt_random(rng));
  }
  const auto direct = gg.gt_multi_pow(ts, ss);
  const auto before = gg.counts().multi_pows;
  const auto prep = gg.prepare_gt_multi_pow(ss);
  const auto via = prep.pow(ts);
  EXPECT_EQ(gg.counts().multi_pows, before + 1);
  EXPECT_TRUE(gg.gt_eq(via, direct));
}

/// CountingGroup forwards the batch GT codec, so counting runs (bench_t1/f2)
/// take the one-inversion path and put the bare group's bytes on the wire.
TEST(GtBatchCodecTest, CountingGroupRound1MatchesBareGroup) {
  using CG = group::CountingGroup<group::TateSS256>;
  static_assert(group::NativeGtBatchCodec<CG>);
  static_assert(!group::NativeGtBatchCodec<group::CountingGroup<MockGroup>>);
  const auto bare = make_tate_ss256();
  const CG counted(bare);
  const auto prm = schemes::DlrParams::derive(bare.scalar_bits(), 1, 1);
  auto sys_bare = schemes::DlrSystem<group::TateSS256>::create(bare, prm,
                                                              schemes::P1Mode::Plain, 805);
  auto sys_counted = schemes::DlrSystem<CG>::create(counted, prm, schemes::P1Mode::Plain, 805);
  Rng rng_bare(806), rng_counted(806);
  const auto m = bare.gt_random(rng_bare);
  (void)counted.gt_random(rng_counted);
  const Bytes msg_bare = sys_bare.p1().dec_round1(sys_bare.encrypt(m, rng_bare));
  const Bytes msg_counted = sys_counted.p1().dec_round1(sys_counted.encrypt(m, rng_counted));
  EXPECT_EQ(msg_counted, msg_bare);

  const schemes::HpskeGT<group::TateSS256> ht_bare(bare, prm.kappa);
  const schemes::HpskeGT<CG> ht_counted(counted, prm.kappa);
  ByteReader r_bare(msg_bare), r_counted(msg_counted);
  const auto d_bare = ht_bare.deser_cts(r_bare, prm.ell + 2);
  const auto d_counted = ht_counted.deser_cts(r_counted, prm.ell + 2);
  EXPECT_TRUE(r_bare.done() && r_counted.done());
  ASSERT_EQ(d_counted.size(), d_bare.size());
  for (std::size_t i = 0; i < d_bare.size(); ++i) {
    EXPECT_TRUE(d_counted[i].b == d_bare[i].b) << i;
    EXPECT_TRUE(d_counted[i].c0 == d_bare[i].c0) << i;
  }
  EXPECT_TRUE(counted.gt_eq(
      sys_counted.p1().dec_finish(sys_counted.p2().dec_respond(msg_counted)), m));
}

// ---- hpske ct_multi_pow_prepared ----------------------------------------------

template <class GG>
void ct_prepared_differential(const GG& gg, std::uint64_t seed, std::size_t width,
                              std::size_t n_cts) {
  schemes::HpskeGT<GG> ht(gg, width);
  Rng rng(seed);
  const auto sk = ht.gen(rng);
  std::vector<typename schemes::HpskeGT<GG>::Ciphertext> cts;
  std::vector<typename GG::Scalar> ks;
  for (std::size_t i = 0; i < n_cts; ++i) {
    cts.push_back(ht.enc(sk, gg.gt_random(rng), rng));
    ks.push_back(gg.sc_random(rng));
  }
  const auto pk = ht.prepare_key(ks);
  const auto ref = ht.ct_multi_pow(cts, ks);
  const auto got = ht.ct_multi_pow_prepared(pk, cts);
  EXPECT_TRUE(got == ref);  // element-wise equality of every coordinate
  // Wrong count fails typed, like ct_multi_pow's size mismatch.
  cts.pop_back();
  EXPECT_THROW((void)ht.ct_multi_pow_prepared(pk, cts), std::invalid_argument);
}

TEST(CtMultiPowPreparedTest, MockMatchesUnprepared) {
  ct_prepared_differential(make_mock(), 811, 3, 6);
}

TEST(CtMultiPowPreparedTest, TateSS256MatchesUnprepared) {
  ct_prepared_differential(make_tate_ss256(), 812, 2, 3);
}

// ---- DlrParty2::DecBatch / dec_respond_many -----------------------------------

/// The full protocol differential: the batched round 2 must be BIT-identical
/// to dec_respond on every backend, and the replies must still decrypt to
/// the original messages through P1's round 3.
template <class GG>
void dec_batch_differential(GG gg, std::size_t lambda, std::uint64_t seed, int msgs) {
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), lambda);
  auto sys = schemes::DlrSystem<GG>::create(gg, prm, schemes::P1Mode::Plain, seed);
  Rng rng(seed + 1);
  std::vector<typename GG::GT> ms;
  std::vector<Bytes> round1s;
  for (int i = 0; i < msgs; ++i) {
    ms.push_back(gg.gt_random(rng));
    const auto c = schemes::DlrCore<GG>::enc(gg, sys.pk(), ms.back(), rng);
    round1s.push_back(sys.p1().dec_round1(c));
  }
  const auto batch = sys.p2().dec_batch();
  const auto many = sys.p2().dec_respond_many(round1s);
  ASSERT_EQ(many.size(), round1s.size());
  for (int i = 0; i < msgs; ++i) {
    const Bytes ref = sys.p2().dec_respond(round1s[static_cast<std::size_t>(i)]);
    EXPECT_EQ(batch.run(round1s[static_cast<std::size_t>(i)]), ref) << "msg " << i;
    ASSERT_TRUE(many[static_cast<std::size_t>(i)].ok());
    EXPECT_EQ(many[static_cast<std::size_t>(i)].reply, ref) << "msg " << i;
    EXPECT_TRUE(gg.gt_eq(sys.p1().dec_finish(ref), ms[static_cast<std::size_t>(i)]));
  }
}

TEST(DecBatchTest, BitIdenticalMock) {
  const auto gg = make_mock();
  dec_batch_differential(gg, gg.scalar_bits(), 821, 6);
}

TEST(DecBatchTest, BitIdenticalTateSS256) {
  dec_batch_differential(make_tate_ss256(), 32, 822, 3);
}

TEST(DecBatchTest, BitIdenticalTateSS512) {
  dec_batch_differential(make_tate_ss512(), 32, 823, 2);
}

TEST(DecBatchTest, MalformedRequestFailsAloneInMany) {
  const auto gg = make_mock();
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), gg.scalar_bits());
  auto sys = schemes::DlrSystem<MockGroup>::create(gg, prm, schemes::P1Mode::Plain, 824);
  Rng rng(825);
  std::vector<Bytes> round1s;
  for (int i = 0; i < 4; ++i) {
    const auto c =
        schemes::DlrCore<MockGroup>::enc(gg, sys.pk(), gg.gt_random(rng), rng);
    round1s.push_back(sys.p1().dec_round1(c));
  }
  round1s[1].push_back(0x00);  // trailing byte -> that item must fail typed
  round1s[2].resize(round1s[2].size() / 2);  // truncated -> fails too
  const auto many = sys.p2().dec_respond_many(round1s);
  EXPECT_TRUE(many[0].ok());
  EXPECT_FALSE(many[1].ok());
  EXPECT_FALSE(many[2].ok());
  EXPECT_TRUE(many[3].ok());
  EXPECT_EQ(many[0].reply, sys.p2().dec_respond(round1s[0]));
  EXPECT_EQ(many[3].reply, sys.p2().dec_respond(round1s[3]));
}

/// Refresh between prepares: a DecBatch constructed BEFORE a refresh answers
/// for the old share (callers hold the share lock across batch + runs, so
/// the service never actually interleaves); a batch constructed after must
/// match the refreshed dec_respond.
TEST(DecBatchTest, RebuiltBatchTracksRefreshedShare) {
  const auto gg = make_mock();
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), gg.scalar_bits());
  auto sys = schemes::DlrSystem<MockGroup>::create(gg, prm, schemes::P1Mode::Plain, 826);
  Rng rng(827);
  const auto m = gg.gt_random(rng);
  const auto c = schemes::DlrCore<MockGroup>::enc(gg, sys.pk(), m, rng);
  const Bytes r1 = sys.p1().dec_round1(c);
  const Bytes before = sys.p2().dec_respond(r1);
  sys.refresh();
  // The round-1 message was built for the OLD period's sk_comm; what matters
  // here is only that batch and plain paths agree after the share rotated.
  const auto m2 = gg.gt_random(rng);
  const auto c2 = schemes::DlrCore<MockGroup>::enc(gg, sys.pk(), m2, rng);
  const Bytes r2 = sys.p1().dec_round1(c2);
  const auto batch = sys.p2().dec_batch();
  EXPECT_EQ(batch.run(r2), sys.p2().dec_respond(r2));
  EXPECT_TRUE(gg.gt_eq(sys.p1().dec_finish(batch.run(r2)), m2));
  (void)before;
}

// ---- BatchCollector -----------------------------------------------------------

using service::BatchCollector;

TEST(BatchCollectorTest, DrainsEverythingInCapBoundedBatches) {
  BatchCollector<int> bc({/*cap=*/4, /*queue_cap=*/64});
  for (int i = 0; i < 10; ++i) ASSERT_EQ(bc.try_submit(i), BatchCollector<int>::Submit::Ok);
  std::vector<int> got;
  while (got.size() < 10) {
    const auto b = bc.collect();
    ASSERT_FALSE(b.empty());
    EXPECT_LE(b.size(), 4u);
    got.insert(got.end(), b.begin(), b.end());
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);  // FIFO
  EXPECT_EQ(bc.queued(), 0u);
}

TEST(BatchCollectorTest, StopDrainsThenReturnsEmpty) {
  BatchCollector<int> bc({4, 64});
  for (int i = 0; i < 6; ++i) ASSERT_EQ(bc.try_submit(i), BatchCollector<int>::Submit::Ok);
  bc.stop();
  int late = 99;
  EXPECT_EQ(bc.try_submit(late), BatchCollector<int>::Submit::Stopped);  // refused
  std::size_t n = 0;
  for (;;) {
    const auto b = bc.collect();
    if (b.empty()) break;
    n += b.size();
  }
  EXPECT_EQ(n, 6u);
  EXPECT_TRUE(bc.collect().empty());  // stays empty once drained
}

TEST(BatchCollectorTest, LoneItemSkipsTheLinger) {
  // A worker takes what is queued and never waits for queue-mates: a lone
  // item is handed over at once, also right after a multi-item batch (the
  // kind of traffic a lingering collector would take as a cue to wait).
  BatchCollector<int> bc({16, 64});
  for (int i = 0; i < 2; ++i) ASSERT_EQ(bc.try_submit(i), BatchCollector<int>::Submit::Ok);
  ASSERT_EQ(bc.collect().size(), 2u);
  int lone = 2;
  ASSERT_EQ(bc.try_submit(lone), BatchCollector<int>::Submit::Ok);
  const auto t0 = std::chrono::steady_clock::now();
  const auto b = bc.collect();
  const auto ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 2);
  EXPECT_LT(ms, 250.0);  // generous for CI noise; a taken item costs microseconds
}

TEST(BatchCollectorTest, TrySubmitIsFullAtQueueCapUntilCollected) {
  BatchCollector<int> bc({/*cap=*/2, /*queue_cap=*/2});
  for (int i = 0; i < 2; ++i) ASSERT_EQ(bc.try_submit(i), BatchCollector<int>::Submit::Ok);
  int third = 2;
  EXPECT_EQ(bc.try_submit(third), BatchCollector<int>::Submit::Full);
  EXPECT_EQ(bc.queued(), 2u) << "a Full item must not be queued";
  EXPECT_EQ(bc.collect().size(), 2u);
  EXPECT_EQ(bc.try_submit(third), BatchCollector<int>::Submit::Ok);
  const auto b = bc.collect();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 2);
}

/// The TSan hammer: many producers, several competing consumers, every item
/// delivered exactly once. CI runs this under -fsanitize=thread.
TEST(BatchCollectorHammerTest, ManyProducersManyConsumersExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 250;
  constexpr int kTotal = kProducers * kPerProducer;
  BatchCollector<int> bc({8, 32});
  std::vector<std::atomic<int>> seen(kTotal);
  for (auto& s : seen) s.store(0);
  std::atomic<int> delivered{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      for (;;) {
        const auto b = bc.collect();
        if (b.empty()) return;
        for (const int v : b) {
          seen[static_cast<std::size_t>(v)].fetch_add(1);
          delivered.fetch_add(1);
        }
      }
    });

  // A full queue answers Full and keeps nothing; the producer retries, as a
  // client retries a shed request.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * kPerProducer + i;
        for (;;) {
          const auto r = bc.try_submit(v);
          ASSERT_NE(r, BatchCollector<int>::Submit::Stopped);
          if (r == BatchCollector<int>::Submit::Ok) break;
          std::this_thread::yield();
        }
      }
    });
  for (auto& t : producers) t.join();
  while (delivered.load() < kTotal) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bc.stop();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(delivered.load(), kTotal);
  for (int i = 0; i < kTotal; ++i)
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
}

// ---- parallel config knobs ----------------------------------------------------

TEST(ParallelConfigTest, TestOverrideWinsOverEverything) {
  service::set_parallel_threads_for_test(5);
  EXPECT_EQ(service::parallel_threads(), 5);
  service::set_parallel_threads_for_test(0);
  EXPECT_EQ(service::parallel_threads(), 0);
  service::set_parallel_threads_for_test(-1);  // cleared
}

TEST(ParallelConfigTest, AdaptiveDefaultAppliesWhenEnvAbsent) {
  service::set_parallel_threads_for_test(-1);
  if (std::getenv("DLR_PARALLEL") != nullptr) GTEST_SKIP() << "env var set by runner";
  service::set_adaptive_parallel_default(3);
  EXPECT_EQ(service::parallel_threads(), 3);
  service::set_adaptive_parallel_default(0);
  EXPECT_EQ(service::parallel_threads(), 0);
  service::set_adaptive_parallel_default(-1);  // cleared -> serial fallback
  EXPECT_EQ(service::parallel_threads(), 0);
}

TEST(ParallelConfigTest, SuppressGuardNestsAndIsThreadLocal) {
  EXPECT_FALSE(service::fanout_suppressed());
  {
    service::FanoutSuppressGuard outer(true);
    EXPECT_TRUE(service::fanout_suppressed());
    {
      service::FanoutSuppressGuard inner(true);
      EXPECT_TRUE(service::fanout_suppressed());
      // Another thread is unaffected -- the guard is thread_local.
      bool other = true;
      std::thread([&] { other = service::fanout_suppressed(); }).join();
      EXPECT_FALSE(other);
    }
    EXPECT_TRUE(service::fanout_suppressed());
    service::FanoutSuppressGuard inactive(false);
    EXPECT_TRUE(service::fanout_suppressed());
  }
  EXPECT_FALSE(service::fanout_suppressed());
}

TEST(ParallelConfigTest, SuppressGuardForcesSerialParFor) {
  service::set_parallel_threads_for_test(3);
  std::atomic<int> ran{0};
  {
    service::FanoutSuppressGuard guard(true);
    service::par_for(8, [&](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 8);
  service::set_parallel_threads_for_test(-1);
}

}  // namespace
}  // namespace dlr
