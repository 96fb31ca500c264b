// Multi-tenant keystore (DESIGN.md §11): the segmented journal and its
// compaction crash matrix, consistent-hash shard placement, the
// budget-driven refresh scheduler, the per-key two-phase epoch machine, and
// the sharded service end-to-end -- routing with WrongShard redirects,
// crash-restart recovery of a whole shard, the single-key client on a
// KsServer, a seeded chaos soak -- and a fuzz pass over every payload
// decoder of the wire.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <set>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "group/mock_group.hpp"
#include "keystore/keystore.hpp"
#include "keystore/ks_client.hpp"
#include "keystore/ks_protocol.hpp"
#include "keystore/ks_server.hpp"
#include "keystore/scheduler.hpp"
#include "keystore/segment_journal.hpp"
#include "keystore/shard_map.hpp"
#include "service/admin.hpp"
#include "service/client.hpp"
#include "telemetry/export.hpp"
#include "transport/fault.hpp"
#include "transport/mux.hpp"

namespace dlr::keystore {
namespace {

using group::make_mock;
using group::MockGroup;
using Core = schemes::DlrCore<MockGroup>;

schemes::DlrParams mock_params() {
  const auto gg = make_mock();
  return schemes::DlrParams::derive(gg.scalar_bits(), gg.scalar_bits());
}

std::string make_state_dir() {
  std::string tmpl = ::testing::TempDir() + "dlr_ks_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  return tmpl;
}

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---- segment journal ----------------------------------------------------------

TEST(SegmentJournalTest, LatestStateWinsAcrossReopenAndTombstonesDelete) {
  const auto dir = make_state_dir();
  const KeyId a{"acme", "mail"}, b{"acme", "web"}, c{"globex", "mail"};
  {
    SegmentJournal j(dir);
    j.append(a, bytes_of("a-v1"));
    j.append(b, bytes_of("b-v1"));
    j.append(a, bytes_of("a-v2"));
    j.append(c, bytes_of("c-v1"));
    j.tombstone(b);
    EXPECT_EQ(j.live_count(), 2u);
  }
  SegmentJournal j2(dir);
  auto live = j2.take_recovered();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live.at(a), bytes_of("a-v2"));
  EXPECT_EQ(live.at(c), bytes_of("c-v1"));
  EXPECT_EQ(live.count(b), 0u);
  EXPECT_GE(j2.recovery_stats().records, 5u);
}

TEST(SegmentJournalTest, RollsSegmentsAndCompactionPreservesTheLiveSet) {
  const auto dir = make_state_dir();
  SegmentJournal::Options opt;
  opt.segment_bytes = 64;  // every append or two rolls a segment
  opt.compact_min_segments = 4;
  SegmentJournal j(dir, opt);
  for (int i = 0; i < 40; ++i)
    j.append(KeyId{"t", "k" + std::to_string(i % 8)}, bytes_of("v" + std::to_string(i)));
  j.tombstone(KeyId{"t", "k0"});
  ASSERT_GT(j.segment_count(), 4u);
  EXPECT_TRUE(j.maybe_compact());
  EXPECT_EQ(j.compactions(), 1u);
  EXPECT_LE(j.segment_count(), 2u);
  EXPECT_EQ(j.live_count(), 7u);

  SegmentJournal j2(dir, opt);
  auto live = j2.take_recovered();
  ASSERT_EQ(live.size(), 7u);
  for (int k = 1; k < 8; ++k) {
    // Latest write to k is the last i with i % 8 == k.
    EXPECT_EQ(live.at(KeyId{"t", "k" + std::to_string(k)}),
              bytes_of("v" + std::to_string(32 + k)));
  }
}

TEST(SegmentJournalTest, TornTailIsTruncatedNotFatal) {
  const auto dir = make_state_dir();
  const KeyId a{"t", "a"}, b{"t", "b"};
  {
    SegmentJournal j(dir);
    j.append(a, bytes_of("a-v1"));
    j.append(b, bytes_of("b-v1"));
  }
  // Shear the final record mid-write, as a crash during append would.
  std::filesystem::path last;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (last.empty() || e.path().filename() > last.filename()) last = e.path();
  ASSERT_FALSE(last.empty());
  const auto sz = std::filesystem::file_size(last);
  ASSERT_GT(sz, 3u);
  std::filesystem::resize_file(last, sz - 3);

  SegmentJournal j2(dir);
  EXPECT_EQ(j2.recovery_stats().torn_tails, 1u);
  auto live = j2.take_recovered();
  ASSERT_EQ(live.size(), 1u);  // the record before the tear survives
  EXPECT_EQ(live.at(a), bytes_of("a-v1"));

  // The journal keeps working after the tear: the lost record is simply a
  // state the caller never got an ack for.
  j2.append(b, bytes_of("b-v2"));
  SegmentJournal j3(dir);
  EXPECT_EQ(j3.take_recovered().at(b), bytes_of("b-v2"));
}

TEST(SegmentJournalTest, CompactionCrashAtEveryStepLosesNothing) {
  // Satellite (c): simulate a crash AFTER each compaction step by throwing
  // from the hook, reopen from disk, and require the exact same live map
  // every time -- zero lost shares, zero resurrected tombstones.
  const std::vector<const char*> steps = {
      "compact.tmp_open", "compact.tmp_write", "compact.tmp_fsync",
      "compact.rename",   "compact.dir_fsync", "compact.unlink",
  };
  for (const char* crash_at : steps) {
    SCOPED_TRACE(crash_at);
    const auto dir = make_state_dir();
    SegmentJournal::Options opt;
    opt.segment_bytes = 64;
    opt.compact_min_segments = 2;

    std::unordered_map<KeyId, Bytes, KeyIdHash> expected;
    {
      SegmentJournal j(dir, opt);
      for (int i = 0; i < 30; ++i) {
        const KeyId id{"t" + std::to_string(i % 3), "k" + std::to_string(i % 5)};
        const Bytes v = bytes_of("v" + std::to_string(i));
        j.append(id, v);
        expected[id] = v;
      }
      const KeyId dead{"t0", "k0"};
      j.tombstone(dead);
      expected.erase(dead);

      j.set_crash_hook([&](const char* step) {
        if (std::string(step) == crash_at) throw std::runtime_error("injected crash");
      });
      EXPECT_THROW(j.compact(), std::runtime_error);
      // The object is dead after a mid-compaction crash; recovery is disk-only.
    }

    SegmentJournal j2(dir, opt);
    EXPECT_EQ(j2.recovery_stats().tmp_removed + 0u, j2.recovery_stats().tmp_removed)
        << "stats accessible";
    auto live = j2.take_recovered();
    EXPECT_EQ(live.size(), expected.size());
    for (const auto& [id, v] : expected) {
      ASSERT_EQ(live.count(id), 1u) << "lost " << id.display();
      EXPECT_EQ(live.at(id), v) << "wrong state for " << id.display();
    }
    // And the reopened journal can complete the interrupted compaction.
    j2.compact();
    SegmentJournal j3(dir, opt);
    EXPECT_EQ(j3.take_recovered().size(), expected.size());
  }
}

// ---- shard map ----------------------------------------------------------------

TEST(ShardMapTest, PlacementIsDeterministicAndCodecStable) {
  ShardMap m(7, {{0, "", 9001}, {1, "", 9002}, {2, "", 9003}});
  const ShardMap m2 = ShardMap::decode(m.encode());
  EXPECT_EQ(m, m2);
  EXPECT_EQ(m2.version(), 7u);
  for (int i = 0; i < 200; ++i) {
    const KeyId id{"tenant" + std::to_string(i % 11), "key" + std::to_string(i)};
    EXPECT_EQ(m.owner(id), m2.owner(id));
    EXPECT_LT(m.owner(id), 3u);
  }
  EXPECT_NE(m.shard(1), nullptr);
  EXPECT_EQ(m.shard(1)->port, 9002);
  EXPECT_EQ(m.shard(9), nullptr);
}

TEST(ShardMapTest, VirtualNodesBalanceTheLoad) {
  ShardMap m(1, {{0, "", 1}, {1, "", 2}});
  int count0 = 0;
  constexpr int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i)
    if (m.owner(KeyId{"t" + std::to_string(i % 101), "k" + std::to_string(i)}) == 0)
      ++count0;
  EXPECT_GT(count0, kKeys * 30 / 100) << "shard 0 badly underloaded";
  EXPECT_LT(count0, kKeys * 70 / 100) << "shard 0 badly overloaded";
}

TEST(ShardMapTest, AddingAShardOnlyMovesKeysOntoIt) {
  ShardMap before(1, {{0, "", 1}, {1, "", 2}, {2, "", 3}});
  ShardMap after(2, {{0, "", 1}, {1, "", 2}, {2, "", 3}, {3, "", 4}});
  constexpr int kKeys = 4000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const KeyId id{"t" + std::to_string(i % 37), "k" + std::to_string(i)};
    const auto was = before.owner(id), is = after.owner(id);
    if (was != is) {
      ++moved;
      EXPECT_EQ(is, 3u) << "rebalance moved a key between OLD shards";
    }
  }
  // Expected move fraction is ~1/4; anything under half shows minimality.
  EXPECT_LT(moved, kKeys / 2);
  EXPECT_GT(moved, 0);
}

TEST(ShardMapTest, EmptyMapMeansUnsharded) {
  ShardMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.owner(KeyId{"any", "key"}), 0u);
  EXPECT_EQ(ShardMap::decode(m.encode()), m);
}

/// ShardMap::encode() of `shards` with each port written as the raw u32 the
/// wire carries, so a test can put any value there.
Bytes raw_map(std::uint64_t version,
              const std::vector<std::pair<std::uint32_t, std::uint32_t>>& shards) {
  ByteWriter w;
  w.u64(version);
  w.u32(static_cast<std::uint32_t>(shards.size()));
  for (const auto& [id, port] : shards) {
    w.u32(id);
    w.str("");
    w.u32(port);
  }
  return w.take();
}

TEST(ShardMapTest, DecodeRejectsAPortAboveSixteenBitsAndARepeatedShardId) {
  // Both maps arrive from outside (ks.map.propose, ks.map.ok). A port above
  // 65535 would be cut to 16 bits and route to the wrong port; a repeated id
  // would leave its second address unreachable through shard().
  EXPECT_EQ(ShardMap::decode(raw_map(3, {{0, 9001}, {1, 65535}})).shard(1)->port, 65535);
  EXPECT_THROW((void)ShardMap::decode(raw_map(3, {{0, 9001}, {1, 65536 + 9002}})),
               std::invalid_argument);
  EXPECT_THROW((void)ShardMap::decode(raw_map(3, {{0, 9001}, {1, 9002}, {0, 9003}})),
               std::invalid_argument);

  // On the wire, ks.map.propose answers either map with BadRequest and
  // installs nothing.
  const MockGroup gg = make_mock();
  KsServer<MockGroup> server(gg, mock_params(), crypto::Rng(7390),
                             KsServer<MockGroup>::Options{});
  server.start();
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(server.port())));
  for (const Bytes& bad : {raw_map(3, {{0, 9001}, {1, 65536 + 9002}}),
                           raw_map(3, {{0, 9001}, {0, 9003}})}) {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, 1, kKsMapPropose, encode_ks_map_propose(bad));
    const auto resp = sess->recv(transport::Millis{5000});
    ASSERT_EQ(resp.type, transport::FrameType::Error);
    EXPECT_EQ(service::decode_error(resp.body).code(), service::ServiceErrc::BadRequest);
  }
  EXPECT_TRUE(server.shard_map().empty());
  server.stop();
}

// ---- refresh scheduler --------------------------------------------------------

TEST(RefreshSchedulerTest, RefreshesMostSpentFirstWithoutDuplicates) {
  std::mutex mu;
  std::vector<KeyId> order;
  std::atomic<bool> first_sweep{true};
  RefreshScheduler::Options opt;
  opt.sweep_interval = std::chrono::hours(1);  // only manual sweeps
  opt.max_concurrent = 1;                      // serialize to observe ordering
  RefreshScheduler sched(
      [&]() -> std::vector<RefreshScheduler::Candidate> {
        if (!first_sweep.exchange(false)) return {};
        return {{KeyId{"t", "low"}, 0.55},
                {KeyId{"t", "high"}, 0.95},
                {KeyId{"t", "mid"}, 0.70},
                {KeyId{"t", "high"}, 0.95}};  // duplicate: must run once
      },
      [&](const KeyId& id) {
        std::lock_guard lk(mu);
        order.push_back(id);
        return true;
      },
      opt);
  sched.start();
  sched.sweep_now();
  ASSERT_TRUE(sched.wait_idle(std::chrono::milliseconds(5000)));
  sched.stop();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].key, "high");
  EXPECT_EQ(order[1].key, "mid");
  EXPECT_EQ(order[2].key, "low");
  EXPECT_EQ(sched.refreshes(), 3u);
  EXPECT_EQ(sched.failures(), 0u);
}

TEST(RefreshSchedulerTest, ConcurrentRefreshesAreBounded) {
  std::mutex mu;
  std::condition_variable cv;
  int running = 0, peak = 0, done = 0;
  std::atomic<bool> first_sweep{true};
  RefreshScheduler::Options opt;
  opt.sweep_interval = std::chrono::hours(1);
  opt.max_concurrent = 2;
  RefreshScheduler sched(
      [&]() -> std::vector<RefreshScheduler::Candidate> {
        if (!first_sweep.exchange(false)) return {};
        std::vector<RefreshScheduler::Candidate> c;
        for (int i = 0; i < 6; ++i) c.push_back({KeyId{"t", "k" + std::to_string(i)}, 1.0});
        return c;
      },
      [&](const KeyId&) {
        std::unique_lock lk(mu);
        peak = std::max(peak, ++running);
        cv.wait_for(lk, std::chrono::milliseconds(20));
        --running;
        ++done;
        cv.notify_all();
        return true;
      },
      opt);
  sched.start();
  sched.sweep_now();
  ASSERT_TRUE(sched.wait_idle(std::chrono::milliseconds(10000)));
  sched.stop();
  EXPECT_EQ(done, 6);
  EXPECT_LE(peak, 2) << "max_concurrent violated";
  EXPECT_GE(peak, 1);
}

TEST(RefreshSchedulerTest, FailedKeyRequalifiesOnTheNextSweep) {
  std::atomic<int> attempts{0};
  RefreshScheduler::Options opt;
  opt.sweep_interval = std::chrono::hours(1);
  opt.max_concurrent = 1;
  RefreshScheduler sched(
      [&]() -> std::vector<RefreshScheduler::Candidate> {
        return attempts.load() < 2
                   ? std::vector<RefreshScheduler::Candidate>{{KeyId{"t", "k"}, 0.9}}
                   : std::vector<RefreshScheduler::Candidate>{};
      },
      [&](const KeyId&) { return attempts.fetch_add(1) >= 1; },  // fail once
      opt);
  sched.start();
  sched.sweep_now();
  ASSERT_TRUE(sched.wait_idle(std::chrono::milliseconds(5000)));
  sched.sweep_now();  // key is no longer busy: re-enqueued and succeeds
  ASSERT_TRUE(sched.wait_idle(std::chrono::milliseconds(5000)));
  sched.stop();
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(sched.refreshes(), 1u);
  EXPECT_EQ(sched.failures(), 1u);
}

// ---- keystore (per-key epoch machines) ----------------------------------------

/// A keystore plus matching P1 halves, driving the wire-free protocol.
struct StoreRig {
  MockGroup gg = make_mock();
  schemes::DlrParams prm = mock_params();
  std::optional<KeyStore<MockGroup>> store;
  std::unordered_map<KeyId, Core::KeyGenResult, KeyIdHash> kgs;
  std::unordered_map<KeyId, std::optional<schemes::DlrParty1<MockGroup>>, KeyIdHash> p1s;
  std::uint64_t seed;

  explicit StoreRig(std::uint64_t seed_, typename KeyStore<MockGroup>::Options opt = {})
      : seed(seed_) {
    store.emplace(gg, prm, crypto::Rng(seed), std::move(opt));
  }

  void add(const KeyId& id) {
    crypto::Rng rng(seed + key_hash(id));
    auto kg = Core::gen(gg, prm, rng);
    store->put(id, kg.sk2);
    auto& p1 = p1s[id];
    p1.emplace(gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain,
               crypto::Rng(seed + key_hash(id) + 1));
    p1->prepare_period();
    kgs.emplace(id, std::move(kg));
  }

  [[nodiscard]] bool roundtrip(const KeyId& id, std::uint64_t epoch, crypto::Rng& rng) {
    auto& p1 = *p1s.at(id);
    const auto m = gg.gt_random(rng);
    const auto c = Core::enc(gg, kgs.at(id).pk, m, rng);
    const Bytes r1 = p1.dec_round1(c, rng);
    const auto sigma = p1.period_sigma_gt();
    const auto out = store->dec_session(id).run(epoch, r1);
    return gg.gt_eq(p1.dec_finish_with(sigma, out.reply), m);
  }

  void refresh(const KeyId& id, std::uint64_t epoch) {
    auto& p1 = *p1s.at(id);
    const Bytes r1 = p1.ref_round1();
    const Bytes reply = store->ref_prepare(id, epoch, r1);
    store->ref_commit(id, epoch, crypto::digest_to_bytes(crypto::Sha256::hash(r1)));
    p1.ref_finish(reply);
    p1.prepare_period();
  }
};

TEST(KeyStoreTest, IndependentPerKeyEpochMachines) {
  StoreRig rig(100);
  const KeyId a{"acme", "mail"}, b{"acme", "web"}, c{"globex", "db"};
  rig.add(a);
  rig.add(b);
  rig.add(c);
  EXPECT_EQ(rig.store->size(), 3u);

  crypto::Rng rng(1);
  EXPECT_TRUE(rig.roundtrip(a, 0, rng));
  EXPECT_TRUE(rig.roundtrip(b, 0, rng));

  rig.refresh(a, 0);  // only a moves
  EXPECT_EQ(rig.store->epoch_of(a), 1u);
  EXPECT_EQ(rig.store->epoch_of(b), 0u);
  EXPECT_TRUE(rig.roundtrip(a, 1, rng));
  EXPECT_TRUE(rig.roundtrip(b, 0, rng));
  EXPECT_TRUE(rig.roundtrip(c, 0, rng));

  // Stale epochs are typed, retryable, and name the server epoch.
  try {
    (void)rig.store->dec_session(a).run(0, Bytes{1});
    FAIL() << "stale epoch accepted";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ServiceErrc::StaleEpoch);
    EXPECT_TRUE(e.retryable());
    EXPECT_EQ(e.server_epoch(), 1u);
  }
  // Unknown keys are typed and NOT retryable.
  try {
    (void)rig.store->dec_session(KeyId{"nope", "nope"}).run(0, Bytes{1});
    FAIL() << "unknown key accepted";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ServiceErrc::UnknownKey);
    EXPECT_FALSE(e.retryable());
  }
}

TEST(KeyStoreTest, HelloVerdictTablePerKey) {
  StoreRig rig(200);
  const KeyId id{"acme", "mail"};
  rig.add(id);
  auto& p1 = *rig.p1s.at(id);

  // Prepared but never committed -> hello(pending@0) vs server@0 = Rollback,
  // and the rolled-back digest cannot be resurrected by a stray prepare.
  const Bytes r1 = p1.ref_round1();
  const Bytes digest = crypto::digest_to_bytes(crypto::Sha256::hash(r1));
  (void)rig.store->ref_prepare(id, 0, r1);
  EXPECT_TRUE(rig.store->has_pending(id));
  service::HelloMsg h;
  h.epoch = 0;
  h.has_pending = true;
  h.pending_epoch = 0;
  h.pending_digest = digest;
  auto ok = rig.store->hello(id, h);
  EXPECT_EQ(ok.disposition, service::RefDisposition::Rollback);
  EXPECT_FALSE(rig.store->has_pending(id));
  EXPECT_THROW((void)rig.store->ref_prepare(id, 0, r1), service::ServiceError);
  p1.end_period();
  p1.prepare_period();  // client rolls back too

  // Prepared AND committed -> hello(pending@0) vs server@1 = Commit.
  const Bytes r1b = p1.ref_round1();
  const Bytes digestb = crypto::digest_to_bytes(crypto::Sha256::hash(r1b));
  const Bytes reply = rig.store->ref_prepare(id, 0, r1b);
  rig.store->ref_commit(id, 0, digestb);
  h.pending_digest = digestb;
  ok = rig.store->hello(id, h);
  EXPECT_EQ(ok.disposition, service::RefDisposition::Commit);
  EXPECT_EQ(ok.server_epoch, 1u);
  p1.ref_finish(reply);
  p1.prepare_period();

  // Matching epochs, no pending -> None. Diverged -> epoch fork, not a lie.
  h.has_pending = false;
  h.epoch = 1;
  EXPECT_EQ(rig.store->hello(id, h).disposition, service::RefDisposition::None);
  h.epoch = 5;
  EXPECT_THROW((void)rig.store->hello(id, h), service::ServiceError);

  crypto::Rng rng(3);
  EXPECT_TRUE(rig.roundtrip(id, 1, rng));
}

TEST(KeyStoreTest, BudgetAccountingFeedsCandidatesAndResetsOnCommit) {
  typename KeyStore<MockGroup>::Options opt;
  opt.budget_bits = 4;
  opt.leak_per_dec_bits = 1;
  opt.refresh_threshold = 0.5;
  StoreRig rig(300, opt);
  const KeyId id{"acme", "mail"};
  rig.add(id);

  crypto::Rng rng(4);
  EXPECT_TRUE(rig.roundtrip(id, 0, rng));
  EXPECT_TRUE(rig.store->candidates().empty()) << "1/4 spent is below threshold";
  EXPECT_DOUBLE_EQ(rig.store->spent_frac(id), 0.25);

  EXPECT_TRUE(rig.roundtrip(id, 0, rng));
  const auto cands = rig.store->candidates();
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].id, id);
  EXPECT_DOUBLE_EQ(cands[0].spent_frac, 0.5);

  rig.refresh(id, 0);
  EXPECT_DOUBLE_EQ(rig.store->spent_frac(id), 0.0) << "commit must start a fresh period";
  EXPECT_TRUE(rig.store->candidates().empty());
}

TEST(KeyStoreTest, DecryptionsServedWhilePreparedCarryIntoTheNextPeriod) {
  // P2's memory holds the candidate share from PREPARE to COMMIT, so a
  // decryption served in that window is charged to the current period and
  // carried into the next one; a rollback drops the carry (the candidate is
  // gone), and a commit with nothing carried starts from zero.
  typename KeyStore<MockGroup>::Options opt;
  opt.budget_bits = 8;
  opt.leak_per_dec_bits = 1;
  StoreRig rig(310, opt);
  const KeyId id{"acme", "mail"};
  rig.add(id);
  auto& p1 = *rig.p1s.at(id);
  crypto::Rng rng(5);
  EXPECT_TRUE(rig.roundtrip(id, 0, rng));

  const Bytes r1 = p1.ref_round1();
  const Bytes reply = rig.store->ref_prepare(id, 0, r1);
  EXPECT_TRUE(rig.roundtrip(id, 0, rng));
  EXPECT_TRUE(rig.roundtrip(id, 0, rng));
  EXPECT_DOUBLE_EQ(rig.store->spent_frac(id), 3.0 / 8) << "the overlap counts in this period";
  rig.store->ref_commit(id, 0, crypto::digest_to_bytes(crypto::Sha256::hash(r1)));
  p1.ref_finish(reply);
  p1.prepare_period();
  EXPECT_DOUBLE_EQ(rig.store->spent_frac(id), 2.0 / 8) << "and is carried into the next";

  const Bytes r1b = p1.ref_round1();
  (void)rig.store->ref_prepare(id, 1, r1b);
  EXPECT_TRUE(rig.roundtrip(id, 1, rng));
  service::HelloMsg h;
  h.epoch = 1;
  h.has_pending = true;
  h.pending_epoch = 1;
  h.pending_digest = crypto::digest_to_bytes(crypto::Sha256::hash(r1b));
  EXPECT_EQ(rig.store->hello(id, h).disposition, service::RefDisposition::Rollback);
  p1.end_period();
  p1.prepare_period();
  EXPECT_DOUBLE_EQ(rig.store->spent_frac(id), 3.0 / 8);
  rig.refresh(id, 1);
  EXPECT_DOUBLE_EQ(rig.store->spent_frac(id), 0.0) << "a rolled-back refresh carries nothing";
}

TEST(KeyStoreTest, RecordsWithoutTheInstalledDigestStillLoad) {
  // A key record journaled before the installed (epoch, digest) trailer
  // existed still loads; with the digest unknown, a duplicate COMMIT or a
  // pending hello for the previous epoch is answered as before (by epoch).
  // The next install records its digest, which then survives a restart.
  const auto dir = make_state_dir();
  MockGroup gg = make_mock();
  const auto prm = mock_params();
  crypto::Rng rng(320);
  const auto kg = Core::gen(gg, prm, rng);
  const KeyId id{"acme", "old"};
  {
    SegmentJournal j(dir);
    ByteWriter w;
    w.u64(3);  // epoch
    ByteWriter sw;
    Core::ser_sk2(gg, sw, kg.sk2);
    w.blob(sw.bytes());
    w.u8(0);        // no pending refresh
    w.blob(Bytes{});  // no rolled-back digest
    w.u8(0);        // MigState::None
    j.append(id, w.take());
  }
  typename KeyStore<MockGroup>::Options opt;
  opt.state_dir = dir;
  const Bytes any(32, 0x17);
  {
    KeyStore<MockGroup> store(gg, prm, crypto::Rng(321), opt);
    EXPECT_EQ(store.epoch_of(id), 3u);
    EXPECT_EQ(store.ref_commit(id, 2, any), 3u);
    service::HelloMsg h;
    h.epoch = 2;
    h.has_pending = true;
    h.pending_epoch = 2;
    h.pending_digest = any;
    EXPECT_EQ(store.hello(id, h).disposition, service::RefDisposition::Commit);

    schemes::DlrParty1<MockGroup> p1(gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain,
                                     crypto::Rng(322));
    const Bytes r1 = p1.ref_round1();
    (void)store.ref_prepare(id, 3, r1);
    EXPECT_EQ(store.ref_commit(id, 3, crypto::digest_to_bytes(crypto::Sha256::hash(r1))), 4u);
  }
  KeyStore<MockGroup> reopened(gg, prm, crypto::Rng(323), opt);
  EXPECT_EQ(reopened.epoch_of(id), 4u);
  try {
    (void)reopened.ref_commit(id, 3, any);
    FAIL() << "a commit for a digest that was never installed was acked after restart";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ServiceErrc::StaleEpoch);
  }
}

TEST(KeyStoreTest, CrashRecoveryRestoresEveryKeyEpochAndPending) {
  const auto dir = make_state_dir();
  constexpr int kKeys = 12;
  Bytes digest_before;
  std::optional<StoreRig> rig;
  {
    typename KeyStore<MockGroup>::Options opt;
    opt.state_dir = dir;
    opt.journal.segment_bytes = 1024;  // force several segments
    rig.emplace(400, opt);
    for (int i = 0; i < kKeys; ++i)
      rig->add(KeyId{"t" + std::to_string(i % 3), "k" + std::to_string(i)});
    // A mixed fleet: some keys refreshed once, one twice, one mid-2PC.
    rig->refresh(KeyId{"t0", "k0"}, 0);
    rig->refresh(KeyId{"t1", "k1"}, 0);
    rig->refresh(KeyId{"t1", "k1"}, 1);
    (void)rig->store->ref_prepare(KeyId{"t2", "k2"}, 0,
                                  rig->p1s.at(KeyId{"t2", "k2"})->ref_round1());
    digest_before = rig->store->digest_all();
    rig->store.reset();  // "crash": no clean shutdown beyond journal appends
  }

  typename KeyStore<MockGroup>::Options opt;
  opt.state_dir = dir;
  // Decoy rng: recovery must come from the journal, not construction args.
  KeyStore<MockGroup> recovered(rig->gg, rig->prm, crypto::Rng(999999), opt);
  EXPECT_EQ(recovered.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(recovered.digest_all(), digest_before);
  EXPECT_EQ(recovered.epoch_of(KeyId{"t0", "k0"}), 1u);
  EXPECT_EQ(recovered.epoch_of(KeyId{"t1", "k1"}), 2u);
  EXPECT_EQ(recovered.epoch_of(KeyId{"t0", "k3"}), 0u);
  EXPECT_TRUE(recovered.has_pending(KeyId{"t2", "k2"}))
      << "mid-2PC prepare must survive the crash";

  // The recovered store still decrypts (share bytes, not just bookkeeping).
  crypto::Rng rng(5);
  const KeyId id{"t0", "k3"};
  auto& p1 = *rig->p1s.at(id);
  const auto m = rig->gg.gt_random(rng);
  const auto c = Core::enc(rig->gg, rig->kgs.at(id).pk, m, rng);
  const Bytes r1 = p1.dec_round1(c, rng);
  const auto sigma = p1.period_sigma_gt();
  const auto out = recovered.dec_session(id).run(0, r1);
  EXPECT_TRUE(rig->gg.gt_eq(p1.dec_finish_with(sigma, out.reply), m));
}

// ---- sharded service end-to-end -----------------------------------------------

/// Two KsServer shards + a KsFleet, with per-key keygens.
struct TwoShards {
  MockGroup gg = make_mock();
  schemes::DlrParams prm = mock_params();
  std::unique_ptr<KsServer<MockGroup>> s0, s1;
  std::optional<KsFleet<MockGroup>> fleet;
  std::unordered_map<KeyId, Core::KeyGenResult, KeyIdHash> kgs;
  std::uint64_t seed;

  explicit TwoShards(std::uint64_t seed_, typename KsServer<MockGroup>::Options o0 = {},
                     typename KsServer<MockGroup>::Options o1 = {},
                     typename KsFleet<MockGroup>::Options fo = {})
      : seed(seed_) {
    o0.shard_id = 0;
    o1.shard_id = 1;
    s0 = std::make_unique<KsServer<MockGroup>>(gg, prm, crypto::Rng(seed), o0);
    s1 = std::make_unique<KsServer<MockGroup>>(gg, prm, crypto::Rng(seed + 1), o1);
    s0->start();
    s1->start();
    install_map(1);
    fleet.emplace(gg, prm, crypto::Rng(seed + 2), s0->port(), std::move(fo));
  }

  void install_map(std::uint64_t version) {
    const ShardMap m(version, {{0, "", s0->port()}, {1, "", s1->port()}});
    s0->set_shard_map(m);
    s1->set_shard_map(m);
  }

  /// Keygen + register the P1 half locally + provision the P2 half through
  /// the fleet's routed ks.put.
  void add(const KeyId& id) {
    crypto::Rng rng(seed + key_hash(id));
    auto kg = Core::gen(gg, prm, rng);
    fleet->add_key(id, kg.pk, kg.sk1, schemes::P1Mode::Plain);
    fleet->provision(id, kg.sk2);
    kgs.emplace(id, std::move(kg));
  }

  [[nodiscard]] bool roundtrip(const KeyId& id, crypto::Rng& rng) {
    const auto m = gg.gt_random(rng);
    const auto c = Core::enc(gg, kgs.at(id).pk, m, rng);
    return gg.gt_eq(fleet->decrypt(id, c), m);
  }

  ~TwoShards() {
    if (fleet) fleet->close();
    if (s0) s0->stop();
    if (s1) s1->stop();
  }
};

std::vector<KeyId> test_keys(int n) {
  std::vector<KeyId> out;
  const char* tenants[] = {"acme", "globex", "initech"};
  for (int i = 0; i < n; ++i)
    out.push_back({tenants[i % 3], "key" + std::to_string(i)});
  return out;
}

TEST(KsServiceTest, TwoShardFleetDecryptsProvisionsAndRefreshes) {
  TwoShards svc(7100);
  const auto keys = test_keys(8);
  for (const auto& id : keys) svc.add(id);

  // The installed map must actually split the keys (else the test is vacuous).
  EXPECT_GT(svc.s0->store().size(), 0u);
  EXPECT_GT(svc.s1->store().size(), 0u);
  EXPECT_EQ(svc.s0->store().size() + svc.s1->store().size(), keys.size());
  // The fleet started with an empty map: provisioning keys owned by shard 1
  // through the shard-0 bootstrap must have triggered at least one
  // WrongShard -> ks.map refetch -> re-route cycle.
  EXPECT_GE(svc.fleet->map_refetches(), 1u);
  EXPECT_EQ(svc.fleet->map().version(), 1u);

  crypto::Rng rng(6);
  for (const auto& id : keys) EXPECT_TRUE(svc.roundtrip(id, rng));

  svc.fleet->refresh_key(keys[0]);
  svc.fleet->refresh_key(keys[1]);
  EXPECT_EQ(svc.fleet->epoch_of(keys[0]), 1u);
  EXPECT_EQ(svc.s0->store().contains(keys[0])
                ? svc.s0->store().epoch_of(keys[0])
                : svc.s1->store().epoch_of(keys[0]),
            1u);
  for (const auto& id : keys) EXPECT_TRUE(svc.roundtrip(id, rng));
}

TEST(KsServiceTest, StaleMapGetsWrongShardThenRefetchesAndReroutes) {
  TwoShards svc(7200);
  const auto keys = test_keys(6);
  for (const auto& id : keys) svc.add(id);

  // Find a key shard 1 owns, then poison the fleet with a stale single-shard
  // map claiming shard 0 owns everything. The poison must change OWNERSHIP,
  // not just addresses: the fleet caches one mux per shard id, so a map that
  // keeps both shard ids would keep routing over the already-connected (and
  // correct) shard-1 mux and never hit the redirect path.
  svc.install_map(2);
  const ShardMap real = svc.s0->shard_map();
  std::optional<KeyId> on1;
  for (const auto& id : keys)
    if (real.owner(id) == 1) on1 = id;
  ASSERT_TRUE(on1.has_value());
  svc.fleet->set_map(ShardMap(1, {{0, "", svc.s0->port()}}));

  const auto before = svc.fleet->map_refetches();
  crypto::Rng rng(7);
  EXPECT_TRUE(svc.roundtrip(*on1, rng)) << "redirect failed to reroute";
  EXPECT_GT(svc.fleet->map_refetches(), before);
  EXPECT_EQ(svc.fleet->map().version(), 2u) << "fleet failed to adopt the server map";
}

TEST(KsServiceTest, BackgroundSchedulerHoldsEveryKeyBelowItsBudget) {
  // Server charges 1 bit per decryption against a 6-bit budget; the fleet
  // scheduler refreshes at 50%. Hammer decryptions across keys and require
  // that no key ever reaches its budget -- the scheduler, not the client
  // loop, is what keeps the fleet inside the continual-leakage envelope.
  typename KsServer<MockGroup>::Options so;
  so.store.budget_bits = 6;
  so.store.leak_per_dec_bits = 1;
  so.store.refresh_threshold = 0.5;
  typename KsFleet<MockGroup>::Options fo;
  fo.refresh_threshold = 0.5;
  fo.scheduler.sweep_interval = std::chrono::milliseconds(5);
  fo.scheduler.max_concurrent = 2;
  TwoShards svc(7300, so, so, fo);
  const auto keys = test_keys(4);
  for (const auto& id : keys) svc.add(id);
  svc.fleet->start_scheduler();

  crypto::Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    const auto& id = keys[i % keys.size()];
    ASSERT_TRUE(svc.roundtrip(id, rng));
    // The piggybacked accounting mirror is what the scheduler sweeps.
    ASSERT_LT(svc.fleet->spent_frac(id), 1.0)
        << id.display() << " exhausted its leakage budget";
    // Pace the hammer at the sweep cadence: each key gains 1 bit per
    // keys.size()*2ms, so crossing the 50% threshold leaves the scheduler
    // several sweep intervals before the budget line.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  svc.fleet->stop_scheduler();
  EXPECT_GT(svc.fleet->scheduler()->refreshes(), 0u)
      << "budget pressure never triggered a background refresh";
  std::uint64_t total_epochs = 0;
  for (const auto& id : keys) total_epochs += svc.fleet->epoch_of(id);
  EXPECT_GT(total_epochs, 0u);
  for (const auto& id : keys) EXPECT_TRUE(svc.roundtrip(id, rng));
}

TEST(KsServiceTest, ShardCrashRestartRecoversAllKeysFromSegmentedJournals) {
  const auto dir0 = make_state_dir();
  typename KsServer<MockGroup>::Options so;
  so.store.state_dir = dir0;
  so.store.journal.segment_bytes = 4096;
  TwoShards svc(7400, so);
  const auto keys = test_keys(10);
  for (const auto& id : keys) svc.add(id);
  svc.fleet->refresh_key(keys[0]);
  svc.fleet->refresh_key(keys[3]);

  crypto::Rng rng(9);
  for (const auto& id : keys) ASSERT_TRUE(svc.roundtrip(id, rng));

  const auto n0 = svc.s0->store().size();
  ASSERT_GT(n0, 0u);
  const Bytes digest = svc.s0->store().digest_all();

  // Crash shard 0 (destroy the process object) and restart from its journal
  // directory; the seed rng differs, so state can only come from disk.
  svc.s0->stop();
  svc.s0.reset();
  typename KsServer<MockGroup>::Options so2;
  so2.shard_id = 0;
  so2.store.state_dir = dir0;
  svc.s0 = std::make_unique<KsServer<MockGroup>>(svc.gg, svc.prm, crypto::Rng(424243), so2);
  svc.s0->start();

  EXPECT_EQ(svc.s0->store().size(), n0) << "restart lost keys";
  EXPECT_EQ(svc.s0->store().digest_all(), digest)
      << "restart changed a share or an epoch";

  // The restarted shard listens on a new port: publish a v2 map and let the
  // fleet rediscover it through its normal retry path (the old connection
  // fails, the map refetch on shard 1 serves the new address).
  svc.install_map(2);
  svc.fleet->fetch_map(svc.s1->port());
  for (const auto& id : keys) EXPECT_TRUE(svc.roundtrip(id, rng));
}

/// Conn wrapper that severs the connection exactly once, at the first
/// outbound frame carrying `label`. `forward` picks which half of the 2PC
/// window breaks: true forwards the frame first (the request reaches the
/// server, its ACK is lost), false drops it (the request never arrives).
class SeverAtLabel final : public transport::Conn {
 public:
  SeverAtLabel(std::shared_ptr<transport::Conn> under, std::string label, bool forward,
               std::shared_ptr<std::atomic<bool>> fired)
      : under_(std::move(under)),
        label_(std::move(label)),
        forward_(forward),
        fired_(std::move(fired)) {}

  void send(const transport::Frame& f) override {
    if (f.type == transport::FrameType::Data && f.label == label_ &&
        !fired_->exchange(true)) {
      if (forward_) under_->send(f);
      throw transport::TransportError(transport::Errc::ConnectionClosed,
                                      "injected sever at " + label_);
    }
    under_->send(f);
  }
  transport::Frame recv(std::optional<transport::Millis> timeout) override {
    return under_->recv(timeout);
  }
  void shutdown() noexcept override { under_->shutdown(); }

 private:
  std::shared_ptr<transport::Conn> under_;
  std::string label_;
  bool forward_;
  std::shared_ptr<std::atomic<bool>> fired_;
};

/// Server-side connection wrapper that holds every outbound frame carrying
/// `label` for `hold` before sending it. It runs on the replying worker's
/// thread and takes no lock while it waits, so other replies on the same
/// connection (a client lane shared with another thread) pass meanwhile.
class HoldLabel final : public transport::Conn {
 public:
  HoldLabel(std::shared_ptr<transport::Conn> under, std::string label, transport::Millis hold)
      : under_(std::move(under)), label_(std::move(label)), hold_(hold) {}

  void send(const transport::Frame& f) override {
    if (f.label == label_) std::this_thread::sleep_for(hold_);
    under_->send(f);
  }
  transport::Frame recv(std::optional<transport::Millis> timeout) override {
    return under_->recv(timeout);
  }
  void shutdown() noexcept override { under_->shutdown(); }

 private:
  std::shared_ptr<transport::Conn> under_;
  std::string label_;
  transport::Millis hold_;
};

TEST(KsServiceTest, DecryptOfAKeyBeingRefreshedCompletesWhileItsPrepareReplyIsHeld) {
  // The shards hold every ks.ref.ok reply. While one thread's refresh of a
  // key waits for it, a second thread's decryption of the SAME key must
  // finish: the fleet's per-key P1Runtime takes its share lock exclusively
  // only for COMMIT and the install.
  typename KsServer<MockGroup>::Options so;
  so.conn_wrapper = [](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    return std::make_shared<HoldLabel>(std::move(fc), kKsRefOk, transport::Millis{800});
  };
  TwoShards svc(8100, so, so);
  const auto keys = test_keys(1);
  svc.add(keys[0]);
  auto& owner = svc.s0->store().contains(keys[0]) ? svc.s0->store() : svc.s1->store();
  std::atomic<bool> refreshed{false};
  std::string refresh_error;  // read after join()
  std::thread refresher([&] {
    try {
      svc.fleet->refresh_key(keys[0]);
    } catch (const std::exception& e) {
      refresh_error = e.what();
    }
    refreshed.store(true);
  });
  bool prepared = false;
  for (int i = 0; i < 5000 && !prepared; ++i) {
    prepared = owner.has_pending(keys[0]);
    if (!prepared) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(prepared);
  crypto::Rng rng(8101);
  if (prepared) {
    EXPECT_TRUE(svc.roundtrip(keys[0], rng));
    EXPECT_FALSE(refreshed.load()) << "the decryption waited for the whole refresh";
  }
  refresher.join();
  EXPECT_EQ(refresh_error, "");
  EXPECT_EQ(svc.fleet->epoch_of(keys[0]), 1u);
  EXPECT_EQ(owner.epoch_of(keys[0]), 1u);
  EXPECT_TRUE(svc.roundtrip(keys[0], rng));
}

/// The REVIEW.md regression: a refresh interrupted between ks.ref.ok and
/// ks.ref.commit.ok must reconcile over ks.hello on the next contact --
/// forward=true is the commit-ACK-lost case (hello verdict: Commit),
/// forward=false the commit-lost case (hello verdict: Rollback, then a
/// fresh refresh). Before the pending_flag fix both wedged the key forever.
void run_severed_commit_recovery(std::uint64_t seed, bool forward) {
  auto fired = std::make_shared<std::atomic<bool>>(false);
  typename KsFleet<MockGroup>::Options fo;
  fo.request_timeout = transport::Millis{1000};
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{20};
  fo.conn_wrapper = [fired, forward](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    return std::make_shared<SeverAtLabel>(std::move(fc), kKsRefCommit, forward, fired);
  };
  TwoShards svc(seed, {}, {}, fo);
  const auto keys = test_keys(2);
  for (const auto& id : keys) svc.add(id);

  svc.fleet->refresh_key(keys[0]);  // must recover, not throw Draining forever
  EXPECT_TRUE(fired->load()) << "the sever never triggered -- test is vacuous";
  EXPECT_EQ(svc.fleet->epoch_of(keys[0]), 1u);
  const auto server_epoch = svc.s0->store().contains(keys[0])
                                ? svc.s0->store().epoch_of(keys[0])
                                : svc.s1->store().epoch_of(keys[0]);
  EXPECT_EQ(server_epoch, 1u) << "client and server epochs diverged";

  // The key keeps serving at the reconciled epoch, and so does its neighbor.
  crypto::Rng rng(seed + 7);
  EXPECT_TRUE(svc.roundtrip(keys[0], rng));
  EXPECT_TRUE(svc.roundtrip(keys[1], rng));
}

TEST(KsServiceTest, CommitAckLostRecoversViaHello) {
  run_severed_commit_recovery(8000, /*forward=*/true);
}

TEST(KsServiceTest, CommitLostRollsBackViaHelloThenRefreshes) {
  run_severed_commit_recovery(8050, /*forward=*/false);
}

TEST(KeyStoreTest, RemoveStaysRemovedAfterRecoveryDespiteConcurrentMutations) {
  // remove() vs in-flight prepares/hellos that already hold the entry: the
  // tombstone must win recovery -- no resurrected key, no share back on disk.
  const auto dir = make_state_dir();
  typename KeyStore<MockGroup>::Options opt;
  opt.state_dir = dir;
  StoreRig rig(8100, opt);
  const KeyId victim{"acme", "doomed"}, keeper{"acme", "kept"};
  rig.add(victim);
  rig.add(keeper);

  auto& p1 = *rig.p1s.at(victim);
  std::thread mutator([&] {
    // Hammer persisting mutations on the victim; after remove() lands they
    // must fail typed (UnknownKey) rather than journal a newer record.
    for (int i = 0; i < 50; ++i) {
      try {
        const Bytes r1 = p1.ref_round1();
        (void)rig.store->ref_prepare(victim, 0, r1);
        service::HelloMsg h;
        h.epoch = 0;
        h.has_pending = true;
        h.pending_epoch = 0;
        h.pending_digest = crypto::digest_to_bytes(crypto::Sha256::hash(r1));
        (void)rig.store->hello(victim, h);  // rolls the prepare back
        p1.end_period();
        p1.prepare_period();
      } catch (const service::ServiceError& e) {
        EXPECT_EQ(e.code(), service::ServiceErrc::UnknownKey);
        break;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  rig.store->remove(victim);
  mutator.join();
  EXPECT_FALSE(rig.store->contains(victim));

  rig.store.reset();  // crash
  KeyStore<MockGroup> recovered(rig.gg, rig.prm, crypto::Rng(8101), opt);
  EXPECT_FALSE(recovered.contains(victim)) << "tombstoned key resurrected by recovery";
  EXPECT_TRUE(recovered.contains(keeper));
}

TEST(KeyStoreTest, RolledBackDigestSurvivesRestart) {
  // The no-resurrect guarantee is journaled: after a rollback verdict and a
  // crash, a delayed duplicate of the rolled-back prepare is still refused.
  const auto dir = make_state_dir();
  typename KeyStore<MockGroup>::Options opt;
  opt.state_dir = dir;
  StoreRig rig(8200, opt);
  const KeyId id{"acme", "mail"};
  rig.add(id);

  const Bytes r1 = rig.p1s.at(id)->ref_round1();
  (void)rig.store->ref_prepare(id, 0, r1);
  service::HelloMsg h;
  h.epoch = 0;
  h.has_pending = true;
  h.pending_epoch = 0;
  h.pending_digest = crypto::digest_to_bytes(crypto::Sha256::hash(r1));
  EXPECT_EQ(rig.store->hello(id, h).disposition, service::RefDisposition::Rollback);

  rig.store.reset();  // crash
  KeyStore<MockGroup> recovered(rig.gg, rig.prm, crypto::Rng(8201), opt);
  try {
    (void)recovered.ref_prepare(id, 0, r1);
    FAIL() << "stray prepare resurrected a rolled-back refresh after restart";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ServiceErrc::StaleEpoch);
  }
}

TEST(KsServiceTest, OldSingleKeyClientSpeaksToAKsServerUnchanged) {
  // Single-key mode is a 1-key store: DecryptionClient names
  // default_key_id() on the ks.* routes (decryption, refresh, hello
  // reconciliation) of a KsServer whose share was put under that key.
  MockGroup gg = make_mock();
  const auto prm = mock_params();
  crypto::Rng rng(7500);
  auto kg = Core::gen(gg, prm, rng);

  typename KsServer<MockGroup>::Options so;
  KsServer<MockGroup> server(gg, prm, crypto::Rng(7501), so);
  server.store().put(default_key_id(), kg.sk2);
  server.start();

  auto p1 = std::make_shared<service::P1Runtime<MockGroup>>(
      gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain, crypto::Rng(7502));
  service::DecryptionClient<MockGroup> client(p1, server.port());

  for (int round = 0; round < 2; ++round) {
    const auto m = gg.gt_random(rng);
    const auto c = Core::enc(gg, kg.pk, m, rng);
    EXPECT_TRUE(gg.gt_eq(client.decrypt(c), m));
    client.refresh();
    EXPECT_EQ(client.epoch(), static_cast<std::uint64_t>(round + 1));
    EXPECT_EQ(server.store().epoch_of(default_key_id()),
              static_cast<std::uint64_t>(round + 1));
  }
  const auto m = gg.gt_random(rng);
  const auto c = Core::enc(gg, kg.pk, m, rng);
  EXPECT_TRUE(gg.gt_eq(client.decrypt(c), m));
  client.close();
  server.stop();
}

TEST(KsServiceTest, StaleKsDecIsRejectedAndCountedInSvcStale) {
  MockGroup gg = make_mock();
  const auto prm = mock_params();
  crypto::Rng rng(7550);
  auto kg = Core::gen(gg, prm, rng);
  KsServer<MockGroup> server(gg, prm, crypto::Rng(7551), KsServer<MockGroup>::Options{});
  const KeyId id{"acme", "k"};
  server.store().put(id, kg.sk2);
  server.start();
  schemes::DlrParty1<MockGroup> p1(gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain,
                                   crypto::Rng(7552));
  p1.prepare_period();
  const auto c = Core::enc(gg, kg.pk, gg.gt_random(rng), rng);

  auto& stale = telemetry::Registry::global().counter("svc.stale");
  [[maybe_unused]] const auto stale0 = stale.value();
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(server.port())));
  auto sess = mux.open();
  sess->send(transport::FrameType::Data, 1, kKsDec,
             encode_ks_request(id, 5, p1.dec_round1(c, rng)));
  const auto resp = sess->recv(transport::Millis{5000});
  ASSERT_EQ(resp.type, transport::FrameType::Error);
  const service::ServiceError err = service::decode_error(resp.body);
  EXPECT_EQ(err.code(), service::ServiceErrc::StaleEpoch);
  EXPECT_EQ(err.server_epoch(), 0u);
#if DLR_TELEMETRY_ENABLED
  EXPECT_EQ(stale.value(), stale0 + 1) << "the rejection must count in svc.stale";
#endif
  server.stop();
}

TEST(KsServiceTest, AdminExposesKeystoreTotalsAndShardHealth) {
  typename KsServer<MockGroup>::Options so;
  so.admin = true;
  TwoShards svc(7600, so);
  const auto keys = test_keys(4);
  for (const auto& id : keys) svc.add(id);
  crypto::Rng rng(10);
  for (const auto& id : keys) ASSERT_TRUE(svc.roundtrip(id, rng));
  // ks.refresh_backlog is minted by a scheduler sweep; run one so the
  // exposition carries it regardless of which tests ran before us.
  svc.fleet->start_scheduler();
  svc.fleet->scheduler()->sweep_now();
  ASSERT_TRUE(svc.fleet->scheduler()->wait_idle(std::chrono::milliseconds(2000)));
  svc.fleet->stop_scheduler();

  ASSERT_NE(svc.s0->admin_port(), 0);
  const std::string text =
      service::AdminClient::fetch(svc.s0->admin_port(), service::kAdmMetrics);
  EXPECT_EQ(telemetry::prometheus_lint(text), "") << text;
#if DLR_TELEMETRY_ENABLED
  const auto samples = telemetry::parse_prometheus(text);
  ASSERT_TRUE(samples.count("ks_keys")) << text;
  EXPECT_GT(samples.at("ks_keys"), 0.0);
  ASSERT_TRUE(samples.count("ks_dec_total")) << text;
  EXPECT_GE(samples.at("ks_dec_total"), static_cast<double>(keys.size()));
  EXPECT_TRUE(samples.count("ks_refresh_backlog")) << text;
#endif

  const std::string health =
      service::AdminClient::fetch(svc.s0->admin_port(), service::kAdmHealth);
  EXPECT_NE(health.find("\"keystore\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"shard_id\":\"0\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"keys\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"map_version\":\"1\""), std::string::npos) << health;
}

#if DLR_TELEMETRY_ENABLED
TEST(KsTelemetryTest, PerKeySeriesAreOptInAndTotalsAggregate) {
  // Satellite (a): the documented per-key label convention. Totals are
  // always-on; {tenant,key} series appear only with per_key_metrics, and
  // sum_gauges/count_series let tests and dashboards fold a prefix.
  typename KeyStore<MockGroup>::Options opt;
  opt.per_key_metrics = true;
  StoreRig rig(7700, opt);
  const KeyId a{"acme", "mail"}, b{"globex", "web"};
  rig.add(a);
  rig.add(b);
  crypto::Rng rng(11);
  ASSERT_TRUE(rig.roundtrip(a, 0, rng));
  ASSERT_TRUE(rig.roundtrip(a, 0, rng));
  ASSERT_TRUE(rig.roundtrip(b, 0, rng));

  auto& reg = telemetry::Registry::global();
  EXPECT_EQ(reg.counter_value("ks.dec{tenant=acme,key=mail}"), 2u);
  EXPECT_EQ(reg.counter_value("ks.dec{tenant=globex,key=web}"), 1u);
  EXPECT_GE(reg.count_series("ks.dec{"), 2u);
  EXPECT_GE(reg.counter_value("ks.dec.total"), 3u);
  EXPECT_GE(reg.gauge_value("ks.keys"), 2.0);
}
#endif

// ---- hammer (TSan target) -----------------------------------------------------

TEST(KsHammerTest, ConcurrentDecryptsRaceTheSchedulerCleanly) {
  // Decrypt threads race the background scheduler's 2PC refreshes across a
  // shared fleet: per-key locking, budget mirrors, and mux sharing must hold
  // under TSan. Correctness invariant: every returned plaintext is right.
  typename KsServer<MockGroup>::Options so;
  so.store.budget_bits = 8;
  so.store.leak_per_dec_bits = 1;
  so.store.refresh_threshold = 0.5;
  typename KsFleet<MockGroup>::Options fo;
  fo.refresh_threshold = 0.5;
  fo.scheduler.sweep_interval = std::chrono::milliseconds(2);
  fo.scheduler.max_concurrent = 2;
  TwoShards svc(7800, so, so, fo);
  const auto keys = test_keys(4);
  for (const auto& id : keys) svc.add(id);
  svc.fleet->start_scheduler();

  constexpr int kThreads = 4, kPerThread = 15;
  std::atomic<int> wrong{0}, ok{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      crypto::Rng rng(7800 * 100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const auto& id = keys[(t + i) % keys.size()];
        const auto m = svc.gg.gt_random(rng);
        const auto c = Core::enc(svc.gg, svc.kgs.at(id).pk, m, rng);
        if (svc.gg.gt_eq(svc.fleet->decrypt(id, c), m))
          ok.fetch_add(1);
        else
          wrong.fetch_add(1);
      }
    });
  for (auto& t : ts) t.join();
  svc.fleet->stop_scheduler();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
}

// ---- chaos soak ---------------------------------------------------------------

TEST(KsChaosTest, SeededChaosSoakNeverReturnsAWrongPlaintext) {
  // Same contract as the single-key chaos soak, now across two shards with
  // per-key state: a seeded injector perturbs every fleet connection while
  // threads decrypt and the scheduler refreshes. No wrong plaintext, ever;
  // after the storm every key reconciles and decrypts.
  const char* env = std::getenv("DLR_CHAOS_SEED");
  const std::uint64_t seed = env ? std::strtoull(env, nullptr, 10) : 1;

  std::atomic<std::uint64_t> conn_no{0};
  typename KsFleet<MockGroup>::Options fo;
  fo.request_timeout = transport::Millis{300};
  fo.retry.max_attempts = 41;
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{30};
  fo.refresh_threshold = 0.5;
  fo.scheduler.sweep_interval = std::chrono::milliseconds(10);
  fo.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    transport::FaultPlan::Rates rates;
    rates.drop = 0.02;
    rates.duplicate = 0.03;
    rates.delay = 0.05;
    rates.bitflip = 0.02;
    rates.sever = 0.02;
    rates.delay_ms = 1;
    return std::make_shared<transport::FaultInjector>(
        std::move(fc),
        transport::FaultPlan::seeded(seed * 1000003 + conn_no.fetch_add(1), rates));
  };
  typename KsServer<MockGroup>::Options so;
  so.store.budget_bits = 16;
  so.store.leak_per_dec_bits = 1;
  so.store.refresh_threshold = 0.5;
  TwoShards svc(7900 + seed, so, so, fo);
  const auto keys = test_keys(5);
  for (const auto& id : keys) svc.add(id);
  svc.fleet->start_scheduler();

  constexpr int kThreads = 3, kPerThread = 10;
  std::atomic<int> wrong{0}, gave_up{0}, ok{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      crypto::Rng rng(8800 + seed * 100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const auto& id = keys[(t * kPerThread + i) % keys.size()];
        const auto m = svc.gg.gt_random(rng);
        const auto c = Core::enc(svc.gg, svc.kgs.at(id).pk, m, rng);
        try {
          if (svc.gg.gt_eq(svc.fleet->decrypt(id, c), m))
            ok.fetch_add(1);
          else
            wrong.fetch_add(1);
        } catch (const std::exception&) {
          gave_up.fetch_add(1);  // typed failure after budget exhaustion: allowed
        }
      }
    });
  for (auto& t : ts) t.join();
  svc.fleet->stop_scheduler();

  EXPECT_EQ(wrong.load(), 0) << "chaos produced a silently wrong plaintext";
  EXPECT_GT(ok.load(), 0) << "nothing succeeded -- retry budget far too small";

  // Settle: every key reconciles (hello resolves any half-done 2PC on its
  // next contact) and decrypts correctly. The retry budget rides over the
  // still-faulty links.
  crypto::Rng rng(9999 + seed);
  for (const auto& id : keys) {
    EXPECT_TRUE(svc.roundtrip(id, rng)) << id.display() << " failed to settle";
    const auto server_epoch = svc.s0->store().contains(id)
                                  ? svc.s0->store().epoch_of(id)
                                  : svc.s1->store().epoch_of(id);
    EXPECT_EQ(svc.fleet->epoch_of(id), server_epoch)
        << id.display() << " epochs failed to reconcile";
  }
}


// ---- overload protection (DESIGN.md §13) --------------------------------------

TEST(KsOverloadTest, LeakageFloorExemptsSpentKeysFromRefreshShedding) {
  MockGroup gg = make_mock();
  const auto prm = mock_params();
  typename KsServer<MockGroup>::Options so;
  so.workers = 1;
  so.max_batch = 1;
  // queue_cap 4: even if the lone worker steals an item the moment the queue
  // fills, depth stays >= 3 = the 0.75 high-water mark (same geometry as the
  // P2 degraded-mode test).
  so.queue_cap = 4;
  so.inject_crypto_delay = std::chrono::microseconds{50000};
  so.refresh_shed_floor = 0.5;
  so.store.budget_bits = 100;
  so.store.leak_per_dec_bits = 1;
  KsServer<MockGroup> server(gg, prm, crypto::Rng(9100), so);
  server.start();

  const KeyId hot{"acme", "hot"}, cold{"acme", "cold"};
  crypto::Rng rng(9101);
  auto kg_hot = Core::gen(gg, prm, rng);
  auto kg_cold = Core::gen(gg, prm, rng);
  server.store().put(hot, kg_hot.sk2);
  server.store().put(cold, kg_cold.sk2);
  schemes::DlrParty1<MockGroup> p1_hot(gg, prm, kg_hot.pk, kg_hot.sk1,
                                       schemes::P1Mode::Plain, crypto::Rng(9102));
  schemes::DlrParty1<MockGroup> p1_cold(gg, prm, kg_cold.pk, kg_cold.sk1,
                                        schemes::P1Mode::Plain, crypto::Rng(9103));
  p1_hot.prepare_period();
  p1_cold.prepare_period();

  // Burn 60% of `hot`'s leakage budget with direct (wire-free) decrypts.
  for (int i = 0; i < 60; ++i) {
    const auto m = gg.gt_random(rng);
    const auto c = Core::enc(gg, kg_hot.pk, m, rng);
    (void)server.store().dec_session(hot).run(0, p1_hot.dec_round1(c, rng));
  }
  ASSERT_GE(server.store().spent_frac(hot), so.refresh_shed_floor);
  ASSERT_LT(server.store().spent_frac(cold), so.refresh_shed_floor);

  // Saturate the lone worker: each one-item batch parks for 50 ms, so the
  // 4-slot queue stays past the high-water mark for the whole test.
  const auto m = gg.gt_random(rng);
  const auto c = Core::enc(gg, kg_cold.pk, m, rng);
  const Bytes r1 = p1_cold.dec_round1(c, rng);
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(server.port())));
  std::vector<std::unique_ptr<transport::SessionMux::Session>> flood;
  for (int i = 0; i < 12; ++i) {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, 1, kKsDec, encode_ks_request(cold, 0, r1));
    flood.push_back(std::move(sess));
  }

  // A barely-spent key's refresh prepare is deprioritized while degraded...
  auto shed = mux.open();
  shed->send(transport::FrameType::Data, 1, kKsRef,
             encode_ks_request(cold, 0, p1_cold.ref_round1()));
  auto resp = shed->recv(transport::Millis{10000});
  ASSERT_EQ(resp.type, transport::FrameType::Error);
  const service::ServiceError err = service::decode_error(resp.body);
  EXPECT_EQ(err.code(), service::ServiceErrc::Overloaded);
  EXPECT_GT(err.retry_after_ms(), 0u);

  // ...but a key at/above the floor is served even under the same load: the
  // leakage ceiling outranks load shedding (availability degrades first).
  auto exempt = mux.open();
  exempt->send(transport::FrameType::Data, 1, kKsRef,
               encode_ks_request(hot, 0, p1_hot.ref_round1()));
  resp = exempt->recv(transport::Millis{10000});
  EXPECT_EQ(resp.type, transport::FrameType::Data)
      << "floor-exempt refresh must be served while degraded";
  EXPECT_GT(server.gov().shed_refresh(), 0u);

  for (auto& sess : flood) (void)sess->recv(transport::Millis{10000});
  server.stop();
}

TEST(KsOverloadTest, StopWhileFloodedJoinsWithoutDeadlock) {
  // Same regression as the P2 variant: shedding readers must never park
  // waiting for queue room, so stop() against a flood joins promptly.
  MockGroup gg = make_mock();
  const auto prm = mock_params();
  typename KsServer<MockGroup>::Options so;
  so.workers = 1;
  so.max_batch = 1;
  so.queue_cap = 2;
  so.inject_crypto_delay = std::chrono::microseconds{5000};
  auto server = std::make_unique<KsServer<MockGroup>>(gg, prm, crypto::Rng(9200), so);
  server->start();

  const KeyId id{"acme", "flood"};
  crypto::Rng rng(9201);
  auto kg = Core::gen(gg, prm, rng);
  server->store().put(id, kg.sk2);
  schemes::DlrParty1<MockGroup> p1(gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain,
                                   crypto::Rng(9202));
  p1.prepare_period();
  const auto m = gg.gt_random(rng);
  const auto c = Core::enc(gg, kg.pk, m, rng);
  const Bytes r1 = p1.dec_round1(c, rng);
  const std::uint16_t port = server->port();

  std::atomic<bool> go{true};
  std::vector<std::thread> flooders;
  for (int t = 0; t < 3; ++t)
    flooders.emplace_back([&] {
      try {
        transport::SessionMux mux(std::make_shared<transport::FramedConn>(
            transport::connect_loopback(port)));
        std::vector<std::unique_ptr<transport::SessionMux::Session>> pending;
        while (go.load()) {
          auto sess = mux.open();
          sess->send(transport::FrameType::Data, 1, kKsDec,
                     encode_ks_request(id, 0, r1));
          pending.push_back(std::move(sess));
          if (pending.size() > 64) pending.erase(pending.begin());
        }
      } catch (const transport::TransportError&) {
        // Server went away mid-flood: exactly the point.
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  server->stop();  // must not deadlock against shedding readers
  go.store(false);
  for (auto& t : flooders) t.join();
  // A flooder blocked sending into the server's full receive buffer wakes
  // when stop() closes the socket, not after the 10 s transport::kIoTimeout.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3))
      << "stop() left a flooder to wait out its send timeout";
  server.reset();
}

TEST(KsOverloadTest, SoakUnderOverloadKeepsEveryKeyInsideItsLeakageBudget) {
  // Chaos-adjacent soak: an overloaded fleet (tiny queue, injected crypto
  // cost, faulty links) hammers decrypts while the background scheduler
  // refreshes. The degraded servers shed refresh prepares EXCEPT for keys
  // at the leakage floor, so no key may ever exhaust its budget.
  typename KsServer<MockGroup>::Options so;
  so.workers = 1;
  so.max_batch = 2;
  so.queue_cap = 4;
  so.inject_crypto_delay = std::chrono::microseconds{2000};
  so.store.budget_bits = 8;
  so.store.leak_per_dec_bits = 1;
  so.store.refresh_threshold = 0.5;
  so.refresh_shed_floor = 0.5;
  typename KsFleet<MockGroup>::Options fo;
  fo.refresh_threshold = 0.5;
  fo.scheduler.sweep_interval = std::chrono::milliseconds(5);
  fo.scheduler.max_concurrent = 2;
  // Severed links surface as a fast reconnect, not a 10 s recv stall.
  fo.request_timeout = transport::Millis{500};
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{40};
  std::atomic<std::uint64_t> conn_no{0};
  fo.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    transport::FaultPlan::Rates rates;
    rates.drop = 0.01;
    rates.duplicate = 0.02;
    rates.delay = 0.03;
    rates.sever = 0.01;
    rates.delay_ms = 1;
    return std::make_shared<transport::FaultInjector>(
        std::move(fc), transport::FaultPlan::seeded(9301 + conn_no.fetch_add(1), rates));
  };
  TwoShards svc(9300, so, so, fo);
  const auto keys = test_keys(4);
  for (const auto& id : keys) svc.add(id);
  svc.fleet->start_scheduler();

  std::atomic<int> wrong{0}, ok{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 3; ++t)
    ts.emplace_back([&, t] {
      crypto::Rng rng(9310 + t);
      for (int i = 0; i < 15; ++i) {
        const auto& id = keys[(t * 15 + i) % keys.size()];
        const auto m = svc.gg.gt_random(rng);
        const auto c = Core::enc(svc.gg, svc.kgs.at(id).pk, m, rng);
        try {
          if (svc.gg.gt_eq(svc.fleet->decrypt(id, c), m))
            ok.fetch_add(1);
          else
            wrong.fetch_add(1);
        } catch (const std::exception&) {
          // Typed shed/timeout after retries: allowed under overload.
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  for (auto& t : ts) t.join();
  svc.fleet->stop_scheduler();

  EXPECT_EQ(wrong.load(), 0) << "overload produced a silently wrong plaintext";
  EXPECT_GT(ok.load(), 0) << "goodput collapsed to zero under 2x load";
  // The invariant the whole degradation order exists for: continual-leakage
  // security holds because no key crosses its per-period budget.
  for (const auto& id : keys) {
    auto& owner = svc.s0->store().contains(id) ? svc.s0->store() : svc.s1->store();
    EXPECT_LT(owner.spent_frac(id), 1.0)
        << id.display() << " exhausted its leakage budget under overload";
  }
}

// ---- every payload decoder, fuzzed -----------------------------------------------

/// Feed `decode` mutations of `valid`, one valid encoding: 512 seeded
/// single-bit flips, every truncation, extensions by 1 to 8 random bytes, and
/// 512 random strings of up to 96 bytes. Each input must decode to a value or
/// throw std::invalid_argument or std::out_of_range -- nothing else (the
/// sanitizer build runs this too).
template <class Decode>
void fuzz_decoder(const char* name, const Bytes& valid, Decode decode, std::uint64_t seed) {
  SCOPED_TRACE(name);
  std::size_t typed = 0, decoded = 0;
  const auto feed = [&](const Bytes& in) {
    try {
      (void)decode(in);
      ++decoded;
    } catch (const std::invalid_argument&) {
      ++typed;
    } catch (const std::out_of_range&) {
      ++typed;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input " << to_hex(in) << " threw an untyped error: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "input " << to_hex(in) << " threw a non-std exception";
    }
  };
  ASSERT_NO_THROW((void)decode(valid)) << "the valid encoding does not decode";
  ASSERT_FALSE(valid.empty());
  crypto::Rng rng(seed);
  for (int i = 0; i < 512; ++i) {
    Bytes m = valid;
    const std::uint64_t bit = rng.u64() % (m.size() * 8);
    m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    feed(m);
  }
  for (std::size_t n = 0; n < valid.size(); ++n)
    feed(Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(n)));
  for (std::size_t k = 1; k <= 8; ++k) {
    Bytes m = valid;
    for (std::size_t j = 0; j < k; ++j) m.push_back(static_cast<std::uint8_t>(rng.u64()));
    feed(m);
  }
  for (int i = 0; i < 512; ++i) {
    Bytes m(rng.u64() % 97);
    for (auto& b : m) b = static_cast<std::uint8_t>(rng.u64());
    feed(m);
  }
  EXPECT_GT(typed, 0u);
  EXPECT_GT(decoded, 0u);
}

TEST(WireDecoderFuzzTest, EveryPayloadDecoderReturnsAValueOrThrowsTyped) {
  const KeyId id{"acme", "k1"};
  service::HelloMsg hello;
  hello.epoch = 3;
  hello.has_pending = true;
  hello.pending_epoch = 2;
  hello.pending_digest = Bytes(32, 0xab);
  const Bytes map = ShardMap(2, {{0, "", 7000}, {1, "h1", 7001}}).encode();

  fuzz_decoder("decode_error",
               service::encode_error(service::ServiceErrc::Overloaded, 7, "queue full", 12),
               service::decode_error, 1);
  fuzz_decoder("decode_hello", service::encode_hello(hello), service::decode_hello, 2);
  fuzz_decoder("decode_hello_ok",
               service::encode_hello_ok({4, service::RefDisposition::Commit}),
               service::decode_hello_ok, 3);
  fuzz_decoder("decode_commit_ok", service::encode_commit_ok(5), service::decode_commit_ok, 4);
  fuzz_decoder("decode_ks_request", encode_ks_request(id, 3, Bytes(40, 7), 250),
               decode_ks_request, 5);
  fuzz_decoder("decode_ks_dec_ok", encode_ks_dec_ok({Bytes(24, 9), 1500, 128000}),
               decode_ks_dec_ok, 6);
  fuzz_decoder("decode_ks_hello", encode_ks_hello(id, hello), decode_ks_hello, 7);
  fuzz_decoder("decode_ks_put", encode_ks_put(id, Bytes(64, 3)), decode_ks_put, 8);
  fuzz_decoder("decode_ks_map_propose", encode_ks_map_propose(map), decode_ks_map_propose, 9);
  fuzz_decoder("decode_ks_migrate", encode_ks_migrate({9, 1, id, 77, Bytes(48, 5)}),
               decode_ks_migrate, 10);
  fuzz_decoder("decode_ks_mig_done", encode_ks_mig_done(9, 1), decode_ks_mig_done, 11);
  fuzz_decoder("ShardMap::decode", map, ShardMap::decode, 12);
}

}  // namespace
}  // namespace dlr::keystore
