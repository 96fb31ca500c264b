// Service runtime: the single-key server's epoch machine (its store's
// default key), the end-to-end decryption service over real sockets with its
// ks.* reply bytes pinned, refresh/decrypt interleaving under
// multi-threaded load (the continual-leakage deployment loop of §1.1/§4.4 run
// as a server workload), the two-phase epoch commit with its journaled
// crash/reconnect recovery, and the deterministic fault-injection chaos soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "group/mock_group.hpp"
#include "group/tate_group.hpp"
#include "keystore/ks_client.hpp"
#include "service/client.hpp"
#include "service/p2_server.hpp"
#include "telemetry/events.hpp"
#include "transport/fault.hpp"

namespace dlr::service {
namespace {

using group::make_mock;
using group::MockGroup;
using keystore::default_key_id;
using keystore::encode_ks_request;
using Core = schemes::DlrCore<MockGroup>;

schemes::DlrParams mock_params() {
  const auto gg = make_mock();
  return schemes::DlrParams::derive(gg.scalar_bits(), gg.scalar_bits());
}

/// Fresh unique directory under the test tmpdir (journal isolation).
std::string make_state_dir() {
  std::string tmpl = ::testing::TempDir() + "dlr_svc_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  return tmpl;
}

// ---- the default key's epoch machine ------------------------------------------
//
// The single-key server's epoch machine is its store's default_key_id()
// entry: a DecSession holds the entry's lock shared for a whole batch, and a
// refresh commit takes it exclusive -- acquiring it is the drain.

using Store = keystore::KeyStore<MockGroup>;

struct DefaultKey {
  MockGroup gg = make_mock();
  schemes::DlrParams prm = mock_params();
  Core::KeyGenResult kg;
  Store store;
  const keystore::KeyId& id = keystore::default_key_id();

  explicit DefaultKey(std::uint64_t seed)
      : kg(keygen(seed)), store(gg, prm, crypto::Rng(seed + 1), Store::Options{}) {
    store.put(id, kg.sk2);
  }

  Core::KeyGenResult keygen(std::uint64_t seed) {
    crypto::Rng rng(seed);
    return Core::gen(gg, prm, rng);
  }

  std::unique_ptr<schemes::DlrParty1<MockGroup>> party(std::uint64_t seed) {
    auto p = std::make_unique<schemes::DlrParty1<MockGroup>>(gg, prm, kg.pk, kg.sk1,
                                                             schemes::P1Mode::Plain,
                                                             crypto::Rng(seed));
    p->prepare_period();
    return p;
  }

  /// PREPARE then COMMIT at epoch `e` with a fresh round 1 from `p`; `p`
  /// installs its half only once the commit went through.
  std::uint64_t refresh(schemes::DlrParty1<MockGroup>& p, std::uint64_t e) {
    const Bytes r1 = p.ref_round1();
    const Bytes r2 = store.ref_prepare(id, e, r1);
    const std::uint64_t next =
        store.ref_commit(id, e, crypto::digest_to_bytes(crypto::Sha256::hash(r1)));
    p.ref_finish(r2);
    p.prepare_period();
    return next;
  }
};

/// The ServiceErrc `f` throws; a call that throws none fails the test.
template <class F>
ServiceErrc errc_of(F&& f) {
  try {
    f();
  } catch (const ServiceError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a ServiceError";
  return ServiceErrc::Internal;
}

TEST(EpochCoordinatorTest, StaleEpochRejectedBeforeTouchingTheShare) {
  DefaultKey k(7050);
  auto p = k.party(7051);
  for (std::uint64_t e = 0; e < 3; ++e) ASSERT_EQ(k.refresh(*p, e), e + 1);
  crypto::Rng rng(7052);
  const auto m = k.gg.gt_random(rng);
  const Bytes round1 = p->dec_round1(Core::enc(k.gg, k.kg.pk, m, rng), rng);
  // The epoch check comes first: even a payload the share would reject as
  // malformed is answered StaleEpoch, and no leakage budget is charged.
  for (const std::uint64_t stale : {2u, 4u}) {
    EXPECT_EQ(errc_of([&] { (void)k.store.dec_session(k.id).run(stale, round1); }),
              ServiceErrc::StaleEpoch);
    EXPECT_EQ(errc_of([&] { (void)k.store.dec_session(k.id).run(stale, Bytes{1, 2, 3}); }),
              ServiceErrc::StaleEpoch);
  }
  EXPECT_EQ(k.store.spent_frac(k.id), 0.0);
  EXPECT_TRUE(k.gg.gt_eq(p->dec_finish(k.store.dec_session(k.id).run(3, round1).reply), m));
  EXPECT_GT(k.store.spent_frac(k.id), 0.0);
}

TEST(EpochCoordinatorTest, RefreshDrainsInflightAndRejectsNewDecrypts) {
  DefaultKey k(7060);
  auto p = k.party(7061);
  crypto::Rng rng(7062);
  const auto m = k.gg.gt_random(rng);
  const Bytes round1 = p->dec_round1(Core::enc(k.gg, k.kg.pk, m, rng), rng);
  const Bytes r1 = p->ref_round1();
  (void)k.store.ref_prepare(k.id, 0, r1);

  std::optional<Store::DecSession> session(k.store.dec_session(k.id));
  std::atomic<bool> committed{false};
  std::thread committer([&] {
    EXPECT_EQ(k.store.ref_commit(k.id, 0, crypto::digest_to_bytes(crypto::Sha256::hash(r1))),
              1u);
    committed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(committed.load()) << "commit installed while a decryption session was open";
  // The open session still serves its epoch with the old share.
  EXPECT_EQ(session->epoch(), 0u);
  EXPECT_TRUE(k.gg.gt_eq(p->dec_finish(session->run(0, round1).reply), m));
  session.reset();  // drain completes; the commit proceeds
  committer.join();
  EXPECT_TRUE(committed.load());
  EXPECT_EQ(k.store.epoch_of(k.id), 1u);
  EXPECT_EQ(errc_of([&] { (void)k.store.dec_session(k.id).run(0, round1); }),
            ServiceErrc::StaleEpoch);
}

TEST(EpochCoordinatorTest, FailedRefreshKeepsTheEpoch) {
  DefaultKey k(7070);
  auto p = k.party(7071);
  EXPECT_EQ(errc_of([&] { (void)k.store.ref_prepare(k.id, 0, Bytes{1, 2, 3}); }),
            ServiceErrc::BadRequest);
  EXPECT_EQ(k.store.epoch_of(k.id), 0u);
  EXPECT_FALSE(k.store.has_pending(k.id));
  // A failed prepare also leaves an earlier prepared refresh in place.
  const Bytes r1 = p->ref_round1();
  (void)k.store.ref_prepare(k.id, 0, r1);
  EXPECT_EQ(errc_of([&] { (void)k.store.ref_prepare(k.id, 0, Bytes{4, 5, 6}); }),
            ServiceErrc::BadRequest);
  EXPECT_EQ(k.store.epoch_of(k.id), 0u);
  EXPECT_TRUE(k.store.has_pending(k.id));
  EXPECT_EQ(k.store.ref_commit(k.id, 0, crypto::digest_to_bytes(crypto::Sha256::hash(r1))), 1u);
  EXPECT_EQ(k.store.epoch_of(k.id), 1u);
}

TEST(EpochCoordinatorTest, ConcurrentRefreshesSerialize) {
  // N refreshers race PREPARE/COMMIT pairs on one key until it reaches
  // epoch N. The exclusive entry lock serializes the installs: each bumps
  // the epoch by exactly one (ks.refreshes counts installs), and a prepare
  // that another refresher superseded, or whose epoch moved, answers
  // StaleEpoch -- at its COMMIT too, so every commit ack is an install.
  DefaultKey k(7080);
  constexpr int kRefreshers = 4;
  auto& installs = telemetry::Registry::global().counter("ks.refreshes");
  [[maybe_unused]] const auto installs0 = installs.value();
  std::vector<std::unique_ptr<schemes::DlrParty1<MockGroup>>> parties;
  for (int i = 0; i < kRefreshers; ++i) parties.push_back(k.party(7081 + i));
  std::atomic<int> acks{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < kRefreshers; ++i)
    ts.emplace_back([&, i] {
      for (;;) {
        const std::uint64_t e = k.store.epoch_of(k.id);
        if (e >= kRefreshers) return;
        try {
          (void)k.refresh(*parties[static_cast<std::size_t>(i)], e);
          acks.fetch_add(1);
        } catch (const ServiceError& err) {
          ASSERT_EQ(err.code(), ServiceErrc::StaleEpoch);
        }
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(k.store.epoch_of(k.id), static_cast<std::uint64_t>(kRefreshers));
  EXPECT_EQ(acks.load(), kRefreshers) << "a commit was acked without being installed";
#if DLR_TELEMETRY_ENABLED
  EXPECT_EQ(installs.value() - installs0, static_cast<std::uint64_t>(kRefreshers));
#endif
}

TEST(EpochCoordinatorTest, SupersededPrepareGetsStaleEpochAtCommit) {
  // Two parties PREPARE epoch 0 on one key; the second supersedes the first
  // and commits. The first's COMMIT must not be acked: the key sits at
  // epoch 1, but with the second party's share, so an ack would make the
  // first party install a half that matches nothing (a forked key).
  DefaultKey k(7090);
  auto first = k.party(7091);
  auto second = k.party(7092);
  const auto digest = [](const Bytes& r1) {
    return crypto::digest_to_bytes(crypto::Sha256::hash(r1));
  };
  const Bytes r1a = first->ref_round1();
  (void)k.store.ref_prepare(k.id, 0, r1a);
  const Bytes r1b = second->ref_round1();
  const Bytes r2b = k.store.ref_prepare(k.id, 0, r1b);
  EXPECT_EQ(k.store.ref_commit(k.id, 0, digest(r1b)), 1u);
  EXPECT_EQ(errc_of([&] { (void)k.store.ref_commit(k.id, 0, digest(r1a)); }),
            ServiceErrc::StaleEpoch);
  EXPECT_EQ(k.store.ref_commit(k.id, 0, digest(r1b)), 1u) << "duplicate of the install";
  // Reconciliation draws the same line: Commit for the installed digest,
  // an epoch fork for the superseded one.
  HelloMsg h;
  h.has_pending = true;
  h.pending_epoch = 0;
  h.pending_digest = digest(r1a);
  EXPECT_EQ(errc_of([&] { (void)k.store.hello(k.id, h); }), ServiceErrc::Internal);
  h.pending_digest = digest(r1b);
  EXPECT_EQ(k.store.hello(k.id, h).disposition, RefDisposition::Commit);
  second->ref_finish(r2b);
  EXPECT_TRUE(k.gg.g_eq(
      Core::reconstruct_msk(k.gg, second->recover_share_for_test(), k.store.share_for_test(k.id)),
      k.kg.msk));
}

// ---- end-to-end service -------------------------------------------------------

struct Service {
  MockGroup gg = make_mock();
  schemes::DlrParams prm = mock_params();
  Core::KeyGenResult kg;
  std::unique_ptr<P2Server<MockGroup>> server;
  std::shared_ptr<P1Runtime<MockGroup>> p1;
  std::uint64_t seed;
  std::string server_dir;  // empty = volatile server
  typename P2Server<MockGroup>::Options opt;

  explicit Service(int workers = 4, std::uint64_t seed_ = 7000,
                   std::string server_dir_ = {}, std::string p1_dir = {})
      : seed(seed_), server_dir(std::move(server_dir_)) {
    crypto::Rng rng(seed);
    kg = Core::gen(gg, prm, rng);
    opt.workers = workers;
    opt.store.state_dir = server_dir;
    server = std::make_unique<P2Server<MockGroup>>(gg, prm, kg.sk2, crypto::Rng(seed + 1),
                                                   opt);
    server->start();
    p1 = std::make_shared<P1Runtime<MockGroup>>(gg, prm, kg.pk, kg.sk1,
                                                schemes::P1Mode::Plain,
                                                crypto::Rng(seed + 2), std::move(p1_dir));
  }
  ~Service() { server->stop(); }

  /// Simulate a server crash + restart: tear the server down and bring a new
  /// one up from the same state_dir, seeding it with `decoy_sk2` to prove the
  /// journal (not the constructor argument) defines the recovered share.
  void restart_server(typename Core::Sk2 decoy_sk2, int workers = 4) {
    server->stop();
    server.reset();
    opt.workers = workers;
    server = std::make_unique<P2Server<MockGroup>>(gg, prm, std::move(decoy_sk2),
                                                   crypto::Rng(seed + 3), opt);
    server->start();
  }

  /// The server's epoch, share and leakage ledger: its store's default key.
  std::uint64_t epoch() { return server->store().epoch_of(keystore::default_key_id()); }
  Core::Sk2 sk2() { return server->store().share_for_test(keystore::default_key_id()); }
  double spent_frac() { return server->store().spent_frac(keystore::default_key_id()); }

  /// The budget fraction `n` served decryptions charge. Every decryption the
  /// server answers is charged, with telemetry on or off, so this counts
  /// what it served in both builds.
  double charged_frac(int n) const {
    return n * opt.store.leak_per_dec_bits / opt.store.budget_bits;
  }

  DecryptionClient<MockGroup> client(typename DecryptionClient<MockGroup>::Options opt = {}) {
    return DecryptionClient<MockGroup>(p1, server->port(), opt);
  }
};

/// Decryptions served so far (svc.requests; 0 with telemetry compiled out).
std::uint64_t requests_served() {
  return telemetry::Registry::global().counter("svc.requests").value();
}

TEST(ServiceTest, DecryptOverRealSocketsIsCorrect) {
  Service svc;
  [[maybe_unused]] const auto served0 = requests_served();
  auto client = svc.client();
  crypto::Rng rng(1);
  for (int i = 0; i < 5; ++i) {
    const auto m = svc.gg.gt_random(rng);
    const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
    EXPECT_TRUE(svc.gg.gt_eq(client.decrypt_once(c), m));
  }
#if DLR_TELEMETRY_ENABLED
  EXPECT_EQ(requests_served() - served0, 5u);
#endif
  EXPECT_DOUBLE_EQ(svc.spent_frac(), svc.charged_frac(5));
  EXPECT_EQ(svc.epoch(), 0u);
}

TEST(ServiceTest, RefreshAdvancesBothEpochsAndDecryptionStillWorks) {
  Service svc;
  auto client = svc.client();
  crypto::Rng rng(2);
  for (int round = 0; round < 3; ++round) {
    const auto m = svc.gg.gt_random(rng);
    const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
    EXPECT_TRUE(svc.gg.gt_eq(client.decrypt_once(c), m));
    client.refresh();
    EXPECT_EQ(client.epoch(), static_cast<std::uint64_t>(round + 1));
    EXPECT_EQ(svc.epoch(), static_cast<std::uint64_t>(round + 1));
  }
  // The sharing rotated three times; the shared secret did not move.
  const auto sk1 = svc.p1->share_for_test();
  const auto sk2 = svc.sk2();
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, sk1, sk2), svc.kg.msk));
}

TEST(ServiceTest, StaleEpochIsDeterministicallyRejectedAndRetryable) {
  Service svc;
  auto client = svc.client();
  crypto::Rng rng(3);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);

  // Hand-roll a request claiming a future epoch over a raw mux connection.
  auto& stale = telemetry::Registry::global().counter("svc.stale");
  [[maybe_unused]] const auto stale0 = stale.value();
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));
  auto sess = mux.open();
  sess->send(transport::FrameType::Data, 1, keystore::kKsDec,
             encode_ks_request(default_key_id(), 999, svc.p1->begin_decrypt(c, rng).round1));
  const auto resp = sess->recv(transport::Millis{5000});
  EXPECT_EQ(resp.type, transport::FrameType::Error);
  const ServiceError err = decode_error(resp.body);
  EXPECT_EQ(err.code(), ServiceErrc::StaleEpoch);
  EXPECT_TRUE(err.retryable());
  EXPECT_EQ(err.server_epoch(), 0u);
#if DLR_TELEMETRY_ENABLED
  EXPECT_EQ(stale.value(), stale0 + 1) << "the rejection must count in svc.stale";
#endif
}

TEST(ServiceTest, MalformedRequestsGetBadRequestNotACrash) {
  Service svc;
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));

  // Body that is not even a valid request encoding.
  {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, 1, keystore::kKsDec, Bytes{0xFF, 0x01});
    const ServiceError err = decode_error(sess->recv(transport::Millis{5000}).body);
    EXPECT_EQ(err.code(), ServiceErrc::BadRequest);
    EXPECT_FALSE(err.retryable());
  }
  // Valid envelope at the right epoch, garbage round-1 payload inside.
  {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, 1, keystore::kKsDec,
               encode_ks_request(default_key_id(), 0, Bytes{1, 2, 3, 4, 5}));
    const ServiceError err = decode_error(sess->recv(transport::Millis{5000}).body);
    EXPECT_EQ(err.code(), ServiceErrc::BadRequest);
  }
  // Unknown label.
  {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, 1, "svc.bogus", Bytes{});
    const ServiceError err = decode_error(sess->recv(transport::Millis{5000}).body);
    EXPECT_EQ(err.code(), ServiceErrc::BadRequest);
  }
  // The server survives all of it and still serves real requests.
  auto client = svc.client();
  crypto::Rng rng(4);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  EXPECT_TRUE(svc.gg.gt_eq(client.decrypt_once(c), m));
}

// ---- refresh/decrypt interleaving under load ----------------------------------

TEST(ServiceInterleaveTest, HammerWithAutoRefreshEveryKDecryptsCorrectly) {
  // N client threads hammer DistDec through one client while the auto-refresh
  // policy rotates the shares every K requests. Every decrypt() must return
  // the right plaintext (retries of StaleEpoch/Draining happen inside), and
  // afterwards the reconstructed msk must be the original one.
  Service svc(/*workers=*/4);
  typename DecryptionClient<MockGroup>::Options opt;
  opt.auto_refresh_every = 7;  // K
  auto client = svc.client(opt);

  constexpr int kThreads = 4;   // N
  constexpr int kPerThread = 12;
  std::atomic<int> wrong{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      crypto::Rng rng(9000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const auto m = svc.gg.gt_random(rng);
        const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
        try {
          if (!svc.gg.gt_eq(client.decrypt(c), m)) wrong.fetch_add(1);
        } catch (const std::exception&) {
          wrong.fetch_add(1);  // decrypt() retries retryables; anything else fails
        }
      }
    });
  for (auto& t : ts) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(svc.epoch(), 1u) << "auto-refresh never fired";
  EXPECT_EQ(svc.epoch(), client.epoch());
  const auto sk1 = svc.p1->share_for_test();
  const auto sk2 = svc.sk2();
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, sk1, sk2), svc.kg.msk))
      << "refresh under load changed the shared msk";
}

TEST(ServiceInterleaveTest, RawDecryptsRacingRefreshesAreCorrectOrRetryable) {
  // No client-side retry loop here: decrypt_once racing explicit refreshes
  // must either return the correct plaintext or throw a *retryable*
  // ServiceError -- silent wrong answers and non-retryable failures both fail
  // the test.
  Service svc(/*workers=*/4);
  auto dec_client = svc.client();
  auto ref_client = svc.client();

  std::atomic<bool> done{false};
  std::atomic<int> wrong{0}, nonretryable{0}, ok{0}, retryable{0};

  std::thread refresher([&] {
    while (!done.load()) {
      ref_client.refresh();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  constexpr int kThreads = 3;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      crypto::Rng rng(7700 + t);
      for (int i = 0; i < 15; ++i) {
        const auto m = svc.gg.gt_random(rng);
        const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
        try {
          if (svc.gg.gt_eq(dec_client.decrypt_once(c), m))
            ok.fetch_add(1);
          else
            wrong.fetch_add(1);
        } catch (const ServiceError& e) {
          (e.retryable() ? retryable : nonretryable).fetch_add(1);
        }
      }
    });
  for (auto& t : ts) t.join();
  done.store(true);
  refresher.join();

  EXPECT_EQ(wrong.load(), 0) << "a raced decryption returned a wrong plaintext";
  EXPECT_EQ(nonretryable.load(), 0) << "a raced decryption failed non-retryably";
  EXPECT_GT(ok.load(), 0);
  EXPECT_GE(svc.epoch(), 1u);

  const auto sk1 = svc.p1->share_for_test();
  const auto sk2 = svc.sk2();
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, sk1, sk2), svc.kg.msk));
}

// ---- decryptions overlapping a refresh -----------------------------------------

/// Poll `cond` every millisecond for up to 5 s.
template <class Cond>
bool wait_until(Cond&& cond) {
  for (int i = 0; i < 5000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

/// A client connection whose `index`-th inbound frame is held back `ms`
/// (inbound frame 1 is the PREPARE reply of a refresh right after hello).
std::function<std::shared_ptr<transport::Conn>(std::shared_ptr<transport::FramedConn>)>
hold_inbound(std::uint64_t index, std::uint32_t ms) {
  return [index, ms](std::shared_ptr<transport::FramedConn> fc)
             -> std::shared_ptr<transport::Conn> {
    transport::FaultPlan plan;
    plan.in_at(index, {transport::FaultKind::Delay, ms});
    return std::make_shared<transport::FaultInjector>(std::move(fc), plan);
  };
}

TEST(ServiceRefreshOverlapTest, DecryptCompletesWhileAnotherClientsPrepareReplyIsHeld) {
  // Client A's PREPARE reply is held on its connection. A decryption through
  // client B on the same P1Runtime must finish meanwhile: P1 holds its share
  // lock exclusively only for COMMIT and the install, not across PREPARE.
  Service svc(/*workers=*/2, 7950);
  typename DecryptionClient<MockGroup>::Options opt;
  opt.conn_wrapper = hold_inbound(1, 800);
  auto a = svc.client(opt);
  auto b = svc.client();
  std::atomic<bool> refreshed{false};
  std::string refresh_error;  // read after join()
  std::thread refresher([&] {
    try {
      a.refresh();
    } catch (const std::exception& e) {
      refresh_error = e.what();
    }
    refreshed.store(true);
  });
  const bool prepared =
      wait_until([&] { return svc.server->store().has_pending(keystore::default_key_id()); });
  EXPECT_TRUE(prepared);
  crypto::Rng rng(7951);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  if (prepared) {
    EXPECT_TRUE(svc.gg.gt_eq(b.decrypt(c), m));
    EXPECT_FALSE(refreshed.load()) << "the decryption waited for the whole refresh";
  }
  refresher.join();
  EXPECT_EQ(refresh_error, "");
  EXPECT_EQ(a.epoch(), 1u);
  EXPECT_EQ(svc.epoch(), 1u);
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, svc.p1->share_for_test(), svc.sk2()),
                          svc.kg.msk));
}

TEST(ServiceRefreshOverlapTest, ConnectionSeveredMidRefreshKeepsEpochsAgreedAndMskIntact) {
  // Client B's connection dies while client A's refresh sits between
  // PREPARE and COMMIT. B's reconnect hello must neither report nor resolve
  // A's in-flight refresh (it would roll A's PREPARE back at the server);
  // afterwards both parties agree on the epoch and msk has not moved.
  Service svc(/*workers=*/2, 7960);
  typename DecryptionClient<MockGroup>::Options opt_a;
  opt_a.conn_wrapper = hold_inbound(1, 800);
  std::shared_ptr<transport::FaultInjector> b_conn;
  std::atomic<int> b_conns{0};
  typename DecryptionClient<MockGroup>::Options opt_b;
  opt_b.retry.base = transport::Millis{2};
  opt_b.retry.cap = transport::Millis{20};
  opt_b.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    if (b_conns.fetch_add(1) != 0) return fc;
    b_conn = std::make_shared<transport::FaultInjector>(std::move(fc), transport::FaultPlan{});
    return b_conn;
  };
  auto a = svc.client(opt_a);
  auto b = svc.client(opt_b);
  std::string refresh_error;  // read after join()
  std::thread refresher([&] {
    try {
      a.refresh();
    } catch (const std::exception& e) {
      refresh_error = e.what();
    }
  });
  EXPECT_TRUE(
      wait_until([&] { return svc.server->store().has_pending(keystore::default_key_id()); }));
  if (b_conn) b_conn->shutdown();  // sever B mid-refresh
  crypto::Rng rng(7961);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  EXPECT_TRUE(svc.gg.gt_eq(b.decrypt(c), m));
  refresher.join();
  EXPECT_EQ(refresh_error, "");
  EXPECT_GE(b.reconnects(), 1u);
  EXPECT_EQ(a.epoch(), 1u);
  EXPECT_EQ(svc.epoch(), 1u) << "client and server epochs diverged";
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, svc.p1->share_for_test(), svc.sk2()),
                          svc.kg.msk))
      << "the overlapping reconnect forked the key material";
  const auto m2 = svc.gg.gt_random(rng);
  const auto c2 = Core::enc(svc.gg, svc.kg.pk, m2, rng);
  EXPECT_TRUE(svc.gg.gt_eq(a.decrypt(c2), m2));
  EXPECT_TRUE(svc.gg.gt_eq(b.decrypt(c2), m2));
}

TEST(ServiceRefreshOverlapTest, CommitUnderADecryptFloodCompletesWithinABound) {
  // Raw ks.dec floods from several connections keep every crypto worker
  // inside a decryption session of the key (real SS256 shares, so sessions
  // last milliseconds and overlap). The COMMIT must still get the exclusive
  // entry lock promptly: new sessions wait at the entry's gate while the
  // open ones drain, so the reader-preferring lock cannot starve it. The
  // flood stops on its own after 5 s, so a starved commit fails the bound
  // instead of hanging the test.
  using Tate = group::TateSS256;
  using TCore = schemes::DlrCore<Tate>;
  const Tate gg = group::make_tate_ss256();
  const auto prm = schemes::DlrParams::derive(gg.scalar_bits(), 64);
  crypto::Rng rng(7970);
  const auto kg = TCore::gen(gg, prm, rng);
  typename P2Server<Tate>::Options so;
  so.workers = 4;
  so.adaptive_parallel = false;
  P2Server<Tate> server(gg, prm, kg.sk2, crypto::Rng(7971), so);
  server.start();
  schemes::DlrParty1<Tate> party(gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain,
                                 crypto::Rng(7972));
  party.prepare_period();
  const Bytes round1 = party.dec_round1(TCore::enc(gg, kg.pk, gg.gt_random(rng), rng), rng);
  const Bytes r1 = party.ref_round1();
  const auto& id = keystore::default_key_id();
  (void)server.store().ref_prepare(id, 0, r1);

  const auto flood_end = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<bool> go{true};
  std::atomic<int> served{0};
  std::atomic<int> flood_errors{0};
  std::vector<std::thread> flooders;
  for (int t = 0; t < 4; ++t)
    flooders.emplace_back([&] {
      try {
        transport::SessionMux mux(std::make_shared<transport::FramedConn>(
            transport::connect_loopback(server.port())));
        std::deque<std::unique_ptr<transport::SessionMux::Session>> inflight;
        while (go.load() && std::chrono::steady_clock::now() < flood_end) {
          auto sess = mux.open();
          sess->send(transport::FrameType::Data, 1, keystore::kKsDec,
                     encode_ks_request(default_key_id(), 0, round1));
          inflight.push_back(std::move(sess));
          if (inflight.size() < 8) continue;
          if (inflight.front()->recv(transport::Millis{10000}).type == transport::FrameType::Data)
            served.fetch_add(1);
          inflight.pop_front();
        }
      } catch (const std::exception&) {
        flood_errors.fetch_add(1);
      }
    });
  EXPECT_TRUE(wait_until([&] { return served.load() >= 32; })) << "the flood never got going";
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(server.store().ref_commit(id, 0, crypto::digest_to_bytes(crypto::Sha256::hash(r1))),
            1u);
  const auto took = std::chrono::steady_clock::now() - t0;
  go.store(false);
  for (auto& t : flooders) t.join();
  EXPECT_EQ(flood_errors.load(), 0);
  EXPECT_LT(took, std::chrono::seconds(2))
      << "COMMIT waited "
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count()
      << " ms behind the decryption flood";
  server.stop();
}

// ---- the one-key server's wire bytes -------------------------------------------

/// SHA-256 (hex) over a reply's (type, label, body): everything a single-key
/// peer reads of it except the session id and the trace envelope.
std::string reply_digest(const transport::Frame& f) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(f.type));
  w.str(f.label);
  w.blob(f.body);
  return to_hex(crypto::Sha256::hash(w.bytes()));
}

TEST(KsWireTest, OneKeyServerRepliesArePinned) {
  // One fixed script of raw ks.* frames for the one-key server's key,
  // default_key_id(): a hello, four decryptions, the error cases, one
  // PREPARE/COMMIT, and the error cases again one epoch later. Every reply is
  // pinned by its digest, except the PREPARE reply: its round 2 depends on
  // how the server derives P2's coins, so only its label and length are
  // checked.
  MockGroup gg = make_mock();
  const auto prm = mock_params();
  crypto::Rng rng(7800);
  const auto kg = Core::gen(gg, prm, rng);
  P2Server<MockGroup> server(gg, prm, kg.sk2, crypto::Rng(7801),
                             typename P2Server<MockGroup>::Options{});
  server.start();
  schemes::DlrParty1<MockGroup> party(gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain,
                                      crypto::Rng(7802));
  party.prepare_period();
  const auto& id = keystore::default_key_id();

  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(server.port())));
  const auto roundtrip = [&](const char* label, const Bytes& body) {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1), label,
               body);
    return sess->recv(transport::Millis{5000});
  };
  std::vector<std::string> got;
  const auto pin = [&](const transport::Frame& f) { got.push_back(reply_digest(f)); };

  pin(roundtrip(keystore::kKsHello, keystore::encode_ks_hello(id, HelloMsg{})));
  for (int i = 0; i < 4; ++i) {
    const auto c = Core::enc(gg, kg.pk, gg.gt_random(rng), rng);
    pin(roundtrip(keystore::kKsDec, keystore::encode_ks_request(id, 0, party.dec_round1(c, rng))));
  }
  const auto c = Core::enc(gg, kg.pk, gg.gt_random(rng), rng);
  const Bytes round1 = party.dec_round1(c, rng);
  const auto error_cases = [&](std::uint64_t epoch) {
    using keystore::encode_ks_request;
    pin(roundtrip(keystore::kKsDec, encode_ks_request(id, 999, round1)));  // stale epoch
    pin(roundtrip(keystore::kKsDec, Bytes{0xFF, 0x01}));                   // bad envelope
    pin(roundtrip(keystore::kKsDec,
                  encode_ks_request(id, epoch, Bytes{1, 2, 3, 4, 5})));  // bad round 1
    pin(roundtrip("ks.bogus", Bytes{}));                                 // unknown label
  };
  error_cases(0);

  const Bytes r1 = party.ref_round1();
  const auto prepared = roundtrip(keystore::kKsRef, keystore::encode_ks_request(id, 0, r1));
  EXPECT_EQ(prepared.type, transport::FrameType::Data);
  EXPECT_EQ(prepared.label, keystore::kKsRefOk);
  EXPECT_EQ(prepared.body.size(), 40u);
  pin(roundtrip(keystore::kKsRefCommit,
                keystore::encode_ks_request(id, 0,
                                            crypto::digest_to_bytes(crypto::Sha256::hash(r1)))));
  error_cases(1);

  const std::vector<std::string> want = {
      "de3f480c22eae42e0d9cfd51fd29a86f4c3cc07ca298ef651ec3ff04716fc724",  // hello.ok
      "db36b183a80faf44020632575bdb31137b78eed8fb33b4604b759558e2f97687",  // dec.ok x4
      "12587dba1d2e90944322f69630433736979f008098562db65c45e3706734e3e1",
      "343100d86bd91b2a903195c09777768988311dac3c9a9bd89786fd05aa88137d",
      "fe8195bb97be9f728e7524f858651a8c5964005a931a366c579b495fcbf9d25d",
      "7caf86f17c8bf322d12e130ef288a4947c635defefcb7f7523bad4c758045444",  // epoch 0 errors
      "ea94a24be15fa9c0fa39d885d49c45872f80f276fff1920156457c27b8ef1b76",
      "ea94a24be15fa9c0fa39d885d49c45872f80f276fff1920156457c27b8ef1b76",
      "2305d8b25097ee396ab8ff08229b058a54c94fdae199567c8b1c749e77e46947",
      "da724559f6a0f164d0470270f4fe63a5d6c222abe47106f4eeb39131b91cba4d",  // commit.ok
      "61f2fb0991440ceb2ed2d732b59b51999ba1782de80929b942b6a5fa4d6a8c3c",  // epoch 1 errors
      "ab99e46c089bbd78ac3123292ade9c3cefc9c6510864d87689cc774ab7ceba5c",
      "ab99e46c089bbd78ac3123292ade9c3cefc9c6510864d87689cc774ab7ceba5c",
      "9ac5ae2df862de16b6b0d585f6563eb437e568dbda218fdef3f00b482f23319c",
  };
  EXPECT_EQ(got, want);
}

// ---- what the clients send ------------------------------------------------------

/// Every frame one client sent, across all of its connections, in order. The
/// test can hold a frame before it leaves, and lose one reply: the reply
/// arrives, then its connection dies, so the request took effect but its
/// answer never reaches the client.
struct SentLog {
  std::mutex mu;
  std::vector<transport::Frame> frames;
  std::function<void(const transport::Frame&)> hold;  // runs before a frame leaves
  std::string lose_reply;                             // label of the reply to lose

  /// One line per frame: type, label, length, the epoch and deadline fields
  /// of the requests that carry them, and whether a trace envelope rode along.
  std::vector<std::string> fields() {
    std::lock_guard lk(mu);
    std::vector<std::string> out;
    for (const auto& f : frames) {
      std::string s = std::string(f.type == transport::FrameType::Data ? "Data " : "Other ") +
                      f.label + " len=" + std::to_string(f.body.size());
      if (f.label == keystore::kKsDec || f.label == keystore::kKsRef ||
          f.label == keystore::kKsRefCommit) {
        const keystore::KsRequest r = keystore::decode_ks_request(f.body);
        s += " epoch=" + std::to_string(r.epoch) + " deadline=" + std::to_string(r.deadline_ms);
      } else if (f.label == keystore::kKsHello) {
        const HelloMsg h = keystore::decode_ks_hello(f.body).hello;
        s += " epoch=" + std::to_string(h.epoch) + " pending=" + std::to_string(h.has_pending);
      }
      s += std::string(" trace=") + (f.trace_id != 0 ? "1" : "0");
      out.push_back(std::move(s));
    }
    return out;
  }
};

class RecordingConn final : public transport::Conn {
 public:
  RecordingConn(std::shared_ptr<transport::Conn> under, std::shared_ptr<SentLog> log)
      : under_(std::move(under)), log_(std::move(log)) {}

  void send(const transport::Frame& f) override {
    {
      std::lock_guard lk(log_->mu);
      log_->frames.push_back(f);
    }
    if (log_->hold) log_->hold(f);
    under_->send(f);
  }
  transport::Frame recv(std::optional<transport::Millis> timeout) override {
    transport::Frame f = under_->recv(timeout);
    bool lose = false;
    {
      std::lock_guard lk(log_->mu);
      if (!log_->lose_reply.empty() && f.label == log_->lose_reply) {
        log_->lose_reply.clear();
        lose = true;
      }
    }
    if (lose) {
      under_->shutdown();
      throw transport::TransportError(transport::Errc::ConnectionClosed, "lost " + f.label);
    }
    return f;
  }
  void shutdown() noexcept override { under_->shutdown(); }

 private:
  std::shared_ptr<transport::Conn> under_;
  std::shared_ptr<SentLog> log_;
};

std::function<std::shared_ptr<transport::Conn>(std::shared_ptr<transport::FramedConn>)>
record_into(std::shared_ptr<SentLog> log) {
  return [log](std::shared_ptr<transport::FramedConn> fc) -> std::shared_ptr<transport::Conn> {
    return std::make_shared<RecordingConn>(std::move(fc), log);
  };
}

/// "1" where a request frame carries the caller's trace context.
const std::string kTraced = DLR_TELEMETRY_ENABLED ? "1" : "0";

TEST(ClientWireTest, DecryptionClientFramesArePinned) {
  // One fixed script through DecryptionClient: connect hellos, a decryption,
  // a decryption held until a refresh commits (StaleEpoch, then a retry at
  // the new epoch), and a refresh whose COMMIT reply is lost (the reconnect
  // hello, sent inside the refresh's span, reports the refresh pending and
  // rolls it forward). Every request names default_key_id().
  Service svc(/*workers=*/2, 7850);
  auto log_a = std::make_shared<SentLog>();
  auto log_b = std::make_shared<SentLog>();
  typename DecryptionClient<MockGroup>::Options opt;
  opt.retry.base = transport::Millis{2};
  opt.retry.cap = transport::Millis{20};
  opt.conn_wrapper = record_into(log_a);
  auto a = svc.client(opt);
  opt.conn_wrapper = record_into(log_b);
  auto b = svc.client(opt);
  crypto::Rng rng(7851);
  const auto dec = [&](DecryptionClient<MockGroup>& client) {
    const auto m = svc.gg.gt_random(rng);
    return svc.gg.gt_eq(client.decrypt(Core::enc(svc.gg, svc.kg.pk, m, rng)), m);
  };
  EXPECT_TRUE(dec(b));

  // B's next request leaves only once A's refresh has committed at the server.
  std::atomic<bool> held{false};
  log_b->hold = [&](const transport::Frame& f) {
    if (f.label != keystore::kKsDec || held.exchange(true)) return;
    (void)wait_until([&] { return svc.epoch() == 1; });
  };
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  std::atomic<bool> b_ok{false};
  std::thread held_dec([&] { b_ok.store(svc.gg.gt_eq(b.decrypt(c), m)); });
  EXPECT_TRUE(wait_until([&] { return held.load(); }));
  a.refresh();
  held_dec.join();
  EXPECT_TRUE(b_ok.load());

  log_a->lose_reply = keystore::kKsRefCommitOk;
  a.refresh();
  EXPECT_EQ(a.epoch(), 2u);
  EXPECT_EQ(svc.epoch(), 2u);
  EXPECT_GE(a.reconnects(), 1u);

  const std::vector<std::string> want_a = {
      "Data ks.hello len=57 epoch=0 pending=0 trace=0",
      "Data ks.ref len=1768 epoch=0 deadline=0 trace=" + kTraced,
      "Data ks.ref.commit len=80 epoch=0 deadline=0 trace=" + kTraced,
      "Data ks.ref len=1768 epoch=1 deadline=0 trace=" + kTraced,
      "Data ks.ref.commit len=80 epoch=1 deadline=0 trace=" + kTraced,
      "Data ks.hello len=89 epoch=1 pending=1 trace=" + kTraced,
  };
  const std::vector<std::string> want_b = {
      "Data ks.hello len=57 epoch=0 pending=0 trace=0",
      "Data ks.dec len=968 epoch=0 deadline=0 trace=" + kTraced,
      "Data ks.dec len=968 epoch=0 deadline=0 trace=" + kTraced,
      "Data ks.dec len=968 epoch=1 deadline=0 trace=" + kTraced,
  };
  EXPECT_EQ(log_a->fields(), want_a);
  EXPECT_EQ(log_b->fields(), want_b);
}

TEST(ClientWireTest, KsFleetFramesArePinned) {
  // One fixed script through KsFleet over two shards: provisioning through a
  // fleet with no map (WrongShard, ks.map, re-route), a decryption, a refresh
  // whose commit reply is lost (the next attempt's ks.hello reports the
  // refresh pending and rolls it forward), and a decryption at the new epoch.
  // The fleet opens no client spans, so nothing it sends is traced.
  using keystore::KsFleet;
  using keystore::KsServer;
  const MockGroup gg = make_mock();
  const auto prm = mock_params();
  typename KsServer<MockGroup>::Options o0, o1;
  o0.shard_id = 0;
  o1.shard_id = 1;
  KsServer<MockGroup> s0(gg, prm, crypto::Rng(7860), o0);
  KsServer<MockGroup> s1(gg, prm, crypto::Rng(7861), o1);
  s0.start();
  s1.start();
  const keystore::ShardMap map(1, {{0, "", s0.port()}, {1, "", s1.port()}});
  s0.set_shard_map(map);
  s1.set_shard_map(map);
  keystore::KeyId id{"acme", ""};
  for (int i = 0; map.owner(id) != 1; ++i) id.key = "key" + std::to_string(i);

  auto log = std::make_shared<SentLog>();
  typename KsFleet<MockGroup>::Options fo;
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{20};
  fo.conn_wrapper = record_into(log);
  KsFleet<MockGroup> fleet(gg, prm, crypto::Rng(7862), s0.port(), fo);
  crypto::Rng rng(7863);
  const auto kg = Core::gen(gg, prm, rng);
  fleet.add_key(id, kg.pk, kg.sk1, schemes::P1Mode::Plain);
  fleet.provision(id, kg.sk2);
  const auto dec = [&] {
    const auto m = gg.gt_random(rng);
    return gg.gt_eq(fleet.decrypt(id, Core::enc(gg, kg.pk, m, rng)), m);
  };
  EXPECT_TRUE(dec());
  log->lose_reply = keystore::kKsRefCommitOk;
  fleet.refresh_key(id);
  EXPECT_EQ(fleet.epoch_of(id), 1u);
  EXPECT_EQ(s1.store().epoch_of(id), 1u);
  EXPECT_TRUE(dec());
  fleet.close();

  const std::vector<std::string> want = {
      "Data ks.put len=204 trace=0",
      "Data ks.map len=0 trace=0",
      "Data ks.put len=204 trace=0",
      "Data ks.dec len=956 epoch=0 deadline=0 trace=0",
      "Data ks.ref len=1756 epoch=0 deadline=0 trace=0",
      "Data ks.ref.commit len=68 epoch=0 deadline=0 trace=0",
      "Data ks.hello len=77 epoch=0 pending=1 trace=0",
      "Data ks.dec len=956 epoch=1 deadline=0 trace=0",
  };
  EXPECT_EQ(log->fields(), want);
  s0.stop();
  s1.stop();
}

TEST(ServiceTest, StopIsOrderlyAndIdempotent) {
  Service svc;
  {
    auto client = svc.client();
    crypto::Rng rng(5);
    const auto m = svc.gg.gt_random(rng);
    const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
    (void)client.decrypt_once(c);
    client.close();
  }
  svc.server->stop();
  svc.server->stop();
}

// ---- PR 8: pipelined decryption path ------------------------------------------

TEST(ServicePipelineTest, BatchesFormAndEpochsNeverMix) {
  // Fan-in load with refreshes firing: batches must form (the histogram
  // records every batch) and no batch may ever span two epochs -- each runs
  // under one DecSession, whose shared entry lock a commit must wait out, so
  // every plaintext comes back right.
#if DLR_TELEMETRY_ENABLED
  auto& reg = telemetry::Registry::global();
  const auto batches_before = reg.histogram("svc.batch.size").count();
#endif
  Service svc(/*workers=*/2, /*seed=*/7610);
  typename DecryptionClient<MockGroup>::Options opt;
  opt.auto_refresh_every = 5;
  auto client = svc.client(opt);
  constexpr int kThreads = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      crypto::Rng rng(7611 + t);
      for (int i = 0; i < 10; ++i) {
        const auto m = svc.gg.gt_random(rng);
        const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
        try {
          if (!svc.gg.gt_eq(client.decrypt(c), m)) wrong.fetch_add(1);
        } catch (const std::exception&) {
          wrong.fetch_add(1);
        }
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(svc.epoch(), 1u);
#if DLR_TELEMETRY_ENABLED
  EXPECT_GT(reg.histogram("svc.batch.size").count(), batches_before)
      << "pipelined requests never went through the batch collector";
#endif
}

TEST(ServicePipelineTest, SeveredConnectionMidBatchFailsOnlyThatRequest) {
  // One connection sends a valid decryption request and dies before the
  // reply; the send failure must be contained to that connection -- the
  // healthy client keeps decrypting correctly, before and after.
  Service svc;
  auto client = svc.client();
  crypto::Rng rng(7620);
  {
    const auto m = svc.gg.gt_random(rng);
    const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
    EXPECT_TRUE(svc.gg.gt_eq(client.decrypt_once(c), m));
  }
  for (int round = 0; round < 3; ++round) {
    auto raw = std::make_shared<transport::FramedConn>(
        transport::connect_loopback(svc.server->port()));
    const auto m = svc.gg.gt_random(rng);
    const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
    const auto snap = svc.p1->begin_decrypt(c, rng);
    raw->send(transport::Frame{/*session=*/1, transport::FrameType::Data,
                               static_cast<std::uint8_t>(net::DeviceId::P1),
                               keystore::kKsDec,
                               encode_ks_request(default_key_id(), snap.epoch, snap.round1)});
    raw->shutdown();  // gone before the crypto worker can reply
  }
  for (int i = 0; i < 4; ++i) {
    const auto m = svc.gg.gt_random(rng);
    const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
    EXPECT_TRUE(svc.gg.gt_eq(client.decrypt_once(c), m));
  }
}

TEST(EpochCoordinatorTest, DrainDeadlineFailsTheRefreshCleanly) {
  // A decryption that fails mid-batch must not wedge refresh: the session
  // releases the entry however run() exits, so the next commit completes.
  // The drain needs no deadline of its own.
  DefaultKey k(7090);
  auto p = k.party(7091);
  {
    auto session = k.store.dec_session(k.id);
    EXPECT_EQ(errc_of([&] { (void)session.run(0, Bytes{1, 2, 3}); }), ServiceErrc::BadRequest);
  }
  EXPECT_EQ(errc_of([&] { (void)k.store.dec_session(k.id).run(0, Bytes{4}); }),
            ServiceErrc::BadRequest);
  EXPECT_EQ(k.refresh(*p, 0), 1u);
  EXPECT_EQ(k.store.epoch_of(k.id), 1u);
}

// ---- two-phase refresh commit -------------------------------------------------

TEST(ServiceTwoPhaseTest, DuplicatePrepareAndCommitAreIdempotent) {
  Service svc;
  // A standalone P1 party drives raw 2PC frames, so we can replay them.
  schemes::DlrParty1<MockGroup> party(svc.gg, svc.prm, svc.kg.pk, svc.kg.sk1,
                                      schemes::P1Mode::Plain, crypto::Rng(31));
  party.prepare_period();
  const Bytes r1 = party.ref_round1();

  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));
  const auto roundtrip = [&](const char* label, const Bytes& body) {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, 1, label, body);
    return sess->recv(transport::Millis{5000});
  };

  // PREPARE twice with the identical round-1 message: the replies must be
  // byte-identical (a resampled s' would desync the committed share) and the
  // epoch must not move.
  const Bytes req = encode_ks_request(default_key_id(), 0, r1);
  const Bytes r2a = expect_ok(roundtrip(keystore::kKsRef, req), keystore::kKsRefOk);
  const Bytes r2b = expect_ok(roundtrip(keystore::kKsRef, req), keystore::kKsRefOk);
  EXPECT_EQ(r2a, r2b);
  EXPECT_EQ(svc.epoch(), 0u) << "prepare must not advance the epoch";
  EXPECT_TRUE(svc.server->store().has_pending(keystore::default_key_id()));

  // COMMIT twice: first installs (epoch 1), second acks idempotently.
  const Bytes digest = crypto::digest_to_bytes(crypto::Sha256::hash(r1));
  const Bytes cbody = encode_ks_request(default_key_id(), 0, digest);
  EXPECT_EQ(decode_commit_ok(
                expect_ok(roundtrip(keystore::kKsRefCommit, cbody), keystore::kKsRefCommitOk)),
            1u);
  EXPECT_EQ(decode_commit_ok(
                expect_ok(roundtrip(keystore::kKsRefCommit, cbody), keystore::kKsRefCommitOk)),
            1u);
  EXPECT_EQ(svc.epoch(), 1u);
  EXPECT_FALSE(svc.server->store().has_pending(keystore::default_key_id()));

  // Both halves installed exactly once: the msk is intact.
  party.ref_finish(r2a);
  EXPECT_TRUE(svc.gg.g_eq(
      Core::reconstruct_msk(svc.gg, party.recover_share_for_test(), svc.sk2()),
      svc.kg.msk));

  // A commit for a digest nobody prepared is rejected, not applied.
  const Bytes bogus = encode_ks_request(default_key_id(), 1, Bytes(32, 0x42));
  const auto resp = roundtrip(keystore::kKsRefCommit, bogus);
  EXPECT_EQ(resp.type, transport::FrameType::Error);
  EXPECT_EQ(decode_error(resp.body).code(), ServiceErrc::StaleEpoch);
}

TEST(ServiceTwoPhaseTest, RefreshInterruptedAtEveryFrameConvergesWithoutForking) {
  // The tentpole acceptance matrix: kill/corrupt the refresh exchange at each
  // frame index, in each direction, and require that client.refresh() still
  // converges with (a) equal epochs on both sides, (b) the msk unchanged, and
  // (c) a correct decryption afterwards. Client-connection frame indices:
  // out 0 = hello, out 1 = prepare, out 2 = commit; in k = reply to out k.
  using transport::Direction;
  using transport::FaultKind;
  struct Case {
    Direction dir;
    std::uint64_t index;
    transport::FaultAction action;
  };
  const std::vector<Case> cases = {
      {Direction::Outbound, 1, {FaultKind::Sever}},
      {Direction::Outbound, 1, {FaultKind::Drop}},
      {Direction::Outbound, 1, {FaultKind::BitFlip, 100}},
      {Direction::Outbound, 1, {FaultKind::Truncate, 5}},
      {Direction::Outbound, 2, {FaultKind::Sever}},
      {Direction::Outbound, 2, {FaultKind::Drop}},
      {Direction::Outbound, 2, {FaultKind::BitFlip, 100}},
      {Direction::Inbound, 1, {FaultKind::Sever}},
      {Direction::Inbound, 1, {FaultKind::Drop}},
      {Direction::Inbound, 2, {FaultKind::Sever}},
      {Direction::Inbound, 2, {FaultKind::Drop}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i) + ": dir=" +
                 std::to_string(static_cast<int>(cases[i].dir)) + " index=" +
                 std::to_string(cases[i].index) + " fault=" +
                 transport::fault_kind_name(cases[i].action.kind));
    Service svc(/*workers=*/2, 7100 + i);
    std::atomic<int> conn_no{0};
    std::shared_ptr<transport::FaultInjector> injector;
    typename DecryptionClient<MockGroup>::Options opt;
    opt.request_timeout = transport::Millis{300};
    opt.retry.max_attempts = 9;
    opt.retry.base = transport::Millis{2};
    opt.retry.cap = transport::Millis{20};
    opt.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
        -> std::shared_ptr<transport::Conn> {
      if (conn_no.fetch_add(1) != 0) return fc;  // only the first connection faults
      transport::FaultPlan plan;
      plan.at(cases[i].dir, cases[i].index, cases[i].action);
      injector = std::make_shared<transport::FaultInjector>(std::move(fc), plan);
      return injector;
    };
    auto client = svc.client(opt);
    client.refresh();  // must converge despite the injected fault

    EXPECT_EQ(client.epoch(), 1u);
    EXPECT_EQ(svc.epoch(), 1u) << "client and server epochs diverged";
    ASSERT_NE(injector, nullptr);
    EXPECT_GE(injector->injected(), 1u) << "the fault never fired";
    const auto sk1 = svc.p1->share_for_test();
    const auto sk2 = svc.sk2();
    EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, sk1, sk2), svc.kg.msk))
        << "interrupted refresh forked the key material";
    crypto::Rng rng(100 + i);
    const auto m = svc.gg.gt_random(rng);
    const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
    EXPECT_TRUE(svc.gg.gt_eq(client.decrypt(c), m));
  }
}

// ---- crash-restart recovery ---------------------------------------------------

TEST(ServiceRecoveryTest, ServerRestartResumesShareAndEpochFromJournal) {
  Service svc(4, 7300, make_state_dir());
  auto client = svc.client();
  crypto::Rng rng(41);
  client.refresh();
  ASSERT_EQ(svc.epoch(), 1u);

  // "Crash" the server; bring a new one up from the journal, seeded with a
  // decoy share from an unrelated keygen to prove the journal wins.
  crypto::Rng decoy_rng(999);
  auto decoy = Core::gen(svc.gg, svc.prm, decoy_rng);
  auto& recoveries = telemetry::Registry::global().counter("ks.recoveries");
  [[maybe_unused]] const auto recoveries0 = recoveries.value();
  const Bytes state_before = svc.server->store().digest_all();
  svc.restart_server(std::move(decoy.sk2));

  // The restarted store holds the journaled (epoch, share), not the decoy.
  EXPECT_EQ(svc.server->store().digest_all(), state_before)
      << "the share did not come from the journal";
#if DLR_TELEMETRY_ENABLED
  EXPECT_EQ(recoveries.value(), recoveries0 + 1) << "the share did not come from the journal";
#endif
  EXPECT_EQ(svc.epoch(), 1u) << "epoch not restored from the journal";
  auto client2 = svc.client();  // fresh connection + hello reconciliation
  EXPECT_EQ(client2.epoch(), svc.epoch());
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  EXPECT_TRUE(svc.gg.gt_eq(client2.decrypt(c), m));
  const auto sk1 = svc.p1->share_for_test();
  const auto sk2 = svc.sk2();
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, sk1, sk2), svc.kg.msk));
}

TEST(ServiceRecoveryTest, ClientCrashAfterPrepareRollsBackOnRestart) {
  // Crash the client between PREPARE and COMMIT: the restarted client must
  // journal-restore the pending refresh and the hello verdict must be
  // Rollback (the server never installed), leaving epochs at 0.
  const std::string p1_dir = make_state_dir();
  Service svc(4, 7400, {}, p1_dir);
  {
    std::atomic<int> conn_no{0};
    typename DecryptionClient<MockGroup>::Options opt;
    opt.request_timeout = transport::Millis{300};
    opt.retry.max_attempts = 1;  // first failure surfaces: the "crash" point
    opt.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
        -> std::shared_ptr<transport::Conn> {
      if (conn_no.fetch_add(1) != 0) return fc;
      transport::FaultPlan plan;
      plan.out_at(2, {transport::FaultKind::Sever});  // commit frame never leaves
      return std::make_shared<transport::FaultInjector>(std::move(fc), plan);
    };
    auto client = svc.client(opt);
    EXPECT_THROW(client.refresh(), transport::TransportError);
    EXPECT_EQ(svc.p1->pending_info().active, true);
  }
  // Process restart: rebuild the runtime from the journal (decoy sk1 proves
  // the journal wins) and reconnect.
  crypto::Rng decoy_rng(998);
  auto decoy = Core::gen(svc.gg, svc.prm, decoy_rng);
  svc.p1 = std::make_shared<P1Runtime<MockGroup>>(svc.gg, svc.prm, svc.kg.pk, decoy.sk1,
                                                  schemes::P1Mode::Plain, crypto::Rng(43),
                                                  p1_dir);
  EXPECT_TRUE(svc.p1->pending_info().active) << "pending refresh lost across restart";
  auto client = svc.client();  // ctor hello applies the Rollback verdict
  EXPECT_FALSE(svc.p1->pending_info().active);
  EXPECT_EQ(client.epoch(), 0u);
  EXPECT_EQ(svc.epoch(), 0u);
  crypto::Rng rng(44);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  EXPECT_TRUE(svc.gg.gt_eq(client.decrypt(c), m));
  const auto sk1 = svc.p1->share_for_test();
  const auto sk2 = svc.sk2();
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, sk1, sk2), svc.kg.msk));
}

TEST(ServiceRecoveryTest, ClientCrashAfterServerCommitRollsForwardOnRestart) {
  // Crash the client after the server installed but before the ack arrived:
  // the restarted client's hello verdict must be Commit, and the journaled
  // round 2 must roll the client forward to the server's epoch.
  for (const auto mode : {schemes::P1Mode::Plain, schemes::P1Mode::Compact}) {
    SCOPED_TRACE(mode == schemes::P1Mode::Plain ? "plain" : "compact");
    const std::string p1_dir = make_state_dir();
    Service svc(4, 7500 + static_cast<int>(mode));
    svc.p1 = std::make_shared<P1Runtime<MockGroup>>(svc.gg, svc.prm, svc.kg.pk, svc.kg.sk1,
                                                    mode, crypto::Rng(45), p1_dir);
    {
      std::atomic<int> conn_no{0};
      typename DecryptionClient<MockGroup>::Options opt;
      opt.request_timeout = transport::Millis{300};
      opt.retry.max_attempts = 1;
      opt.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
          -> std::shared_ptr<transport::Conn> {
        if (conn_no.fetch_add(1) != 0) return fc;
        transport::FaultPlan plan;
        plan.in_at(2, {transport::FaultKind::Sever});  // commit.ok never arrives
        return std::make_shared<transport::FaultInjector>(std::move(fc), plan);
      };
      auto client = svc.client(opt);
      EXPECT_THROW(client.refresh(), transport::TransportError);
    }
    ASSERT_EQ(svc.epoch(), 1u) << "server should have installed the refresh";
    // Process restart from the journal.
    svc.p1 = std::make_shared<P1Runtime<MockGroup>>(svc.gg, svc.prm, svc.kg.pk, svc.kg.sk1,
                                                    mode, crypto::Rng(46), p1_dir);
    ASSERT_TRUE(svc.p1->pending_info().active);
    EXPECT_TRUE(svc.p1->pending_info().has_r2) << "round 2 was not journaled pre-commit";
    auto client = svc.client();  // ctor hello applies the Commit verdict
    EXPECT_FALSE(svc.p1->pending_info().active);
    EXPECT_EQ(client.epoch(), 1u);
    EXPECT_EQ(svc.epoch(), 1u);
    crypto::Rng rng(47);
    const auto m = svc.gg.gt_random(rng);
    const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
    EXPECT_TRUE(svc.gg.gt_eq(client.decrypt(c), m));
    const auto sk1 = svc.p1->share_for_test();
    const auto sk2 = svc.sk2();
    EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, sk1, sk2), svc.kg.msk))
        << "roll-forward recovery forked the key material";
  }
}

/// The segment files of a durable P1Runtime's journal (<state_dir>/p1/), oldest first.
std::vector<std::filesystem::path> p1_segments(const std::string& state_dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::directory_iterator(state_dir + "/p1"))
    if (e.path().extension() == ".log") out.push_back(e.path());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ServiceRecoveryTest, TornTailInP1JournalResumesFromThePreviousRecord) {
  // Two refreshes, then a crash that tears the last record P1 appended (the
  // installed epoch-2 state). The restart resumes from the record before it,
  // the journaled round 2 of the second refresh, and the hello rolls it
  // forward to the epoch the server already committed.
  const std::string p1_dir = make_state_dir();
  Service svc(4, 7550, {}, p1_dir);
  {
    auto client = svc.client();
    client.refresh();
    client.refresh();
    ASSERT_EQ(client.epoch(), 2u);
  }
  const auto segs = p1_segments(p1_dir);
  ASSERT_EQ(segs.size(), 1u);
  std::filesystem::resize_file(segs.back(), std::filesystem::file_size(segs.back()) - 9);
  auto& torn = telemetry::Registry::global().counter("ks.journal.torn_tails");
  [[maybe_unused]] const auto torn0 = torn.value();
  crypto::Rng decoy_rng(997);
  const auto decoy = Core::gen(svc.gg, svc.prm, decoy_rng);
  svc.p1 = std::make_shared<P1Runtime<MockGroup>>(svc.gg, svc.prm, svc.kg.pk, decoy.sk1,
                                                  schemes::P1Mode::Plain, crypto::Rng(48),
                                                  p1_dir);
#if DLR_TELEMETRY_ENABLED
  EXPECT_EQ(torn.value(), torn0 + 1);
#endif
  EXPECT_EQ(svc.p1->epoch(), 1u);
  ASSERT_TRUE(svc.p1->pending_info().active);
  EXPECT_TRUE(svc.p1->pending_info().has_r2);
  auto client = svc.client();  // ctor hello applies the Commit verdict
  EXPECT_EQ(client.epoch(), 2u);
  crypto::Rng rng(49);
  const auto m = svc.gg.gt_random(rng);
  EXPECT_TRUE(svc.gg.gt_eq(client.decrypt(Core::enc(svc.gg, svc.kg.pk, m, rng)), m));
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, svc.p1->share_for_test(), svc.sk2()),
                          svc.kg.msk));
}

TEST(ServiceRecoveryTest, LeftoverP1JournalFileIsRefused) {
  // A p1.journal from a build that journaled P1 in its own single-record
  // format: its share may be epochs ahead of the constructor's, so the
  // runtime refuses to start rather than fall back to the constructor share.
  const std::string p1_dir = make_state_dir();
  const std::string leftover = p1_dir + "/p1.journal";
  {
    FILE* f = std::fopen(leftover.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("DLRJ", f);
    std::fclose(f);
  }
  const auto gg = make_mock();
  const auto prm = mock_params();
  crypto::Rng rng(7560);
  const auto kg = Core::gen(gg, prm, rng);
  try {
    P1Runtime<MockGroup> p1(gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain, crypto::Rng(7561),
                            p1_dir);
    FAIL() << "a leftover p1.journal was ignored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(leftover), std::string::npos) << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(p1_dir + "/p1")) << "refused, yet a journal was opened";
}

// ---- graceful shutdown --------------------------------------------------------

TEST(ServiceTest, DrainingServerAnswersRetryableShutdown) {
  Service svc;
  svc.server->begin_drain();
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));
  auto sess = mux.open();
  sess->send(transport::FrameType::Data, 1, keystore::kKsDec,
             encode_ks_request(default_key_id(), 0, Bytes{1}));
  const auto resp = sess->recv(transport::Millis{5000});
  ASSERT_EQ(resp.type, transport::FrameType::Error);
  const ServiceError err = decode_error(resp.body);
  EXPECT_EQ(err.code(), ServiceErrc::Shutdown);
  EXPECT_TRUE(err.retryable()) << "Shutdown must be retryable (elsewhere/later)";
  svc.server->stop();
}

// ---- chaos soak ---------------------------------------------------------------

TEST(ServiceChaosTest, SeededChaosSoakNeverReturnsAWrongPlaintext) {
  // N client threads decrypt while auto-refresh fires and a seeded injector
  // drops/corrupts/severs their connections. Invariants: no wrong plaintext
  // is EVER returned (typed failures after retry exhaustion are tolerated),
  // and after one clean reconciliating connection the epochs agree and the
  // msk is unchanged. DLR_CHAOS_SEED picks the schedule; every failure
  // replays deterministically under its seed.
  const char* env = std::getenv("DLR_CHAOS_SEED");
  const std::uint64_t seed = env ? std::strtoull(env, nullptr, 10) : 1;
  Service svc(/*workers=*/4, 7900 + seed);

  std::atomic<std::uint64_t> conn_no{0};
  typename DecryptionClient<MockGroup>::Options opt;
  opt.request_timeout = transport::Millis{300};
  opt.retry.max_attempts = 41;
  opt.retry.base = transport::Millis{2};
  opt.retry.cap = transport::Millis{30};
  opt.auto_refresh_every = 5;
  opt.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
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
  auto client = svc.client(opt);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 12;
  std::atomic<int> wrong{0}, gave_up{0}, ok{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      crypto::Rng rng(8800 + seed * 100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const auto m = svc.gg.gt_random(rng);
        const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
        try {
          if (svc.gg.gt_eq(client.decrypt(c), m))
            ok.fetch_add(1);
          else
            wrong.fetch_add(1);
        } catch (const std::exception&) {
          gave_up.fetch_add(1);  // typed failure after budget exhaustion: allowed
        }
      }
    });
  for (auto& t : ts) t.join();

  EXPECT_EQ(wrong.load(), 0) << "chaos produced a silently wrong plaintext";
  EXPECT_GT(ok.load(), 0) << "nothing succeeded -- retry budget far too small";

  // One clean connection reconciles whatever the chaos left half-done...
  auto clean = svc.client();
  EXPECT_FALSE(svc.p1->pending_info().active);
  EXPECT_EQ(clean.epoch(), svc.epoch()) << "epochs failed to reconcile";
  // ...and the invariants hold: correct decryption, unchanged msk.
  crypto::Rng rng(9999);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  EXPECT_TRUE(svc.gg.gt_eq(clean.decrypt(c), m));
  const auto sk1 = svc.p1->share_for_test();
  const auto sk2 = svc.sk2();
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, sk1, sk2), svc.kg.msk))
      << "chaos soak changed the shared msk";
}

// ---- overload protection (DESIGN.md §13) --------------------------------------

/// A deliberately tiny server: one crypto worker, one-item batches, a
/// two-item queue, and an injected crypto delay so saturation is
/// deterministic rather than a race against mock-group speed.
struct TinyServer {
  MockGroup gg = make_mock();
  schemes::DlrParams prm = mock_params();
  Core::KeyGenResult kg;
  std::unique_ptr<P2Server<MockGroup>> server;
  std::shared_ptr<P1Runtime<MockGroup>> p1;

  explicit TinyServer(std::chrono::microseconds crypto_delay,
                      std::size_t queue_cap = 2) {
    crypto::Rng rng(7400);
    kg = Core::gen(gg, prm, rng);
    typename P2Server<MockGroup>::Options opt;
    opt.workers = 1;
    opt.max_batch = 1;
    opt.queue_cap = queue_cap;
    opt.inject_crypto_delay = crypto_delay;
    server = std::make_unique<P2Server<MockGroup>>(gg, prm, kg.sk2, crypto::Rng(7401),
                                                   opt);
    server->start();
    p1 = std::make_shared<P1Runtime<MockGroup>>(gg, prm, kg.pk, kg.sk1,
                                                schemes::P1Mode::Plain,
                                                crypto::Rng(7402), std::string{});
  }
  ~TinyServer() { server->stop(); }
};

TEST(ServiceOverloadTest, SaturatedQueueShedsTypedOverloadedWithRetryAfter) {
  TinyServer svc(std::chrono::microseconds{20000});
  crypto::Rng rng(41);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  const Bytes round1 = svc.p1->begin_decrypt(c, rng).round1;

  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));
  constexpr int kFlood = 30;
  std::vector<std::unique_ptr<transport::SessionMux::Session>> sessions;
  for (int i = 0; i < kFlood; ++i) {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, 1, keystore::kKsDec,
               encode_ks_request(default_key_id(), 0, round1));
    sessions.push_back(std::move(sess));
  }

  int ok = 0, shed = 0, other = 0;
  for (auto& sess : sessions) {
    const auto resp = sess->recv(transport::Millis{10000});
    if (resp.type == transport::FrameType::Data) {
      ++ok;
      continue;
    }
    const ServiceError err = decode_error(resp.body);
    if (err.code() == ServiceErrc::Overloaded) {
      ++shed;
      EXPECT_TRUE(err.retryable());
      EXPECT_GT(err.retry_after_ms(), 0u)
          << "every Overloaded response must carry a server-computed hint";
    } else {
      ++other;
    }
  }
  EXPECT_GT(ok, 0) << "saturation shed everything -- no goodput at all";
  EXPECT_GT(shed, 0) << "30 requests against a 2-slot queue never shed";
  EXPECT_EQ(other, 0);
  EXPECT_GT(svc.server->gov().shed_overload(), 0u);
}

TEST(ServiceOverloadTest, ExpiredDeadlineIsDroppedBeforeCryptoIsSpent) {
  TinyServer svc(std::chrono::microseconds{30000}, /*queue_cap=*/64);
  crypto::Rng rng(42);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  const Bytes round1 = svc.p1->begin_decrypt(c, rng).round1;

  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));
  // First request occupies the single worker for ~30 ms...
  auto busy = mux.open();
  busy->send(transport::FrameType::Data, 1, keystore::kKsDec,
             encode_ks_request(default_key_id(), 0, round1));
  // ...so the second, carrying a 1 ms deadline budget, expires while queued.
  auto doomed = mux.open();
  doomed->send(transport::FrameType::Data, 1, keystore::kKsDec,
               encode_ks_request(default_key_id(), 0, round1, /*deadline_ms=*/1));

  const auto resp = doomed->recv(transport::Millis{10000});
  ASSERT_EQ(resp.type, transport::FrameType::Error);
  const ServiceError err = decode_error(resp.body);
  EXPECT_EQ(err.code(), ServiceErrc::DeadlineExceeded);
  EXPECT_FALSE(err.retryable()) << "the budget is spent; retrying cannot help";
  EXPECT_EQ(busy->recv(transport::Millis{10000}).type, transport::FrameType::Data)
      << "the undeadlined request must still be served";
  EXPECT_GT(svc.server->gov().shed_deadline(), 0u);
}

TEST(ServiceOverloadTest, DegradedModeDeprioritizesRefreshPrepares) {
  // queue_cap 4: even if the lone worker steals an item from the queue the
  // moment it fills, depth stays >= 3 = the 0.75 high-water mark.
  TinyServer svc(std::chrono::microseconds{50000}, /*queue_cap=*/4);
  crypto::Rng rng(43);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  const Bytes round1 = svc.p1->begin_decrypt(c, rng).round1;

  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));
  std::vector<std::unique_ptr<transport::SessionMux::Session>> flood;
  for (int i = 0; i < 10; ++i) {
    auto sess = mux.open();
    sess->send(transport::FrameType::Data, 1, keystore::kKsDec,
               encode_ks_request(default_key_id(), 0, round1));
    flood.push_back(std::move(sess));
  }

  // With the 2-slot queue saturated (high water 0.75 * 2), a background
  // refresh prepare is turned away so decrypts keep the worker. The shed
  // happens before the payload is decoded, so dummy bytes suffice.
  auto sess = mux.open();
  sess->send(transport::FrameType::Data, 1, keystore::kKsRef,
             encode_ks_request(default_key_id(), 0, Bytes{1, 2, 3}));
  const auto resp = sess->recv(transport::Millis{10000});
  ASSERT_EQ(resp.type, transport::FrameType::Error);
  const ServiceError err = decode_error(resp.body);
  EXPECT_EQ(err.code(), ServiceErrc::Overloaded);
  EXPECT_TRUE(err.retryable());
  EXPECT_GT(err.retry_after_ms(), 0u);
  for (auto& s : flood) (void)s->recv(transport::Millis{10000});
  EXPECT_GT(svc.server->gov().shed_refresh(), 0u);
}

TEST(ServiceOverloadTest, ClientBreakerOpensOnDeadEndpointAndFastFails) {
  // Nothing listens on the target port: every attempt is a transport failure.
  const auto gg = make_mock();
  const auto prm = mock_params();
  crypto::Rng rng(7500);
  const auto kg = Core::gen(gg, prm, rng);
  auto p1 = std::make_shared<P1Runtime<MockGroup>>(gg, prm, kg.pk, kg.sk1,
                                                   schemes::P1Mode::Plain,
                                                   crypto::Rng(7501), std::string{});
  typename DecryptionClient<MockGroup>::Options opt;
  opt.retry.max_attempts = 2;
  opt.retry.base = transport::Millis{1};
  opt.retry.cap = transport::Millis{2};
  // The fast-fail hint equals the remaining cooldown (60 s); a finite retry
  // budget keeps the schedule from actually sleeping on it.
  opt.retry.deadline = transport::Millis{200};
  opt.breaker.failure_threshold = 2;
  opt.breaker.open_for = transport::Millis{60000};  // stays open for the test
  DecryptionClient<MockGroup> client(p1, /*port=*/1, opt);

  const auto m = gg.gt_random(rng);
  const auto c = Core::enc(gg, kg.pk, m, rng);
  EXPECT_THROW((void)client.decrypt(c), transport::TransportError);
  EXPECT_EQ(client.breaker().state(), transport::CircuitBreaker::State::Open)
      << "two consecutive transport failures must trip the threshold-2 breaker";

  // While open, attempts fail fast with the typed retryable error carrying
  // the remaining cooldown -- no connect() is even tried.
  try {
    (void)client.decrypt(c);
    FAIL() << "expected a fast-failed Overloaded";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrc::Overloaded);
    EXPECT_GT(e.retry_after_ms(), 0u);
  }
}

TEST(ServiceOverloadTest, BreakerRecoveryEmitsOpenAndCloseEvents) {
  auto count_events = [](telemetry::EventKind k) {
    std::uint64_t n = 0;
    for (const auto& e : telemetry::EventLog::global().events())
      if (e.kind == k) ++n;
    return n;
  };
  const auto opens0 = count_events(telemetry::EventKind::BreakerOpen);
  const auto closes0 = count_events(telemetry::EventKind::BreakerClose);

  TinyServer svc(std::chrono::microseconds{0});
  const std::uint16_t port = svc.server->port();
  svc.server->stop();  // endpoint goes dark; its port is what the client dials

  typename DecryptionClient<MockGroup>::Options opt;
  opt.retry.max_attempts = 2;
  opt.retry.base = transport::Millis{1};
  opt.retry.cap = transport::Millis{2};
  opt.retry.deadline = transport::Millis{100};
  opt.breaker.failure_threshold = 1;
  opt.breaker.open_for = transport::Millis{150};
  DecryptionClient<MockGroup> client(svc.p1, port, opt);

  crypto::Rng rng(7460);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  // First attempt fails on transport and trips the threshold-1 breaker; the
  // retry then surfaces the fast-failed Overloaded once the budget is spent.
  EXPECT_ANY_THROW((void)client.decrypt(c));
  EXPECT_EQ(client.breaker().state(), transport::CircuitBreaker::State::Open);

  // Bring the endpoint back on the SAME port; once the cooldown elapses the
  // half-open probe succeeds and the breaker closes again.
  typename P2Server<MockGroup>::Options sopt;
  sopt.workers = 1;
  svc.server = std::make_unique<P2Server<MockGroup>>(svc.gg, svc.prm, svc.kg.sk2,
                                                     crypto::Rng(7461), sopt);
  svc.server->start(port);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(svc.gg.gt_eq(client.decrypt(c), m));
  EXPECT_EQ(client.breaker().state(), transport::CircuitBreaker::State::Closed);

  if (telemetry::EventLog::kCapacity > 0) {
    EXPECT_GT(count_events(telemetry::EventKind::BreakerOpen), opens0)
        << "the trip must land in the event log";
    EXPECT_GT(count_events(telemetry::EventKind::BreakerClose), closes0)
        << "the recovery must land in the event log";
  }
  client.close();
}

TEST(ServiceOverloadTest, StopWhileFloodedJoinsWithoutDeadlock) {
  // Regression for the blocking-reader stall: flood a saturated server from
  // several connections, then stop() mid-flood. Shedding readers must never
  // park waiting for queue room, so stop() joins everything promptly.
  auto svc = std::make_unique<TinyServer>(std::chrono::microseconds{5000});
  crypto::Rng rng(44);
  const auto m = svc->gg.gt_random(rng);
  const auto c = Core::enc(svc->gg, svc->kg.pk, m, rng);
  const Bytes round1 = svc->p1->begin_decrypt(c, rng).round1;
  const std::uint16_t port = svc->server->port();

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
          sess->send(transport::FrameType::Data, 1, keystore::kKsDec,
                     encode_ks_request(default_key_id(), 0, round1));
          pending.push_back(std::move(sess));
          if (pending.size() > 64) pending.erase(pending.begin());
        }
      } catch (const transport::TransportError&) {
        // Server went away mid-flood: exactly the point.
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  svc->server->stop();  // must not deadlock against shedding readers
  go.store(false);
  for (auto& t : flooders) t.join();
  // A flooder blocked sending into the server's full receive buffer wakes
  // when stop() closes the socket, not after the 10 s transport::kIoTimeout.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3))
      << "stop() left a flooder to wait out its send timeout";
  svc.reset();
}

// ---- the retry core: budget, breakers, refresh ---------------------------------

TEST(ClientRetryTest, BudgetRidesSvcDecAndTheServerDropsExpiredWork) {
  // 120 ms of queued crypto ahead of a decryption with a 60 ms budget. The
  // budget rides ks.dec; the server drops the request once it expires, and
  // the client gives up when the budget does, with its own last error. The
  // busy requests' first reply proves the rest are queued: the server orders
  // nothing across connections.
  TinyServer svc(std::chrono::microseconds{40000}, /*queue_cap=*/64);
  crypto::Rng rng(7470);
  const auto m = svc.gg.gt_random(rng);
  const auto c = Core::enc(svc.gg, svc.kg.pk, m, rng);
  const Bytes round1 = svc.p1->begin_decrypt(c, rng).round1;
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));
  std::vector<std::unique_ptr<transport::SessionMux::Session>> busy;
  for (int i = 0; i < 4; ++i) {
    busy.push_back(mux.open());
    busy.back()->send(transport::FrameType::Data, 1, keystore::kKsDec,
                      encode_ks_request(default_key_id(), 0, round1));
  }
  ASSERT_EQ(busy.front()->recv(transport::Millis{10000}).type, transport::FrameType::Data);
  busy.erase(busy.begin());

  auto log = std::make_shared<SentLog>();
  typename DecryptionClient<MockGroup>::Options opt;
  opt.retry.deadline = transport::Millis{60};
  opt.conn_wrapper = record_into(log);
  DecryptionClient<MockGroup> client(svc.p1, svc.server->port(), opt);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.decrypt(c), transport::TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(1000));
  {
    std::lock_guard lk(log->mu);
    ASSERT_EQ(log->frames.size(), 2u);  // the hello and one ks.dec
    const keystore::KsRequest req = keystore::decode_ks_request(log->frames[1].body);
    EXPECT_GT(req.deadline_ms, 0u);
    EXPECT_LE(req.deadline_ms, 60u);
  }
  EXPECT_TRUE(wait_until([&] { return svc.server->gov().shed_deadline() > 0; }))
      << "the server served work its client had given up on";
  for (auto& s : busy) (void)s->recv(transport::Millis{10000});
}

TEST(ClientRetryTest, BudgetRidesKsDecAndTheShardDropsExpiredWork) {
  // The fleet's twin of the test above, over ks.dec.
  using keystore::KsFleet;
  using keystore::KsServer;
  const MockGroup gg = make_mock();
  const auto prm = mock_params();
  typename KsServer<MockGroup>::Options so;
  so.workers = 1;
  so.max_batch = 1;
  so.inject_crypto_delay = std::chrono::microseconds{40000};
  KsServer<MockGroup> shard(gg, prm, crypto::Rng(7480), so);
  shard.start();
  const keystore::KeyId id{"acme", "budget"};
  crypto::Rng rng(7481);
  const auto kg = Core::gen(gg, prm, rng);
  shard.store().put(id, kg.sk2);
  schemes::DlrParty1<MockGroup> party(gg, prm, kg.pk, kg.sk1, schemes::P1Mode::Plain,
                                      crypto::Rng(7482));
  party.prepare_period();
  const auto c = Core::enc(gg, kg.pk, gg.gt_random(rng), rng);
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(shard.port())));
  std::vector<std::unique_ptr<transport::SessionMux::Session>> busy;
  for (int i = 0; i < 4; ++i) {
    busy.push_back(mux.open());
    busy.back()->send(transport::FrameType::Data, 1, keystore::kKsDec,
                      keystore::encode_ks_request(id, 0, party.dec_round1(c, rng)));
  }
  ASSERT_EQ(busy.front()->recv(transport::Millis{10000}).type, transport::FrameType::Data);
  busy.erase(busy.begin());

  auto log = std::make_shared<SentLog>();
  typename KsFleet<MockGroup>::Options fo;
  fo.retry.deadline = transport::Millis{60};
  fo.conn_wrapper = record_into(log);
  KsFleet<MockGroup> fleet(gg, prm, crypto::Rng(7483), shard.port(), fo);
  fleet.add_key(id, kg.pk, kg.sk1, schemes::P1Mode::Plain);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)fleet.decrypt(id, c), transport::TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(1000));
  {
    std::lock_guard lk(log->mu);
    ASSERT_EQ(log->frames.size(), 1u);
    const keystore::KsRequest req = keystore::decode_ks_request(log->frames[0].body);
    EXPECT_GT(req.deadline_ms, 0u);
    EXPECT_LE(req.deadline_ms, 60u);
  }
  EXPECT_TRUE(wait_until([&] { return shard.gov().shed_deadline() > 0; }))
      << "the shard served work its client had given up on";
  for (auto& s : busy) (void)s->recv(transport::Millis{10000});
  fleet.close();
  shard.stop();
}

TEST(ClientRetryTest, DeadShardTripsItsOwnBreakerWhileTheOtherServes) {
  using keystore::KsFleet;
  using keystore::KsServer;
  const MockGroup gg = make_mock();
  const auto prm = mock_params();
  typename KsServer<MockGroup>::Options o0, o1;
  o0.shard_id = 0;
  o1.shard_id = 1;
  KsServer<MockGroup> s0(gg, prm, crypto::Rng(7490), o0);
  auto s1 = std::make_unique<KsServer<MockGroup>>(gg, prm, crypto::Rng(7491), o1);
  s0.start();
  s1->start();
  const keystore::ShardMap map(1, {{0, "", s0.port()}, {1, "", s1->port()}});
  s0.set_shard_map(map);
  s1->set_shard_map(map);
  keystore::KeyId on0{"acme", "a0"}, on1{"acme", "b0"};
  for (int i = 1; map.owner(on0) != 0; ++i) on0.key = "a" + std::to_string(i);
  for (int i = 1; map.owner(on1) != 1; ++i) on1.key = "b" + std::to_string(i);

  typename KsFleet<MockGroup>::Options fo;
  fo.retry.base = transport::Millis{1};
  fo.retry.cap = transport::Millis{2};
  fo.retry.max_attempts = 3;
  // The fast-fail hint is the remaining cooldown (60 s); the budget keeps
  // the schedule from sleeping on it.
  fo.retry.deadline = transport::Millis{500};
  fo.breaker.failure_threshold = 2;
  fo.breaker.open_for = transport::Millis{60000};
  KsFleet<MockGroup> fleet(gg, prm, crypto::Rng(7492), s0.port(), fo);
  fleet.set_map(map);
  crypto::Rng rng(7493);
  std::map<std::string, Core::KeyGenResult> kgs;
  for (const auto* id : {&on0, &on1}) {
    auto kg = Core::gen(gg, prm, rng);
    fleet.add_key(*id, kg.pk, kg.sk1, schemes::P1Mode::Plain);
    fleet.provision(*id, kg.sk2);
    kgs.emplace(id->key, std::move(kg));
  }
  const auto dec = [&](const keystore::KeyId& id) {
    const auto m = gg.gt_random(rng);
    return gg.gt_eq(fleet.decrypt(id, Core::enc(gg, kgs.at(id.key).pk, m, rng)), m);
  };
  ASSERT_TRUE(dec(on0));
  ASSERT_TRUE(dec(on1));

  s1.reset();  // shard 1 dies: its connections close, its port refuses
  EXPECT_ANY_THROW((void)dec(on1));
  EXPECT_EQ(fleet.shard_breaker(1).state(), transport::CircuitBreaker::State::Open)
      << "two consecutive transport failures must trip shard 1's threshold-2 breaker";
  auto& fastfail = telemetry::Registry::global().counter("ks.client.breaker.fastfail");
  [[maybe_unused]] const auto fastfail0 = fastfail.value();
  try {
    (void)dec(on1);
    FAIL() << "expected a fast-failed Overloaded";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrc::Overloaded);
    EXPECT_GT(e.retry_after_ms(), 0u);
  }
#if DLR_TELEMETRY_ENABLED
  EXPECT_GT(fastfail.value(), fastfail0);
#endif
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(dec(on0)) << "shard 0 stopped serving";
  EXPECT_EQ(fleet.shard_breaker(0).state(), transport::CircuitBreaker::State::Closed);
  fleet.close();
  s0.stop();
}

TEST(ClientRetryTest, RefreshReturnsWithinItsBudgetWhenThePrepareReplyIsHeld) {
  // The PREPARE reply (inbound frame 1, after the hello's) is held 1.5 s; the
  // refresh's 200 ms budget caps the wait for it. A fresh client then
  // reconciles the abandoned refresh and refreshes normally.
  Service svc(/*workers=*/2, 7495);
  typename DecryptionClient<MockGroup>::Options opt;
  opt.retry.deadline = transport::Millis{200};
  opt.conn_wrapper = hold_inbound(1, 1500);
  auto held = svc.client(opt);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(held.refresh(), transport::TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(1000))
      << "refresh() outlived its budget waiting for the PREPARE reply";
  auto fresh = svc.client();
  fresh.refresh();
  EXPECT_EQ(fresh.epoch(), 1u);
  EXPECT_EQ(svc.epoch(), 1u);
  EXPECT_TRUE(svc.gg.g_eq(Core::reconstruct_msk(svc.gg, svc.p1->share_for_test(), svc.sk2()),
                          svc.kg.msk));
}

TEST(ClientRetryTest, RefreshTransportRetriesCountInSvcClientRetries) {
  // The PREPARE frame severs the connection; the refresh retries on a new
  // one, and that retry counts like every other.
  Service svc(/*workers=*/2, 7497);
  typename DecryptionClient<MockGroup>::Options opt;
  opt.retry.base = transport::Millis{2};
  opt.retry.cap = transport::Millis{20};
  std::atomic<int> conns{0};
  opt.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    if (conns.fetch_add(1) != 0) return fc;
    transport::FaultPlan plan;
    plan.out_at(1, {transport::FaultKind::Sever});
    return std::make_shared<transport::FaultInjector>(std::move(fc), plan);
  };
  auto& retries = telemetry::Registry::global().counter("svc.client.retries");
  [[maybe_unused]] const auto retries0 = retries.value();
  auto client = svc.client(opt);
  client.refresh();
  EXPECT_EQ(client.epoch(), 1u);
  EXPECT_EQ(svc.epoch(), 1u);
  EXPECT_GE(client.reconnects(), 1u);
#if DLR_TELEMETRY_ENABLED
  EXPECT_GT(retries.value(), retries0) << "the refresh's transport retry went uncounted";
#endif
}

// ---- one budget for every wait of an operation ---------------------------------

/// Milliseconds elapsed since `t0`.
long long ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                                               t0)
      .count();
}

/// A loopback port nothing listens on: a listener's, opened and closed.
std::uint16_t dead_port() {
  auto l = transport::Listener::loopback();
  return l.port();
}

TEST(ClientRetryTest, DecryptAgainstADeadEndpointReturnsWithinItsBudget) {
  // A refused dial is one failed attempt: the retry schedule, not the dial,
  // decides when to try again, so the 200 ms budget holds.
  const auto gg = make_mock();
  const auto prm = mock_params();
  crypto::Rng rng(7510);
  const auto kg = Core::gen(gg, prm, rng);
  auto p1 = std::make_shared<P1Runtime<MockGroup>>(gg, prm, kg.pk, kg.sk1,
                                                   schemes::P1Mode::Plain,
                                                   crypto::Rng(7511), std::string{});
  typename DecryptionClient<MockGroup>::Options opt;
  opt.retry.deadline = transport::Millis{200};
  DecryptionClient<MockGroup> client(p1, dead_port(), opt);
  const auto c = Core::enc(gg, kg.pk, gg.gt_random(rng), rng);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_ANY_THROW((void)client.decrypt(c));
  EXPECT_LT(ms_since(t0), 1000) << "decrypt() outlived its budget redialing a dead port";
}

/// Two shards serving one map with one key stored on each; add_keys() gives a
/// fleet their P1 halves.
struct TwoShards {
  using KsServer = keystore::KsServer<MockGroup>;
  using KsFleet = keystore::KsFleet<MockGroup>;
  MockGroup gg = make_mock();
  schemes::DlrParams prm = mock_params();
  KsServer s0;
  std::unique_ptr<KsServer> s1;
  keystore::ShardMap map;
  keystore::KeyId on0{"acme", "a0"}, on1{"acme", "b0"};
  std::map<std::string, Core::KeyGenResult> kgs;
  crypto::Rng rng;

  explicit TwoShards(std::uint64_t seed)
      : s0(gg, prm, crypto::Rng(seed), options(0)),
        s1(std::make_unique<KsServer>(gg, prm, crypto::Rng(seed + 1), options(1))),
        rng(seed + 2) {
    s0.start();
    s1->start();
    map = keystore::ShardMap(1, {{0, "", s0.port()}, {1, "", s1->port()}});
    s0.set_shard_map(map);
    s1->set_shard_map(map);
    for (int i = 1; map.owner(on0) != 0; ++i) on0.key = "a" + std::to_string(i);
    for (int i = 1; map.owner(on1) != 1; ++i) on1.key = "b" + std::to_string(i);
    for (const auto* id : {&on0, &on1}) {
      auto kg = Core::gen(gg, prm, rng);
      (id == &on0 ? s0 : *s1).store().put(*id, kg.sk2);
      kgs.emplace(id->key, std::move(kg));
    }
  }

  static typename KsServer::Options options(std::uint32_t shard) {
    typename KsServer::Options o;
    o.shard_id = shard;
    return o;
  }

  void add_keys(KsFleet& fleet) {
    for (const auto* id : {&on0, &on1}) {
      const auto& kg = kgs.at(id->key);
      fleet.add_key(*id, kg.pk, kg.sk1, schemes::P1Mode::Plain);
    }
  }

  /// Decrypt a fresh ciphertext of key `id` through `fleet`; true iff correct.
  bool dec(KsFleet& fleet, const keystore::KeyId& id) {
    crypto::Rng r(rng.u64());
    const auto m = gg.gt_random(r);
    return gg.gt_eq(fleet.decrypt(id, Core::enc(gg, kgs.at(id.key).pk, m, r)), m);
  }
};

TEST(ClientRetryTest, ADeadShardsDialDoesNotHoldUpTheLiveShard) {
  // Shard 1 dies and a thread keeps redialing it for its key. A decryption
  // on shard 0 must not queue behind those dials.
  TwoShards sh(7520);
  typename TwoShards::KsFleet::Options fo;
  fo.retry.deadline = transport::Millis{1000};
  TwoShards::KsFleet fleet(sh.gg, sh.prm, crypto::Rng(7523), sh.s0.port(), fo);
  fleet.set_map(sh.map);
  sh.add_keys(fleet);
  ASSERT_TRUE(sh.dec(fleet, sh.on0));
  ASSERT_TRUE(sh.dec(fleet, sh.on1));

  sh.s1.reset();  // its connections close, its port refuses
  crypto::Rng r(7524);
  const auto c1 = Core::enc(sh.gg, sh.kgs.at(sh.on1.key).pk, sh.gg.gt_random(r), r);
  std::atomic<bool> dead_threw{false};
  std::thread dead([&] {
    try {
      (void)fleet.decrypt(sh.on1, c1);
    } catch (const std::exception&) {
      dead_threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(sh.dec(fleet, sh.on0));
  EXPECT_LT(ms_since(t0), 500)
      << "the live shard's decryption waited behind the dead shard's dial";
  dead.join();
  EXPECT_TRUE(dead_threw.load()) << "a decryption on the dead shard succeeded";
  fleet.close();
  sh.s0.stop();
}

TEST(ClientRetryTest, ReconnectHelloWaitsOnlyWhatIsLeftOfTheBudget) {
  // The first ks.dec severs the connection, and the reconnect's ks.hello.ok
  // is held 1.5 s. The hello runs inside the decryption's attempt, so the
  // 300 ms budget caps its wait.
  Service svc(/*workers=*/2, 7530);
  typename DecryptionClient<MockGroup>::Options opt;
  opt.retry.deadline = transport::Millis{300};
  std::atomic<int> conns{0};
  opt.conn_wrapper = [&](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    transport::FaultPlan plan;
    if (conns.fetch_add(1) == 0)
      plan.out_at(1, {transport::FaultKind::Sever});  // frame 0 is the hello
    else
      plan.in_at(0, {transport::FaultKind::Delay, 1500});
    return std::make_shared<transport::FaultInjector>(std::move(fc), plan);
  };
  auto client = svc.client(opt);
  crypto::Rng rng(7531);
  const auto c = Core::enc(svc.gg, svc.kg.pk, svc.gg.gt_random(rng), rng);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.decrypt(c), transport::TransportError);
  EXPECT_LT(ms_since(t0), 1000) << "the reconnect's hello outlived the decryption's budget";
  EXPECT_EQ(conns.load(), 2) << "the decryption dialed again after its budget ran out";
}

TEST(ClientRetryTest, MapRefetchWaitsOnlyWhatIsLeftOfTheBudget) {
  // The fleet has no map yet, so shard 1's key goes to shard 0, whose
  // WrongShard starts a ks.map refetch; its ks.map.ok (inbound frame 1) is
  // held 1.5 s. The fetch runs inside the decryption's attempt, so the
  // 200 ms budget caps its wait.
  TwoShards sh(7540);
  typename TwoShards::KsFleet::Options fo;
  fo.retry.deadline = transport::Millis{200};
  fo.conn_wrapper = hold_inbound(1, 1500);
  TwoShards::KsFleet fleet(sh.gg, sh.prm, crypto::Rng(7543), sh.s0.port(), fo);
  sh.add_keys(fleet);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)sh.dec(fleet, sh.on1), transport::TransportError);
  EXPECT_LT(ms_since(t0), 1000) << "the WrongShard map refetch outlived the decryption's budget";
  fleet.close();
  sh.s0.stop();
}

TEST(ServiceOverloadTest, QueueDepthGaugeCountsQueuedDecryptions) {
  // svc.queue_depth is the decryption queue: 16 ks.dec frames against one
  // worker at 30 ms per batch leave most of them queued 40 ms later.
  TinyServer svc(std::chrono::microseconds{30000}, /*queue_cap=*/64);
  crypto::Rng rng(43);
  const auto c = Core::enc(svc.gg, svc.kg.pk, svc.gg.gt_random(rng), rng);
  const Bytes round1 = svc.p1->begin_decrypt(c, rng).round1;
  transport::SessionMux mux(std::make_shared<transport::FramedConn>(
      transport::connect_loopback(svc.server->port())));
  std::vector<std::unique_ptr<transport::SessionMux::Session>> sessions;
  for (int i = 0; i < 16; ++i) {
    sessions.push_back(mux.open());
    sessions.back()->send(transport::FrameType::Data, 1, keystore::kKsDec,
                          encode_ks_request(default_key_id(), 0, round1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  [[maybe_unused]] const double depth =
      telemetry::Registry::global().gauge("svc.queue_depth").value();
#if DLR_TELEMETRY_ENABLED
  EXPECT_GE(depth, 8.0) << "the gauge missed the queued decryptions";
#endif
  for (auto& s : sessions)
    EXPECT_EQ(s->recv(transport::Millis{10000}).type, transport::FrameType::Data);
}

}  // namespace
}  // namespace dlr::service
