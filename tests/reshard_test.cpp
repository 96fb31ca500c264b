// Live resharding (DESIGN.md §14): the 2->3 rebalance end-to-end, the
// ks.map.propose wire gate, a crash matrix that kills source or destination
// after every durable hand-off step, a severed offer-ack, the seeded chaos
// kill the CI soak replays, and the two client-side satellites (single-flight
// map refetch under a WrongShard storm, dead keys dropping out of the
// refresh backlog).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "group/mock_group.hpp"
#include "keystore/keystore.hpp"
#include "keystore/ks_client.hpp"
#include "keystore/ks_protocol.hpp"
#include "keystore/ks_server.hpp"
#include "keystore/scheduler.hpp"
#include "keystore/shard_map.hpp"
#include "service/protocol.hpp"
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
  std::string tmpl = ::testing::TempDir() + "dlr_reshard_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  return tmpl;
}

std::vector<KeyId> test_keys(int n) {
  std::vector<KeyId> out;
  const char* tenants[] = {"acme", "globex", "initech"};
  for (int i = 0; i < n; ++i)
    out.push_back({tenants[i % 3], "key" + std::to_string(i)});
  return out;
}

/// Three journal-backed KsServer shards + a KsFleet. Shards 0 and 1 own the
/// v1 map; shard 2 idles on the same map (so it answers WrongShard) until a
/// propose pulls it in. Every shard keeps its state dir across kill()/
/// restart(), which is what makes the crash matrix honest: a restarted
/// server can only know what its journal recorded.
struct Reshard3 {
  using Server = KsServer<MockGroup>;
  using Fleet = KsFleet<MockGroup>;

  MockGroup gg = make_mock();
  schemes::DlrParams prm = mock_params();
  std::array<std::string, 3> dirs;
  std::array<std::unique_ptr<Server>, 3> srv;
  std::optional<Fleet> fleet;
  std::unordered_map<KeyId, Core::KeyGenResult, KeyIdHash> kgs;
  std::uint64_t seed;
  typename Server::Options base_opts;

  explicit Reshard3(std::uint64_t seed_, typename Server::Options so = {},
                    typename Fleet::Options fo = {},
                    std::function<void(std::uint32_t, typename Server::Options&)> tweak = {})
      : seed(seed_), base_opts(std::move(so)) {
    for (auto& d : dirs) d = make_state_dir();
    for (std::uint32_t i = 0; i < 3; ++i) start_shard(i, seed + i, tweak);
    const ShardMap m = two_map(1);
    for (auto& s : srv) s->set_shard_map(m);
    fleet.emplace(gg, prm, crypto::Rng(seed + 50), srv[0]->port(), std::move(fo));
  }

  ~Reshard3() {
    if (fleet) fleet->close();
    for (auto& s : srv)
      if (s) s->stop();
  }

  void start_shard(std::uint32_t i, std::uint64_t rng_seed,
                   const std::function<void(std::uint32_t, typename Server::Options&)>&
                       tweak = {}) {
    typename Server::Options o = base_opts;
    o.shard_id = i;
    o.store.state_dir = dirs[i];
    if (tweak) tweak(i, o);
    srv[i] = std::make_unique<Server>(gg, prm, crypto::Rng(rng_seed), o);
    srv[i]->start();
  }

  [[nodiscard]] ShardMap two_map(std::uint64_t v) const {
    return ShardMap(v, {{0, "", srv[0]->port()}, {1, "", srv[1]->port()}});
  }
  [[nodiscard]] ShardMap three_map(std::uint64_t v) const {
    return ShardMap(v, {{0, "", srv[0]->port()},
                        {1, "", srv[1]->port()},
                        {2, "", srv[2]->port()}});
  }

  /// The operator's move: propose the 3-shard map at `version` to every
  /// live shard (the re-propose after a restart uses a bumped version so
  /// the refreshed ports and reshard windows take everywhere).
  void propose_three(std::uint64_t version) {
    const ShardMap m = three_map(version);
    for (auto& s : srv)
      if (s) (void)s->propose_map(m);
  }

  void kill(std::uint32_t i) {
    srv[i]->stop();
    srv[i].reset();
  }

  [[nodiscard]] bool settled() const {
    for (const auto& s : srv) {
      if (!s) return false;
      if (!s->mig_idle() || s->mig_halted() || s->reshard_window_open()) return false;
    }
    return true;
  }

  [[nodiscard]] bool wait_settled(
      std::chrono::milliseconds budget = std::chrono::milliseconds(15000)) const {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (settled()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return settled();
  }

  [[nodiscard]] std::string settle_report() const {
    std::string out;
    for (std::uint32_t i = 0; i < 3; ++i) {
      out += "shard" + std::to_string(i);
      if (!srv[i]) {
        out += ": dead\n";
        continue;
      }
      out += std::string(": idle=") + (srv[i]->mig_idle() ? "1" : "0") +
             " halted=" + (srv[i]->mig_halted() ? "1" : "0") +
             " window=" + (srv[i]->reshard_window_open() ? "open" : "closed") +
             " backlog=" + std::to_string(srv[i]->mig_backlog()) + "\n";
    }
    return out;
  }

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

  [[nodiscard]] int resident_count(const KeyId& id) {
    int n = 0;
    for (const auto& s : srv)
      if (s && s->store().contains(id)) ++n;
    return n;
  }
  [[nodiscard]] int serving_count(const KeyId& id) {
    int n = 0;
    for (const auto& s : srv)
      if (s && s->store().serving(id)) ++n;
    return n;
  }
  [[nodiscard]] std::uint32_t serving_shard(const KeyId& id) {
    for (std::uint32_t i = 0; i < 3; ++i)
      if (srv[i] && srv[i]->store().serving(id)) return i;
    return 99;
  }
};

/// Exactly-once residency + ownership-per-the-new-map, the invariant every
/// recovery scenario below must land on: no lost share, no duplicated
/// serving copy, owner matches the proposed map.
void expect_conserved(Reshard3& rig, const std::vector<KeyId>& keys,
                      const ShardMap& want, const std::string& ctx) {
  for (const auto& id : keys) {
    EXPECT_EQ(rig.resident_count(id), 1) << ctx << ": " << id.display();
    EXPECT_EQ(rig.serving_count(id), 1) << ctx << ": " << id.display();
    EXPECT_EQ(rig.serving_shard(id), want.owner(id)) << ctx << ": " << id.display();
  }
}

// ---- happy-path rebalance -----------------------------------------------------

TEST(ReshardTest, TwoToThreeRebalanceMovesKeysAndConservesState) {
  typename KsFleet<MockGroup>::Options fo;
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{50};
  Reshard3 rig(9100, {}, std::move(fo));
  const auto keys = test_keys(12);
  for (const auto& id : keys) rig.add(id);
  rig.fleet->refresh_key(keys[0]);
  rig.fleet->refresh_key(keys[4]);

  crypto::Rng rng(11);
  for (const auto& id : keys) ASSERT_TRUE(rig.roundtrip(id, rng));

  const ShardMap oldm = rig.srv[0]->shard_map();
  const ShardMap newm = rig.three_map(2);
  std::vector<KeyId> moved;
  for (const auto& id : keys)
    if (oldm.owner(id) != newm.owner(id)) moved.push_back(id);
  ASSERT_FALSE(moved.empty()) << "2->3 rebalance moved nothing; test is vacuous";

  std::unordered_map<KeyId, double, KeyIdHash> spent_before;
  std::unordered_map<KeyId, std::uint64_t, KeyIdHash> epoch_before;
  for (const auto& id : keys) {
    auto& s = *rig.srv[oldm.owner(id)];
    spent_before[id] = s.store().spent_frac(id);
    epoch_before[id] = s.store().epoch_of(id);
    ASSERT_GT(spent_before[id], 0.0);
  }

  // Client traffic rides THROUGH the rebalance: every decryption must land,
  // via Draining retries and WrongShard reroutes, never an error surfaced.
  // An exception is caught in the thread (one escaping a std::thread would
  // abort the whole binary) and reported by the EXPECT below.
  std::atomic<bool> fail{false};
  std::string fail_why;  // written before `fail` is set, read after join()
  std::thread traffic([&] {
    crypto::Rng trng(12);
    for (int i = 0; i < 60 && !fail.load(); ++i) {
      try {
        if (!rig.roundtrip(keys[i % keys.size()], trng)) {
          fail_why = "wrong plaintext";
          fail.store(true);
        }
      } catch (const std::exception& e) {
        fail_why = e.what();
        fail.store(true);
      }
    }
  });
  rig.propose_three(2);
  traffic.join();
  EXPECT_FALSE(fail.load()) << "a decryption failed mid-rebalance: " << fail_why;
  ASSERT_TRUE(rig.wait_settled());

  expect_conserved(rig, keys, newm, "rebalance");
  std::uint64_t out = 0, in = 0;
  for (const auto& s : rig.srv) {
    out += s->migrated_out();
    in += s->migrated_in();
  }
  EXPECT_EQ(out, moved.size()) << "a key migrated twice or not at all";
  EXPECT_EQ(in, moved.size());

  for (const auto& id : keys) {
    auto& owner = *rig.srv[newm.owner(id)];
    EXPECT_EQ(owner.store().epoch_of(id), epoch_before[id])
        << id.display() << ": migration changed the epoch";
    // The budget ledger travels with the share; traffic only ever adds.
    EXPECT_GE(owner.store().spent_frac(id), spent_before[id] - 1e-9)
        << id.display() << ": migration reset the leakage ledger";
  }
  for (const auto& id : keys) EXPECT_TRUE(rig.roundtrip(id, rng));
}

// ---- wire route ---------------------------------------------------------------

TEST(ReshardTest, MapProposeWireRouteGatesVersionAndRejectsStaleMaps) {
  Reshard3 rig(9200);
  std::vector<std::shared_ptr<transport::SessionMux>> muxes;
  for (const auto& s : rig.srv) {
    auto fc = std::make_shared<transport::FramedConn>(transport::connect_loopback(s->port()));
    muxes.push_back(std::make_shared<transport::SessionMux>(
        std::static_pointer_cast<transport::Conn>(fc)));
  }

  auto call = [&](std::size_t shard, const Bytes& body) {
    auto sess = muxes[shard]->open();
    sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P2),
               kKsMapPropose, body);
    return service::expect_ok(sess->recv(transport::Millis{2000}), kKsMapProposeOk);
  };

  // Well-formed propose to EVERY shard (the protocol's contract): each
  // accepts and returns its outgoing-key count (0 keys provisioned here),
  // and the reshard windows close once the done broadcasts cross.
  for (std::size_t i = 0; i < 3; ++i) {
    const Bytes ok = call(i, encode_ks_map_propose(rig.three_map(2).encode()));
    ByteReader r(ok);
    EXPECT_EQ(r.u32(), 0u) << "shard " << i;
  }
  EXPECT_TRUE(rig.wait_settled()) << rig.settle_report();

  // A proposal demanding a wire version this shard does not speak is turned
  // away typed, before any state changes.
  ByteWriter w;
  w.u8(service::kWireDeadlineVersion + 7);
  w.blob(rig.three_map(3).encode());
  try {
    (void)call(0, w.take());
    FAIL() << "future-wire-version proposal was accepted";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ServiceErrc::BadRequest);
  }

  // Stale (older-version) proposals are rejected, not silently installed.
  try {
    (void)call(0, encode_ks_map_propose(rig.three_map(1).encode()));
    FAIL() << "stale map proposal was accepted";
  } catch (const service::ServiceError& e) {
    EXPECT_EQ(e.code(), service::ServiceErrc::BadRequest);
  }
  EXPECT_EQ(rig.srv[0]->shard_map().version(), 2u);
  for (auto& m : muxes) m->stop();
}

// ---- crash matrix -------------------------------------------------------------

struct CrashCase {
  const char* step;
  std::uint32_t victim;  // 0 = source shard, 2 = destination shard
};

class ReshardCrashMatrixTest : public ::testing::TestWithParam<CrashCase> {};

/// Kill one side of the hand-off immediately after each durable step, then
/// recover: restart the victim from its journal and re-propose the same map
/// shape at a bumped version (the operator's documented move). Afterwards
/// every key must be resident + serving exactly once, under the new owner,
/// with its epoch intact and its leakage ledger never inflated.
TEST_P(ReshardCrashMatrixTest, KillAfterStepThenRecoverWithoutLossOrDuplication) {
  const auto [step, victim] = GetParam();
  typename KsFleet<MockGroup>::Options fo;
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{50};
  Reshard3 rig(9300 + victim, {}, std::move(fo));
  const auto keys = test_keys(12);
  for (const auto& id : keys) rig.add(id);
  rig.fleet->refresh_key(keys[1]);
  crypto::Rng rng(13);
  for (const auto& id : keys) ASSERT_TRUE(rig.roundtrip(id, rng));

  const ShardMap oldm = rig.srv[0]->shard_map();
  const ShardMap newm = rig.three_map(2);
  std::vector<KeyId> moved;
  for (const auto& id : keys)
    if (oldm.owner(id) != newm.owner(id)) moved.push_back(id);
  // The hook only fires if the victim participates: shard 0 must lose a key
  // (source steps) and shard 2 must gain one (destination steps).
  ASSERT_TRUE(std::any_of(moved.begin(), moved.end(),
                          [&](const KeyId& id) { return oldm.owner(id) == 0; }));
  ASSERT_TRUE(std::any_of(moved.begin(), moved.end(),
                          [&](const KeyId& id) { return newm.owner(id) == 2; }));

  std::unordered_map<KeyId, double, KeyIdHash> spent_before;
  std::unordered_map<KeyId, std::uint64_t, KeyIdHash> epoch_before;
  for (const auto& id : keys) {
    spent_before[id] = rig.srv[oldm.owner(id)]->store().spent_frac(id);
    epoch_before[id] = rig.srv[oldm.owner(id)]->store().epoch_of(id);
  }

  rig.srv[victim]->store().set_migration_hook([step = std::string(step)](const char* s) {
    if (step == s) throw MigrationHalt("injected crash at " + step);
  });
  rig.propose_three(2);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!rig.srv[victim]->mig_halted() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(rig.srv[victim]->mig_halted()) << step << ": hook never fired";

  rig.kill(victim);
  rig.start_shard(victim, 777000 + victim);  // journal is the only carry-over

  // Keys whose ledger must travel exactly: every moved key except those the
  // restarted victim holds as an ORDINARY resident (mig state None -- either
  // never marked, or already committed in). Those restart into a fresh
  // leakage period by the store's documented policy; a key with a durable
  // mid-migration record carries its spent counter through the restart.
  // (Snapshot after the restart, before the re-propose touches anything:
  // the journal is the ground truth the recovery works from.)
  std::vector<KeyId> preserved;
  for (const auto& id : moved) {
    if (rig.srv[victim]->store().contains(id) &&
        rig.srv[victim]->store().mig_status(id).state == MigState::None)
      continue;
    preserved.push_back(id);
  }

  rig.propose_three(3);
  ASSERT_TRUE(rig.wait_settled(std::chrono::milliseconds(40000)))
      << step << "\n" << rig.settle_report();

  expect_conserved(rig, keys, newm, step);
  for (const auto& id : keys) {
    auto& owner = *rig.srv[newm.owner(id)];
    EXPECT_EQ(owner.store().epoch_of(id), epoch_before[id])
        << step << " " << id.display() << ": crash recovery changed the epoch";
    // No crash point may ever double-charge the ledger...
    EXPECT_LE(owner.store().spent_frac(id), spent_before[id] + 1e-9)
        << step << " " << id.display();
  }
  // ...and the shipped spent survives every hand-off crash except a
  // destination restart AFTER commit, where the key is an ordinary resident
  // again and the store's restart policy (fresh period) applies.
  if (std::string_view(step) != "mig.dst_commit") {
    for (const auto& id : preserved)
      EXPECT_NEAR(rig.srv[newm.owner(id)]->store().spent_frac(id), spent_before[id],
                  1e-9)
          << step << " " << id.display() << ": ledger did not travel with the share";
  }

  // The fleet re-learns addresses from a survivor (shard 1 never dies here)
  // and every key keeps decrypting.
  rig.fleet->fetch_map(rig.srv[1]->port());
  for (const auto& id : keys) EXPECT_TRUE(rig.roundtrip(id, rng)) << step;
}

INSTANTIATE_TEST_SUITE_P(AllDurableSteps, ReshardCrashMatrixTest,
                         ::testing::Values(CrashCase{"mig.src_mark", 0},
                                           CrashCase{"mig.src_release", 0},
                                           CrashCase{"mig.src_done", 0},
                                           CrashCase{"mig.dst_stage", 2},
                                           CrashCase{"mig.dst_commit", 2}),
                         [](const auto& info) {
                           std::string n = info.param.step;
                           for (auto& c : n)
                             if (c == '.') c = '_';
                           return n;
                         });

// ---- severed transport --------------------------------------------------------

/// Drops the first outbound frame carrying `label` and tears the connection
/// down, so the peer fails fast instead of waiting out its recv timeout.
class DropFrameAndSever final : public transport::Conn {
 public:
  DropFrameAndSever(std::shared_ptr<transport::Conn> under, std::string label,
                    std::shared_ptr<std::atomic<bool>> fired)
      : under_(std::move(under)), label_(std::move(label)), fired_(std::move(fired)) {}

  void send(const transport::Frame& f) override {
    if (f.type == transport::FrameType::Data && f.label == label_ &&
        !fired_->exchange(true)) {
      under_->shutdown();
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
  std::shared_ptr<std::atomic<bool>> fired_;
};

TEST(ReshardTest, LostOfferAckIsReofferedIdempotently) {
  // The destination stages durably but its ACK never reaches the source:
  // the source must re-offer, the destination must recognize the identical
  // digest and re-ack, and the key must come out served exactly once.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  Reshard3 rig(9600, {}, {}, [&](std::uint32_t i, Reshard3::Server::Options& o) {
    if (i != 2) return;
    o.conn_wrapper = [fired](std::shared_ptr<transport::FramedConn> fc)
        -> std::shared_ptr<transport::Conn> {
      return std::make_shared<DropFrameAndSever>(
          std::static_pointer_cast<transport::Conn>(std::move(fc)), kKsMigOfferOk,
          fired);
    };
  });
  const auto keys = test_keys(12);
  for (const auto& id : keys) rig.add(id);
  crypto::Rng rng(15);
  for (const auto& id : keys) ASSERT_TRUE(rig.roundtrip(id, rng));

  const ShardMap oldm = rig.srv[0]->shard_map();
  const ShardMap newm = rig.three_map(2);
  std::size_t moved = 0;
  for (const auto& id : keys)
    if (oldm.owner(id) != newm.owner(id)) ++moved;
  ASSERT_GT(moved, 0u);

  rig.propose_three(2);
  ASSERT_TRUE(rig.wait_settled());
  EXPECT_TRUE(fired->load()) << "the sever never triggered; test is vacuous";

  expect_conserved(rig, keys, newm, "lost-offer-ack");
  std::uint64_t in = 0;
  for (const auto& s : rig.srv) in += s->migrated_in();
  EXPECT_EQ(in, moved) << "a lost ack produced a duplicate commit";
  for (const auto& id : keys) EXPECT_TRUE(rig.roundtrip(id, rng));
}

// ---- seeded chaos kill (the CI reshard-soak entry point) ----------------------

TEST(ReshardChaosTest, SeededShardKillMidMigrationRecovers) {
  std::uint64_t seed = 424242;
  if (const char* s = std::getenv("DLR_CHAOS_SEED")) seed = std::strtoull(s, nullptr, 10);
  typename KsFleet<MockGroup>::Options fo;
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{50};
  Reshard3 rig(9700 + (seed % 97), {}, std::move(fo));
  const auto keys = test_keys(14);
  for (const auto& id : keys) rig.add(id);
  crypto::Rng rng(seed ^ 0x5eed);
  for (const auto& id : keys) ASSERT_TRUE(rig.roundtrip(id, rng));

  const ShardMap newm = rig.three_map(2);
  std::unordered_map<KeyId, std::uint64_t, KeyIdHash> epoch_before;
  for (const auto& id : keys)
    epoch_before[id] = rig.srv[rig.srv[0]->shard_map().owner(id)]->store().epoch_of(id);

  // The seed picks the victim side and how deep into the migration the kill
  // lands; CI replays several seeds so the kill point sweeps the protocol.
  const std::uint32_t victim = (seed % 2 == 0) ? 0u : 2u;
  rig.propose_three(2);
  std::this_thread::sleep_for(std::chrono::microseconds(100 + (seed % 29) * 350));
  rig.kill(victim);
  rig.start_shard(victim, seed + 999);
  rig.propose_three(3);
  ASSERT_TRUE(rig.wait_settled(std::chrono::milliseconds(40000)))
      << "seed " << seed << " victim " << victim << "\n" << rig.settle_report();

  expect_conserved(rig, keys, newm, "chaos seed " + std::to_string(seed));
  for (const auto& id : keys)
    EXPECT_EQ(rig.srv[newm.owner(id)]->store().epoch_of(id), epoch_before[id])
        << "seed " << seed << " " << id.display();
  rig.fleet->fetch_map(rig.srv[1]->port());
  for (const auto& id : keys) EXPECT_TRUE(rig.roundtrip(id, rng)) << "seed " << seed;
}

// ---- satellite: single-flight map refetch -------------------------------------

/// Stalls every outbound frame carrying `label` -- long enough that a storm
/// of concurrent WrongShard victims piles up behind one fetch.
class DelayFrameAtLabel final : public transport::Conn {
 public:
  DelayFrameAtLabel(std::shared_ptr<transport::Conn> under, std::string label,
                    std::chrono::milliseconds delay)
      : under_(std::move(under)), label_(std::move(label)), delay_(delay) {}

  void send(const transport::Frame& f) override {
    if (f.type == transport::FrameType::Data && f.label == label_)
      std::this_thread::sleep_for(delay_);
    under_->send(f);
  }
  transport::Frame recv(std::optional<transport::Millis> timeout) override {
    return under_->recv(timeout);
  }
  void shutdown() noexcept override { under_->shutdown(); }

 private:
  std::shared_ptr<transport::Conn> under_;
  std::string label_;
  std::chrono::milliseconds delay_;
};

TEST(KsFleetSatelliteTest, WrongShardStormCollapsesToOneMapRefetch) {
  // Six threads hit WrongShard at once while ks.map is artificially slow:
  // exactly one refetch may go out; the rest must wait on it and reroute
  // off the shared result.
  typename KsFleet<MockGroup>::Options fo;
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{50};
  fo.conn_wrapper = [](std::shared_ptr<transport::FramedConn> fc)
      -> std::shared_ptr<transport::Conn> {
    return std::make_shared<DelayFrameAtLabel>(
        std::static_pointer_cast<transport::Conn>(std::move(fc)), kKsMap,
        std::chrono::milliseconds(250));
  };
  Reshard3 rig(9800, {}, std::move(fo));
  const auto keys = test_keys(12);
  for (const auto& id : keys) rig.add(id);

  // Poison the fleet with a map that changes OWNERSHIP (one shard owns
  // everything), then storm keys the real map places on shard 1: every
  // thread routes to shard 0 and gets the same WrongShard.
  const ShardMap real = rig.srv[0]->shard_map();
  std::vector<KeyId> on1;
  for (const auto& id : keys)
    if (real.owner(id) == 1) on1.push_back(id);
  ASSERT_GE(on1.size(), 6u);
  rig.fleet->set_map(ShardMap(1, {{0, "", rig.srv[0]->port()}}));

  const auto refetches_before = rig.fleet->map_refetches();
  const auto waits_before = rig.fleet->map_fetch_waits();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false}, fail{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t)
    threads.emplace_back([&, t] {
      crypto::Rng trng(9000 + t);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      if (!rig.roundtrip(on1[static_cast<std::size_t>(t)], trng)) fail.store(true);
    });
  while (ready.load() < 6) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();

  EXPECT_FALSE(fail.load());
  EXPECT_EQ(rig.fleet->map_refetches() - refetches_before, 1u)
      << "concurrent WrongShards each fetched the map";
  EXPECT_GE(rig.fleet->map_fetch_waits() - waits_before, 3u)
      << "losers did not wait on the in-flight fetch";
  EXPECT_EQ(rig.fleet->map().version(), real.version());
}

// ---- satellite: dead keys drop out of the refresh backlog ---------------------

TEST(KsFleetSatelliteTest, RemovedKeyDropsOutOfRefreshBacklogInsteadOfWedgingIt) {
  typename Reshard3::Server::Options so;
  so.store.budget_bits = 4;
  so.store.leak_per_dec_bits = 1;
  so.store.refresh_threshold = 0.5;
  typename KsFleet<MockGroup>::Options fo;
  fo.refresh_threshold = 0.5;
  fo.scheduler.sweep_interval = std::chrono::milliseconds(10);
  fo.scheduler.max_concurrent = 2;
  fo.retry.base = transport::Millis{2};
  fo.retry.cap = transport::Millis{20};
  Reshard3 rig(9900, std::move(so), std::move(fo));
  const auto keys = test_keys(4);
  for (const auto& id : keys) rig.add(id);

  // Push two keys over the 50% refresh threshold (3 of 4 budget bits).
  crypto::Rng rng(17);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.roundtrip(keys[0], rng));
    ASSERT_TRUE(rig.roundtrip(keys[1], rng));
  }
  // Key 0 disappears behind the fleet's back (deprovisioned by an operator).
  rig.srv[rig.srv[0]->shard_map().owner(keys[0])]->store().remove(keys[0]);

  rig.fleet->start_scheduler();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((!rig.fleet->key_dead(keys[0]) || rig.fleet->epoch_of(keys[1]) == 0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  EXPECT_TRUE(rig.fleet->key_dead(keys[0]))
      << "UnknownKey refresh failure never declared the key dead";
  EXPECT_GE(rig.fleet->epoch_of(keys[1]), 1u)
      << "a dead key starved a live key's refresh";

  // The dead key must stop requalifying: failures stay flat across further
  // sweeps and the backlog drains to empty instead of wedging.
  ASSERT_TRUE(rig.fleet->scheduler()->wait_idle(std::chrono::milliseconds(2000)));
  const auto failures = rig.fleet->scheduler()->failures();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(rig.fleet->scheduler()->failures(), failures)
      << "dead key keeps re-entering the refresh queue";
  EXPECT_EQ(rig.fleet->scheduler()->backlog(), 0u);
  for (const auto& c : rig.fleet->candidates())
    EXPECT_FALSE(c.id == keys[0]) << "dead key still offered as a candidate";
  rig.fleet->stop_scheduler();
}

}  // namespace
}  // namespace dlr::keystore
