// KsFleet<GG> -- the client side of the multi-tenant keystore: one "main
// processor" (P1) holding the P1 half of MANY keys, routing every request to
// the owning shard, and running the leakage-budget refresh scheduler.
//
// Per key, the fleet keeps a volatile service::P1Runtime: the DlrParty1
// state behind its share lock, the local epoch, and the in-memory half of
// the two-phase refresh (client-side state is volatile by design -- the
// durable side of the 2PC is the server's segmented journal; a fleet process
// that dies mid-refresh reconciles per key over ks.hello on its next
// contact, exactly the PR 4 verdict table). The runtime's locking is the
// single-key client's (service/client.hpp): decryption snapshots (epoch,
// round 1, period key) under the shared lock, a refresh holds the key's
// refresh mutex throughout and its share lock exclusively only for COMMIT
// and the install, so decryptions of the key being refreshed keep running,
// and refreshes of DIFFERENT keys never contend.
//
// Requests run on the single-key client's retry core (service::RetryCore)
// and its per-key exchanges (service::dec_exchange, refresh_exchange,
// hello_exchange): the core keeps kConnsPerShard connection lanes and one
// circuit breaker per shard, and retries under the same rules and the same
// retry.deadline budget. The fleet adds the routing: it caches a versioned
// ShardMap, and a WrongShard response -- stale map after a re-shard --
// triggers a single-flight ks.map refetch from the answering shard (every
// shard serves the whole map) and a re-route. With an EMPTY map everything
// routes to the bootstrap port (single-shard mode). A key whose refresh is
// stuck pending is reconciled over ks.hello before each attempt on it. The
// fleet opens no client spans; its requests carry the calling thread's trace
// context, so a caller's span parents the server's.
//
// The refresh scheduler (scheduler.hpp) lives HERE because refresh is a
// two-party protocol and this process holds the P1 shares. Its Source is
// the fleet's local budget mirror -- every ks.dec.ok piggybacks the
// server's (spent, budget) for that key, so the mirror needs no polling --
// and its RefreshFn is refresh_key(). Keys the scheduler refreshes in the
// background never reach their budget; client code never calls refresh
// explicitly (refresh-every-K is gone).
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/rng.hpp"
#include "keystore/ks_protocol.hpp"
#include "keystore/scheduler.hpp"
#include "keystore/shard_map.hpp"
#include "schemes/dlr.hpp"
#include "service/client.hpp"
#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"
#include "transport/mux.hpp"

namespace dlr::keystore {

template <group::BilinearGroup GG>
class KsFleet {
 public:
  using Core = schemes::DlrCore<GG>;
  using GT = typename GG::GT;
  using ServiceErrc = service::ServiceErrc;
  using ServiceError = service::ServiceError;

  struct Options : service::RetryCore::Options {
    RefreshScheduler::Options scheduler{};
    /// Budget fraction at which the scheduler refreshes a key.
    double refresh_threshold = 0.5;
  };

  /// Connections kept per shard. Each calling thread hashes to one lane, so
  /// concurrent client threads do not serialize on a single socket's send
  /// mutex and pump thread (the single-key client gives every
  /// DecryptionClient its own connection; the lanes are the fleet analogue).
  static constexpr std::size_t kConnsPerShard = 4;

  /// `bootstrap_port` serves two roles: where everything routes while the
  /// map is empty, and where fetch_map() bootstraps from.
  KsFleet(GG gg, schemes::DlrParams prm, crypto::Rng rng, std::uint16_t bootstrap_port,
          Options opt)
      : gg_(std::move(gg)),
        prm_(prm),
        rng_(std::move(rng)),
        bootstrap_port_(bootstrap_port),
        opt_(std::move(opt)),
        core_(opt_, {.metrics = "ks.client",
                     .reconnects = "ks.client.reconnects",
                     .lanes = kConnsPerShard,
                     .on_wrong_shard =
                         [this](std::uint32_t shard, transport::SessionMux& m) {
                           return refetch_map_single_flight(shard, m);
                         }}) {}

  ~KsFleet() { close(); }
  KsFleet(const KsFleet&) = delete;
  KsFleet& operator=(const KsFleet&) = delete;

  /// Register the P1 half of a key. Local only -- pair with provision() to
  /// install the P2 half on the owning shard.
  void add_key(const KeyId& id, typename Core::PublicKey pk, typename Core::Sk1 sk1,
               schemes::P1Mode mode) {
    auto st = std::make_shared<KeyState>(gg_, prm_, std::move(pk), std::move(sk1), mode,
                                         next_rng());
    std::unique_lock lk(keys_mu_);
    keys_[id] = std::move(st);
  }

  /// Send the P2 share to the owning shard over ks.put (routed, retried).
  void provision(const KeyId& id, const typename Core::Sk2& sk2) {
    ByteWriter w;
    Core::ser_sk2(gg_, w, sk2);
    const Bytes body = encode_ks_put(id, w.take());
    service::P1Runtime<GG>* const no_key = nullptr;
    core_.run("put", no_key, route(id), [&](Attempt& a) {
      const auto sess = service::send_request(a.mux, kKsPut, body);
      (void)service::expect_ok(sess->recv(a.timeout()), kKsPutOk);
    });
  }

  /// One routed, retried DistDec; mirrors the server's budget accounting
  /// from the reply into the scheduler's source data.
  [[nodiscard]] GT decrypt(const KeyId& id, const typename Core::Ciphertext& c) {
    auto st = state(id);
    return core_.run("dec", &st->p1, route(id), [&](Attempt& a) {
      maybe_reconcile(a, id, *st);
      KsDecOk ledger;
      auto m = service::dec_exchange(st->p1, id, a, c, &ledger);
      st->spent_millibits.store(ledger.spent_millibits);
      st->budget_millibits.store(ledger.budget_millibits);
      return m;
    });
  }

  /// Run the two-phase refresh for one key, advancing its epoch by one.
  /// Also the scheduler's RefreshFn. An interrupted attempt leaves pending
  /// state that the next attempt's ks.hello reconciles; a refresh of the
  /// key already in flight on another thread answers Draining, retried here
  /// until that refresh has moved the epoch.
  void refresh_key(const KeyId& id) {
    auto st = state(id);
    const std::uint64_t start = st->p1.epoch();
    core_.run("refresh", &st->p1, route(id), [&](Attempt& a) {
      maybe_reconcile(a, id, *st);
      if (st->p1.epoch() > start) return;  // reconciliation (or another refresh) moved it
      service::refresh_exchange(st->p1, id, a);
      st->spent_millibits.store(0);  // fresh period; the next ks.dec.ok corrects the mirror
    });
  }

  /// Fetch the shard map from `port` (default: bootstrap) and adopt it.
  void fetch_map(std::uint16_t port = 0) {
    auto m = core_.connect(port ? port : bootstrap_port_);
    adopt_map(fetch_map_on(*m));
    m->stop();
  }

  void set_map(ShardMap map) {
    std::lock_guard lk(map_mu_);
    map_ = std::move(map);
  }
  [[nodiscard]] ShardMap map() const {
    std::lock_guard lk(map_mu_);
    return map_;
  }

  [[nodiscard]] double spent_frac(const KeyId& id) const {
    auto st = state(id);
    const auto budget = st->budget_millibits.load();
    return budget ? static_cast<double>(st->spent_millibits.load()) /
                        static_cast<double>(budget)
                  : 0.0;
  }

  [[nodiscard]] std::uint64_t epoch_of(const KeyId& id) const {
    return state(id)->p1.epoch();
  }

  /// Keys whose mirrored budget is at/above the scheduler threshold.
  [[nodiscard]] std::vector<RefreshScheduler::Candidate> candidates() const {
    std::vector<RefreshScheduler::Candidate> out;
    std::shared_lock lk(keys_mu_);
    for (const auto& [id, st] : keys_) {
      if (st->dead.load()) continue;  // removed/migrated away: never requalify
      const auto budget = st->budget_millibits.load();
      if (!budget) continue;  // never decrypted: no budget info yet
      const double frac = static_cast<double>(st->spent_millibits.load()) /
                          static_cast<double>(budget);
      if (frac >= opt_.refresh_threshold) out.push_back({id, frac});
    }
    return out;
  }

  /// Start the background budget-driven scheduler (Source = candidates(),
  /// RefreshFn = refresh_key()).
  void start_scheduler() {
    if (!scheduler_)
      scheduler_ = std::make_unique<RefreshScheduler>(
          [this] { return candidates(); },
          [this](const KeyId& id) {
            try {
              refresh_key(id);
              return true;
            } catch (const ServiceError& e) {
              // UnknownKey is definitive (non-retryable, so the retry loop
              // already exhausted re-routing): the key is gone server-side.
              // Without dropping it here the scheduler would requalify it on
              // every sweep and the refresh backlog would never drain.
              if (e.code() == ServiceErrc::UnknownKey) drop_dead_key(id);
              return false;
            } catch (const std::exception&) {
              return false;
            }
          },
          opt_.scheduler);
    scheduler_->start();
  }
  void stop_scheduler() {
    if (scheduler_) scheduler_->stop();
  }
  [[nodiscard]] RefreshScheduler* scheduler() { return scheduler_.get(); }

  [[nodiscard]] std::uint64_t reconnects() const { return core_.reconnects(); }
  [[nodiscard]] std::uint64_t map_refetches() const { return map_refetches_.load(); }
  /// Callers that blocked on another thread's in-flight map fetch instead of
  /// issuing their own (the WrongShard-storm dedupe).
  [[nodiscard]] std::uint64_t map_fetch_waits() const { return map_fetch_waits_.load(); }
  [[nodiscard]] bool key_dead(const KeyId& id) const { return state(id)->dead.load(); }

  /// The breaker guarding `shard` (created on first use; tests/benches).
  [[nodiscard]] transport::CircuitBreaker& shard_breaker(std::uint32_t shard) {
    return core_.breaker(shard);
  }

  void close() {
    stop_scheduler();
    core_.close();
  }

 private:
  using Attempt = service::RetryCore::Attempt;

  struct KeyState {
    KeyState(const GG& gg, const schemes::DlrParams& prm, typename Core::PublicKey pk,
             typename Core::Sk1 sk1, schemes::P1Mode mode, crypto::Rng rng)
        : p1(gg, prm, std::move(pk), std::move(sk1), mode, std::move(rng)) {}
    service::P1Runtime<GG> p1;  // volatile: no state_dir
    std::atomic<std::uint64_t> spent_millibits{0};
    std::atomic<std::uint64_t> budget_millibits{0};  // 0 = unknown yet
    /// The key is gone on every shard (UnknownKey on refresh): keep the P1
    /// state for post-mortems but never requalify it for the scheduler.
    std::atomic<bool> dead{false};
  };

  [[nodiscard]] std::shared_ptr<KeyState> state(const KeyId& id) const {
    std::shared_lock lk(keys_mu_);
    const auto it = keys_.find(id);
    if (it == keys_.end())
      throw ServiceError(ServiceErrc::UnknownKey, 0, "fleet has no key " + id.display());
    return it->second;
  }

  [[nodiscard]] crypto::Rng next_rng() {
    std::lock_guard lk(rng_mu_);
    return crypto::Rng(rng_.u64());
  }

  /// Mark a key the servers no longer know as dead so candidates() stops
  /// requalifying it (satellite of the resharding work: a remove()d or
  /// lost key must not wedge the refresh backlog forever).
  void drop_dead_key(const KeyId& id) {
    std::shared_lock lk(keys_mu_);
    const auto it = keys_.find(id);
    if (it == keys_.end() || it->second->dead.exchange(true)) return;
    telemetry::Registry::global().counter("ks.client.dead_keys").add();
    telemetry::event(telemetry::EventKind::Migrate,
                     "step=client_drop_dead key=" + id.display());
  }

  /// Per-key hello reconciliation, run before any op on a key whose refresh
  /// is stuck pending (never as a blanket post-reconnect sweep, and never
  /// for a refresh another thread is still driving).
  void maybe_reconcile(const Attempt& a, const KeyId& id, KeyState& st) {
    const auto ok = st.p1.reconcile_if_stuck(
        [&](const typename service::P1Runtime<GG>::PendingInfo& info) {
          return service::hello_exchange(st.p1, id, a.mux, info, a.timeout());
        });
    if (!ok) return;
    if (ok->disposition == service::RefDisposition::Commit) st.spent_millibits.store(0);
    if (ok->disposition == service::RefDisposition::Rollback)
      telemetry::Registry::global().counter("ks.client.rollbacks").add();
  }

  // ---- routing ----

  /// The endpoint of `id`'s owning shard, read from the map at each attempt.
  [[nodiscard]] auto route(const KeyId& id) const {
    return [this, &id] {
      std::shared_lock lk(map_mu_);
      if (map_.empty()) return service::RetryCore::Endpoint{0, bootstrap_port_};
      const std::uint32_t shard = map_.owner(id);
      const ShardInfo* s = map_.shard(shard);
      if (!s)
        throw ServiceError(ServiceErrc::Internal, 0,
                           "shard map names shard " + std::to_string(shard) +
                               " without an address");
      return service::RetryCore::Endpoint{shard, s->port};
    };
  }

  [[nodiscard]] ShardMap fetch_map_on(transport::SessionMux& m) {
    const auto sess = service::send_request(m, kKsMap, Bytes{});
    return ShardMap::decode(
        service::expect_ok(sess->recv(opt_.request_timeout), kKsMapOk));
  }

  void adopt_map(ShardMap fresh) {
    std::lock_guard lk(map_mu_);
    if (map_.empty() || fresh.version() >= map_.version()) map_ = std::move(fresh);
  }

  /// Single-flight ks.map refetch per shard: a storm of WrongShard answers
  /// (every request in flight when a reshard lands) must not turn into a
  /// storm of identical map fetches on the same mux. The first caller
  /// fetches + adopts; the rest block until that fetch completes and re-route
  /// against the refreshed map. Returns whether a fetch succeeded (ours or
  /// the one we waited on); false sends the caller down the backoff path.
  bool refetch_map_single_flight(std::uint32_t shard, transport::SessionMux& m) {
    std::unique_lock lk(map_fetch_mu_);
    auto& st = map_fetches_[shard];
    if (st.in_flight) {
      map_fetch_waits_.fetch_add(1);
      telemetry::Registry::global().counter("ks.client.map_fetch_waits").add();
      const std::uint64_t seen = st.completions;
      map_fetch_cv_.wait(lk, [&] { return st.completions != seen; });
      return st.last_ok;
    }
    st.in_flight = true;
    lk.unlock();
    bool ok = false;
    try {
      adopt_map(fetch_map_on(m));
      map_refetches_.fetch_add(1);
      ok = true;
    } catch (const std::exception&) {
    }
    lk.lock();
    st.in_flight = false;
    st.last_ok = ok;
    ++st.completions;
    lk.unlock();
    map_fetch_cv_.notify_all();
    return ok;
  }

  GG gg_;
  schemes::DlrParams prm_;
  std::mutex rng_mu_;
  crypto::Rng rng_;
  std::uint16_t bootstrap_port_;
  Options opt_;

  mutable std::shared_mutex keys_mu_;
  std::unordered_map<KeyId, std::shared_ptr<KeyState>, KeyIdHash> keys_;

  mutable std::shared_mutex map_mu_;
  ShardMap map_;

  /// Per-shard single-flight map refetch state (guarded by map_fetch_mu_).
  struct MapFetch {
    bool in_flight = false;
    bool last_ok = false;
    std::uint64_t completions = 0;
  };
  std::mutex map_fetch_mu_;
  std::condition_variable map_fetch_cv_;
  std::map<std::uint32_t, MapFetch> map_fetches_;
  std::atomic<std::uint64_t> map_fetch_waits_{0};
  std::atomic<std::uint64_t> map_refetches_{0};

  std::unique_ptr<RefreshScheduler> scheduler_;
  service::RetryCore core_;  // last: its lanes close before the state above goes
};

}  // namespace dlr::keystore
