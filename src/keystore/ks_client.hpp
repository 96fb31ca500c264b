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
// Routing: the fleet caches a versioned ShardMap and maintains a small pool
// of SessionMux connections per shard (Options::conns_per_shard lanes, each
// calling thread hashing to one), connected lazily and replaced on
// transport failure.
// A WrongShard response -- stale map after a re-shard -- triggers a ks.map
// refetch from the answering shard (every shard serves the whole map) and a
// re-route; the retry loop treats it like any retryable error, under the
// same bounded-backoff RetrySchedule as PR 2's client. With an EMPTY map
// everything routes to the bootstrap port (single-shard mode).
//
// The refresh scheduler (scheduler.hpp) lives HERE because refresh is a
// two-party protocol and this process holds the P1 shares. Its Source is
// the fleet's local budget mirror -- every ks.dec.ok piggybacks the
// server's (spent, budget) for that key, so the mirror needs no polling --
// and its RefreshFn is refresh_key(). Keys the scheduler refreshes in the
// background never reach their budget; client code never calls refresh
// explicitly (refresh-every-K is gone).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
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
#include "transport/breaker.hpp"
#include "transport/mux.hpp"
#include "transport/retry.hpp"

namespace dlr::keystore {

template <group::BilinearGroup GG>
class KsFleet {
 public:
  using Core = schemes::DlrCore<GG>;
  using GT = typename GG::GT;
  using ServiceErrc = service::ServiceErrc;
  using ServiceError = service::ServiceError;

  struct Options {
    transport::TransportOptions transport{};
    transport::Millis request_timeout{10000};
    int max_retries = 8;
    transport::RetryPolicy retry{};
    /// Wraps every connection (fault injection in tests/benches).
    std::function<std::shared_ptr<transport::Conn>(std::shared_ptr<transport::FramedConn>)>
        conn_wrapper;
    RefreshScheduler::Options scheduler{};
    /// Budget fraction at which the scheduler refreshes a key.
    double refresh_threshold = 0.5;
    /// Connections kept per shard. Each calling thread hashes to one lane,
    /// so concurrent client threads do not serialize on a single socket's
    /// send mutex and pump thread (the single-key client gives every
    /// DecryptionClient its own connection; the pool is the fleet analogue).
    int conns_per_shard = 4;
    /// Per-SHARD circuit breaker under the retry loop (DESIGN.md §13): a
    /// shard that keeps failing or shedding gets fast-failed locally until
    /// its cooldown elapses, instead of burning the attempt budget on it.
    transport::CircuitBreaker::Options breaker{};
    /// Per-operation deadline budget (0 = none). Deducted across retries
    /// and backoff sleeps; the remaining budget rides each ks.dec request
    /// so the server can drop work the caller already gave up on.
    transport::Millis deadline{0};
  };

  /// `bootstrap_port` serves two roles: where everything routes while the
  /// map is empty, and where fetch_map() bootstraps from.
  KsFleet(GG gg, schemes::DlrParams prm, crypto::Rng rng, std::uint16_t bootstrap_port,
          Options opt)
      : gg_(std::move(gg)),
        prm_(prm),
        rng_(std::move(rng)),
        bootstrap_port_(bootstrap_port),
        opt_(std::move(opt)) {}

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
    with_retries(id, [&](transport::SessionMux& m, std::uint32_t) {
      auto sess = m.open();
      sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1),
                 kKsPut, body);
      (void)service::expect_ok(sess->recv(opt_.request_timeout), kKsPutOk);
      return 0;
    });
  }

  /// One routed, retried DistDec; mirrors the server's budget accounting
  /// from the reply into the scheduler's source data.
  [[nodiscard]] GT decrypt(const KeyId& id, const typename Core::Ciphertext& c) {
    auto st = state(id);
    thread_local crypto::Rng rng = crypto::Rng::from_os_entropy();
    return with_retries(id, [&](transport::SessionMux& m, std::uint32_t remaining_ms) {
      maybe_reconcile(m, id, *st);
      const auto snap = st->p1.begin_decrypt(c, rng);
      auto sess = m.open();
      sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1),
                 kKsDec, encode_ks_request(id, snap.epoch, snap.round1, remaining_ms));
      const KsDecOk ok =
          decode_ks_dec_ok(service::expect_ok(sess->recv(opt_.request_timeout), kKsDecOk));
      st->spent_millibits.store(ok.spent_millibits);
      st->budget_millibits.store(ok.budget_millibits);
      return st->p1.finish_decrypt(snap, ok.reply);
    }, st.get());
  }

  /// Run the two-phase refresh for one key, advancing its epoch by one.
  /// Also the scheduler's RefreshFn. An interrupted attempt leaves pending
  /// state that the next contact's ks.hello reconciles; a refresh of the
  /// key already in flight on another thread answers Draining, retried here
  /// until that refresh has moved the epoch.
  void refresh_key(const KeyId& id) {
    auto st = state(id);
    const std::uint64_t start = st->p1.epoch();
    with_retries(id, [&](transport::SessionMux& m, std::uint32_t) {
      maybe_reconcile(m, id, *st);
      if (st->p1.epoch() > start) return 0;  // reconciliation (or another refresh) moved it
      st->p1.refresh(
          [&](std::uint64_t e, const Bytes& r1) {
            auto sess = m.open();
            sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1),
                       kKsRef, encode_ks_request(id, e, r1));
            return [this, sess = std::move(sess)] {
              return service::expect_ok(sess->recv(opt_.request_timeout), kKsRefOk);
            };
          },
          [&](std::uint64_t e, const Bytes& digest) {
            auto sess = m.open();
            sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1),
                       kKsRefCommit, encode_ks_request(id, e, digest));
            return service::decode_commit_ok(
                service::expect_ok(sess->recv(opt_.request_timeout), kKsRefCommitOk));
          });
      st->spent_millibits.store(0);  // fresh period; the next ks.dec.ok corrects the mirror
      return 0;
    });
  }

  /// Fetch the shard map from `port` (default: bootstrap) and adopt it.
  void fetch_map(std::uint16_t port = 0) {
    auto m = connect_raw(port ? port : bootstrap_port_);
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

  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_.load(); }
  [[nodiscard]] std::uint64_t map_refetches() const { return map_refetches_.load(); }
  /// Callers that blocked on another thread's in-flight map fetch instead of
  /// issuing their own (the WrongShard-storm dedupe).
  [[nodiscard]] std::uint64_t map_fetch_waits() const { return map_fetch_waits_.load(); }
  [[nodiscard]] bool key_dead(const KeyId& id) const { return state(id)->dead.load(); }

  /// The breaker guarding `shard` (created on first use; tests/benches).
  [[nodiscard]] transport::CircuitBreaker& shard_breaker(std::uint32_t shard) {
    return breaker_for(shard);
  }

  void close() {
    stop_scheduler();
    std::lock_guard lk(mux_mu_);
    closed_ = true;
    for (auto& [shard, sc] : muxes_)
      for (auto& m : sc.lanes)
        if (m) m->stop();
    muxes_.clear();
  }

 private:
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
  void maybe_reconcile(transport::SessionMux& m, const KeyId& id, KeyState& st) {
    const auto ok = st.p1.reconcile_if_stuck(
        [&](const typename service::P1Runtime<GG>::PendingInfo& info) {
          service::HelloMsg h;
          h.epoch = st.p1.epoch();
          h.has_pending = info.active;
          h.pending_epoch = info.epoch;
          h.pending_digest = info.digest;
          auto sess = m.open();
          sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1),
                     kKsHello, encode_ks_hello(id, h));
          return service::decode_hello_ok(
              service::expect_ok(sess->recv(opt_.request_timeout), kKsHelloOk));
        });
    if (!ok) return;
    if (ok->disposition == service::RefDisposition::Commit) st.spent_millibits.store(0);
    if (ok->disposition == service::RefDisposition::Rollback)
      telemetry::Registry::global().counter("ks.client.rollbacks").add();
  }

  // ---- routing ----

  [[nodiscard]] std::uint16_t port_for(const KeyId& id, std::uint32_t* shard_out) const {
    std::shared_lock lk(map_mu_);
    if (map_.empty()) {
      *shard_out = 0;
      return bootstrap_port_;
    }
    const std::uint32_t shard = map_.owner(id);
    const ShardInfo* s = map_.shard(shard);
    if (!s)
      throw ServiceError(ServiceErrc::Internal, 0,
                         "shard map names shard " + std::to_string(shard) + " without an address");
    *shard_out = shard;
    return s->port;
  }

  [[nodiscard]] std::shared_ptr<transport::SessionMux> connect_raw(std::uint16_t port) {
    auto fc = std::make_shared<transport::FramedConn>(
        transport::connect_loopback(port, opt_.transport), opt_.transport);
    std::shared_ptr<transport::Conn> conn =
        opt_.conn_wrapper ? opt_.conn_wrapper(std::move(fc))
                          : std::static_pointer_cast<transport::Conn>(std::move(fc));
    return std::make_shared<transport::SessionMux>(std::move(conn));
  }

  [[nodiscard]] std::size_t lane_of() const {
    const std::size_t n = opt_.conns_per_shard > 0 ? opt_.conns_per_shard : 1;
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) % n;
  }

  [[nodiscard]] std::shared_ptr<transport::SessionMux> mux_for(std::uint32_t shard,
                                                               std::uint16_t port) {
    const std::size_t lane = lane_of();
    {
      // Read-mostly fast path: once a lane's mux exists it is only replaced
      // after a transport failure, so the steady-state request stream shares
      // the lock instead of serializing on it.
      std::shared_lock lk(mux_mu_);
      if (closed_)
        throw transport::TransportError(transport::Errc::ConnectionClosed, "fleet closed");
      const auto it = muxes_.find(shard);
      if (it != muxes_.end() && lane < it->second.lanes.size() && it->second.lanes[lane])
        return it->second.lanes[lane];
    }
    std::unique_lock lk(mux_mu_);
    if (closed_)
      throw transport::TransportError(transport::Errc::ConnectionClosed, "fleet closed");
    auto& sc = muxes_[shard];
    const std::size_t n = opt_.conns_per_shard > 0 ? opt_.conns_per_shard : 1;
    if (sc.lanes.size() < n) {
      sc.lanes.resize(n);
      sc.ever.resize(n, 0);
    }
    auto& slot = sc.lanes[lane];
    if (!slot) {
      slot = connect_raw(port);
      if (sc.ever[lane]) {
        reconnects_.fetch_add(1);
        telemetry::Registry::global().counter("ks.client.reconnects").add();
      }
      sc.ever[lane] = 1;
    }
    return slot;
  }

  void drop_mux(std::uint32_t shard, const std::shared_ptr<transport::SessionMux>& failed) {
    std::lock_guard lk(mux_mu_);
    auto it = muxes_.find(shard);
    if (it == muxes_.end()) return;
    for (auto& slot : it->second.lanes)
      if (slot == failed) {
        slot->stop();
        slot.reset();
        return;
      }
  }

  [[nodiscard]] ShardMap fetch_map_on(transport::SessionMux& m) {
    auto sess = m.open();
    sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1),
               kKsMap, Bytes{});
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

  /// The routed retry loop shared by every op: route -> run -> on WrongShard
  /// refetch the map from the answering shard, on other retryable errors
  /// back off, on transport failure drop that shard's mux and reconnect.
  /// With the key's state `st`, a StaleEpoch backs off only until the key's
  /// P1 half moves its epoch: decryptions overlap the key's refresh, and one
  /// whose round 1 reached P2 after the COMMIT retries as soon as P1 has
  /// installed its half (DecryptionClient::decrypt waits the same way).
  template <class Op>
  auto with_retries(const KeyId& id, Op&& op, KeyState* st = nullptr) -> decltype(op(
      std::declval<transport::SessionMux&>(), std::uint32_t{})) {
    thread_local crypto::Rng backoff_rng = crypto::Rng::from_os_entropy();
    transport::RetryPolicy policy = opt_.retry;
    policy.max_attempts = opt_.max_retries + 1;
    transport::RetrySchedule sched(policy);
    const auto op_deadline = opt_.deadline.count() > 0
                                 ? std::chrono::steady_clock::now() + opt_.deadline
                                 : std::chrono::steady_clock::time_point{};
    for (;;) {
      const std::uint64_t seen = st ? st->p1.epoch() : 0;
      std::uint32_t shard = 0;
      std::shared_ptr<transport::SessionMux> m;
      transport::CircuitBreaker* br = nullptr;
      bool admitted = false;  // breaker outcome owed only for admitted attempts
      try {
        check_budget(op_deadline);
        const std::uint16_t port = port_for(id, &shard);
        br = &breaker_for(shard);
        const auto adm = br->try_acquire();
        if (!adm.admitted) {
          telemetry::Registry::global().counter("ks.client.breaker.fastfail").add();
          throw ServiceError(
              ServiceErrc::Overloaded, 0,
              "circuit breaker open for shard " + std::to_string(shard),
              static_cast<std::uint32_t>(adm.retry_after.count()));
        }
        admitted = true;
        m = mux_for(shard, port);
        auto result = op(*m, remaining_ms(op_deadline));
        breaker_success(shard, *br);
        return result;
      } catch (const ServiceError& e) {
        // Overloaded proves the shard is shedding; every other typed error
        // proves it answered -- only the former counts against the breaker.
        if (admitted && br) {
          if (e.code() == ServiceErrc::Overloaded)
            breaker_failure(shard, *br);
          else
            breaker_success(shard, *br);
        }
        if (!e.retryable()) throw;
        const auto delay =
            sched.next(backoff_rng.u64(), transport::Millis{e.retry_after_ms()});
        if (!delay) throw;
        telemetry::Registry::global().counter("ks.client.retries").add();
        if (e.code() == ServiceErrc::WrongShard && m) {
          // Stale map: the answering shard serves the current one. Concurrent
          // misroutes to the same shard collapse to ONE in-flight fetch.
          if (refetch_map_single_flight(shard, *m))
            continue;  // re-route immediately; no backoff needed
          // Fetch failed: fall through to the backoff path.
        }
        if (st && e.code() == ServiceErrc::StaleEpoch) {
          st->p1.wait_epoch_change(seen, clamp_to_budget(*delay, op_deadline));
          continue;
        }
        std::this_thread::sleep_for(clamp_to_budget(*delay, op_deadline));
      } catch (const transport::TransportError&) {
        if (admitted && br) breaker_failure(shard, *br);
        const auto delay = sched.next(backoff_rng.u64());
        if (!delay) throw;
        telemetry::Registry::global().counter("ks.client.retries").add();
        if (m) drop_mux(shard, m);
        std::this_thread::sleep_for(clamp_to_budget(*delay, op_deadline));
      }
    }
  }

  // ---- deadline budget + per-shard breaker plumbing (DESIGN.md §13) ----

  /// Throws the non-retryable typed error once the op's budget is spent; the
  /// sleep clamp below guarantees the loop re-checks right after a backoff.
  static void check_budget(std::chrono::steady_clock::time_point op_deadline) {
    if (op_deadline == std::chrono::steady_clock::time_point{}) return;
    if (std::chrono::steady_clock::now() >= op_deadline)
      throw ServiceError(ServiceErrc::DeadlineExceeded, 0, "deadline budget spent");
  }

  /// Remaining budget to ride the wire (0 = no deadline; floor 1 ms so a
  /// nearly-spent budget still encodes as "has a deadline").
  [[nodiscard]] static std::uint32_t remaining_ms(
      std::chrono::steady_clock::time_point op_deadline) {
    if (op_deadline == std::chrono::steady_clock::time_point{}) return 0;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        op_deadline - std::chrono::steady_clock::now());
    return static_cast<std::uint32_t>(std::max<long long>(1, left.count()));
  }

  [[nodiscard]] static transport::Millis clamp_to_budget(
      transport::Millis d, std::chrono::steady_clock::time_point op_deadline) {
    if (op_deadline == std::chrono::steady_clock::time_point{}) return d;
    return std::min(d, transport::Millis{remaining_ms(op_deadline)});
  }

  [[nodiscard]] transport::CircuitBreaker& breaker_for(std::uint32_t shard) {
    std::lock_guard lk(breakers_mu_);
    auto it = breakers_.find(shard);
    if (it == breakers_.end())
      it = breakers_
               .emplace(shard,
                        std::make_unique<transport::CircuitBreaker>(opt_.breaker))
               .first;
    return *it->second;
  }

  void breaker_success(std::uint32_t shard, transport::CircuitBreaker& br) {
    const auto closes_before = br.closes();
    br.on_success();
    if (br.closes() != closes_before) {
      telemetry::Registry::global().counter("ks.client.breaker.close").add();
      telemetry::event(telemetry::EventKind::BreakerClose,
                       "shard=" + std::to_string(shard));
    }
  }

  void breaker_failure(std::uint32_t shard, transport::CircuitBreaker& br) {
    const auto opens_before = br.opens();
    br.on_failure();
    if (br.opens() != opens_before) {
      telemetry::Registry::global().counter("ks.client.breaker.open").add();
      telemetry::event(telemetry::EventKind::BreakerOpen,
                       "shard=" + std::to_string(shard) + " state=open");
    }
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

  /// Per-shard connection lanes (opt_.conns_per_shard of them; a lane that
  /// was connected before counts re-establishment as a reconnect).
  struct ShardConns {
    std::vector<std::shared_ptr<transport::SessionMux>> lanes;
    std::vector<char> ever;
  };

  std::shared_mutex mux_mu_;
  std::map<std::uint32_t, ShardConns> muxes_;
  bool closed_ = false;  // guarded by mux_mu_

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

  /// Per-shard breakers, created on first route (unique_ptr: the breaker's
  /// mutex pins its address while callers hold references across the map's
  /// rebalancing inserts).
  std::mutex breakers_mu_;
  std::map<std::uint32_t, std::unique_ptr<transport::CircuitBreaker>> breakers_;

  std::unique_ptr<RefreshScheduler> scheduler_;
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> map_refetches_{0};
};

}  // namespace dlr::keystore
