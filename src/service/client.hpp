// Client side of the DLR decryption service: the main processor P1 serving
// many local user threads, speaking to the remote auxiliary device P2 (the
// one-key KsServer). The same P1 half and the same retry loop serve the
// keystore fleet (keystore/ks_client.hpp), so this file is the one P1 client
// stack.
//
// P1Runtime holds the singular P1 share behind a shared_mutex (the share
// lock). Decryption round-1 construction runs under the shared lock
// (dec_round1 is const given a prepared period and a caller rng). A
// decryption's period key (sigma) is captured at round-1 time, so an
// in-flight request finishes correctly even when a refresh rotates the
// period during the network round trip.
//
// Refresh is a two-phase epoch commit (DESIGN.md §9). A separate refresh
// mutex serializes refreshers (a second one gets the retryable Draining) and
// hello reconciliation; the share lock is taken exclusively only for the
// install, so decryptions keep running through the rest:
//
//   1. ref_round1                                  shared share lock
//   2. journal PendingRefresh{epoch, digest}       (before any frame leaves)
//   3. PREPARE sent; while it is in flight, draw   no share lock
//      the next period's public HPSKE coins
//   4. journal the round-2 reply                   (before the commit frame)
//   5. COMMIT round trip -> server installs first  exclusive share lock
//   6. ref_finish + sigma' + masks + epoch bump    exclusive share lock
//   7. journal the new state
//
// Step 4 before step 5 is the crux: once the commit frame may have been sent,
// the journal provably holds everything needed to roll forward, so the
// reconciliation rule "commit iff the server committed, roll back otherwise"
// is always executable -- a crash or lost frame at ANY point leaves a state
// that reconcile() can repair, never a fork. Reconciliation holds the
// refresh mutex, so it never reports or resolves a refresh that another
// thread is still driving. A durable runtime journals each step into a
// keystore::SegmentJournal of its own under <state_dir>/p1/ (DESIGN.md
// §9.2), the format the server journals in.
//
// RetryCore is the one retry loop of both P1 clients (DESIGN.md §13.4). It
// owns each endpoint's connection lanes and circuit breaker and runs an
// operation as attempts: admit at the breaker, take the calling thread's
// lane, run one attempt, and on failure back off -- never for less than the
// server's retry-after hint -- wait for the key's epoch to move after a
// StaleEpoch, refetch the shard map after a WrongShard, or drop the lane
// after a transport failure. A dial is one attempt: the transport never
// retries on its own. retry.deadline is an operation's one budget.
//
// Beside it sits the one copy of each per-key exchange both clients run on an
// attempt: dec_exchange (ks.dec), refresh_exchange (ks.ref + ks.ref.commit)
// and hello_exchange (ks.hello). Every request they send carries the calling
// thread's current trace context (none outside a span).
//
// DecryptionClient is RetryCore over one endpoint, running the exchanges for
// keystore::default_key_id(), the one key of the one-key server. It adds the
// hello on every new connection, the svc.client.* spans and auto-refresh
// every K decryptions. Several DecryptionClients may share one P1Runtime to
// fan out over multiple connections.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "keystore/ks_protocol.hpp"
#include "keystore/segment_journal.hpp"
#include "schemes/dlr.hpp"
#include "service/admin.hpp"
#include "service/protocol.hpp"
#include "telemetry/events.hpp"
#include "telemetry/trace.hpp"
#include "transport/breaker.hpp"
#include "transport/mux.hpp"
#include "transport/retry.hpp"

namespace dlr::service {

template <group::BilinearGroup GG>
class P1Runtime {
 public:
  using Core = schemes::DlrCore<GG>;
  using GT = typename GG::GT;

  struct DecSnapshot {
    std::uint64_t epoch = 0;
    Bytes round1;
    typename schemes::HpskeGT<GG>::SecretKey sigma;  // period key for finish
  };

  /// What the client reports in its hello frame.
  struct PendingInfo {
    bool active = false;
    std::uint64_t epoch = 0;
    Bytes digest;
    bool has_r2 = false;
  };

  /// With a non-empty `state_dir`, state is journaled under <state_dir>/p1/
  /// and restored from there when present (the passed sk1/mode seed only the
  /// first run); restores count in svc.recoveries. A p1.journal left in
  /// `state_dir` by an older build is refused (std::runtime_error).
  P1Runtime(GG gg, schemes::DlrParams prm, typename Core::PublicKey pk,
            typename Core::Sk1 sk1, schemes::P1Mode mode, crypto::Rng rng,
            std::string state_dir = {}) {
    std::optional<Bytes> payload;
    if (!state_dir.empty()) {
      journal_ = open_journal(state_dir);
      auto recovered = journal_->take_recovered();
      // The journal's one record: P1's half of the single key.
      if (const auto it = recovered.find(keystore::default_key_id()); it != recovered.end())
        payload = std::move(it->second);
    }
    if (payload) {
      ByteReader r(*payload);
      epoch_ = r.u64();
      if (r.u8()) {
        Pending p;
        p.epoch = r.u64();
        p.digest = r.blob();
        if (r.u8()) p.r2 = r.blob();
        pending_ = std::move(p);
        pending_flag_.store(true);
      }
      const Bytes state = r.blob();
      ByteReader sr(state);
      // The rng is deliberately NOT restored from disk: reusing journaled
      // coins would break the refresh security argument. Fresh entropy only.
      p1_.emplace(schemes::DlrParty1<GG>::restore(std::move(gg), prm, std::move(pk), sr,
                                                  std::move(rng)));
      telemetry::Registry::global().counter("svc.recoveries").add();
      telemetry::event(telemetry::EventKind::JournalRecovery,
                       "side=p1 epoch=" + std::to_string(epoch_) +
                           " pending=" + (pending_ ? "true" : "false"));
    } else {
      p1_.emplace(std::move(gg), prm, std::move(pk), std::move(sk1), mode,
                  std::move(rng));
    }
    p1_->prepare_period();
    if (journal_ && !payload) persist();
  }

  /// Build round 1 + capture (epoch, period key) consistently under the
  /// shared lock. `rng` is the calling thread's own generator.
  [[nodiscard]] DecSnapshot begin_decrypt(const typename Core::Ciphertext& c,
                                          crypto::Rng& rng) {
    std::shared_lock lock(mu_);
    DecSnapshot snap;
    snap.round1 = p1_->dec_round1(c, rng);
    snap.sigma = p1_->period_sigma_gt();
    std::lock_guard elock(epoch_mu_);
    snap.epoch = epoch_;
    return snap;
  }

  /// Decrypt the server's reply with the snapshot's period key. Touches only
  /// immutable P1 members, so no lock is needed.
  [[nodiscard]] GT finish_decrypt(const DecSnapshot& snap, const Bytes& reply) const {
    return p1_->dec_finish_with(snap.sigma, reply);
  }

  /// Run the two-phase refresh, holding the refresh mutex throughout and the
  /// share lock exclusively only for COMMIT and the install (the steps in
  /// the header comment). `prepare(e, r1)` sends PREPARE and returns a
  /// callable that waits for round 2 and returns it; `commit(e, digest)`
  /// must complete the server-side install (its return value is ignored).
  /// A refresh already in flight, or a journaled PendingRefresh still
  /// awaiting reconciliation, fails it with the retryable Draining. Either
  /// callback throwing leaves the PendingRefresh in place -- the caller
  /// reconciles it via reconcile() (a reconnect hello) before retrying.
  template <class Prepare, class Commit>
  void refresh(Prepare&& prepare, Commit&& commit) {
    std::unique_lock rlock(refresh_mu_, std::try_to_lock);
    if (!rlock.owns_lock())
      throw ServiceError(ServiceErrc::Draining, epoch(), "another refresh is in progress");
    if (pending_)
      throw ServiceError(ServiceErrc::Draining, epoch(),
                         "pending refresh awaiting reconciliation");
    const std::uint64_t e = epoch();
    Bytes r1;
    {
      std::shared_lock lock(mu_);
      r1 = p1_->ref_round1();
    }
    pending_.emplace(Pending{e, crypto::digest_to_bytes(crypto::Sha256::hash(r1)), {}});
    pending_flag_.store(true);
    persist();  // journal the intent before any frame leaves
    auto await_r2 = prepare(e, r1);
    p1_->draw_next_coins();
    pending_->r2 = await_r2();
    persist();  // journal round 2 BEFORE the commit frame: from here on,
                // "server committed" is always roll-forwardable
    {
      std::unique_lock lock(mu_);
      (void)commit(e, pending_->digest);
      install_locked();
    }
    persist();
    epoch_cv_.notify_all();
  }

  /// Hello reconciliation: `exchange(info)` sends a hello reporting the
  /// pending refresh `info` (and epoch()) and returns the peer's HelloOk,
  /// whose verdict is then applied: Commit installs the journaled round 2,
  /// Rollback discards the sampled refresh state and starts a fresh period
  /// (share and epoch unchanged). Holds the refresh mutex throughout, so it
  /// waits out a refresh another thread is driving instead of reporting it.
  /// Returns the peer's answer.
  template <class Exchange>
  HelloOk reconcile(Exchange&& exchange) {
    std::lock_guard rlock(refresh_mu_);
    return reconcile_locked(exchange);
  }

  /// reconcile() for a refresh stuck pending only: nullopt without an
  /// exchange when nothing is pending, or when a refresh is in flight on
  /// another thread -- that thread moves the epoch itself. Retry paths use
  /// this, so they neither wait for nor act on a live refresh.
  template <class Exchange>
  std::optional<HelloOk> reconcile_if_stuck(Exchange&& exchange) {
    if (!pending_flag_.load()) return std::nullopt;
    std::unique_lock rlock(refresh_mu_, std::try_to_lock);
    if (!rlock.owns_lock() || !pending_) return std::nullopt;
    return reconcile_locked(exchange);
  }

  /// The pending refresh, if any. Waits out a refresh in flight.
  [[nodiscard]] PendingInfo pending_info() const {
    std::lock_guard rlock(refresh_mu_);
    return pending_info_locked();
  }

  [[nodiscard]] std::uint64_t epoch() const {
    std::lock_guard lock(epoch_mu_);
    return epoch_;
  }

  /// Wait (bounded) for the epoch to move past `seen` -- RetryCore's wait
  /// after a StaleEpoch, so a retry re-issues only once the refresh that
  /// turned it away has landed here too.
  void wait_epoch_change(std::uint64_t seen, transport::Millis timeout) {
    std::unique_lock lock(epoch_mu_);
    epoch_cv_.wait_for(lock, timeout, [&] { return epoch_ != seen; });
  }

  /// Contribute a "p1" section to an admin health document. The provider
  /// reads only the epoch mutex and an atomic pending flag -- it never waits
  /// on the share lock, so a scrape cannot stall behind an in-flight refresh.
  void register_admin(AdminServer& admin, const std::string& section = "p1") {
    admin.register_health(section, [this] {
      return std::vector<std::pair<std::string, std::string>>{
          {"epoch", std::to_string(epoch())},
          {"pending_refresh", pending_flag_.load() ? "true" : "false"},
          {"journal", journal_ ? journal_->dir() : "(volatile)"},
      };
    });
  }

  /// Current share (tests: msk-constancy checks). Takes the exclusive lock.
  [[nodiscard]] typename Core::Sk1 share_for_test() {
    std::unique_lock lock(mu_);
    return p1_->recover_share_for_test();
  }

 private:
  struct Pending {
    std::uint64_t epoch = 0;
    Bytes digest;
    std::optional<Bytes> r2;  // set once PREPARE round-tripped
  };

  /// <state_dir>/p1/, a directory of its own, so a P1 and a P2 given the same
  /// state dir never share segment files. An older build's p1.journal is
  /// refused, never skipped: starting from the constructor share
  /// while the server holds a later epoch would fork the key.
  static std::unique_ptr<keystore::SegmentJournal> open_journal(const std::string& state_dir) {
    const std::string dlrj = keystore::join_path(state_dir, "p1.journal");
    if (std::filesystem::exists(dlrj))
      throw std::runtime_error("P1Runtime: " + dlrj +
                               " is a DLRJ journal, a format this build no longer reads");
    return std::make_unique<keystore::SegmentJournal>(
        keystore::join_path(keystore::ensure_dir(state_dir), "p1"));
  }

  [[nodiscard]] PendingInfo pending_info_locked() const {
    PendingInfo info;
    if (pending_) {
      info.active = true;
      info.epoch = pending_->epoch;
      info.digest = pending_->digest;
      info.has_r2 = pending_->r2.has_value();
    }
    return info;
  }

  /// Caller holds refresh_mu_, so the pending refresh cannot change while
  /// the hello is on the wire.
  template <class Exchange>
  HelloOk reconcile_locked(Exchange& exchange) {
    const HelloOk ok = exchange(pending_info_locked());
    if (!pending_) return ok;
    switch (ok.disposition) {
      case RefDisposition::Commit:
        if (!pending_->r2)
          throw ServiceError(ServiceErrc::Internal, ok.server_epoch,
                             "server committed a refresh the client never "
                             "reached the commit phase of");
        {
          std::unique_lock lock(mu_);
          install_locked();
        }
        persist();
        epoch_cv_.notify_all();
        break;
      case RefDisposition::Rollback:
        {
          std::unique_lock lock(mu_);
          p1_->end_period();
          p1_->prepare_period();
        }
        pending_.reset();
        pending_flag_.store(false);
        persist();
        break;
      case RefDisposition::None:
        break;
    }
    return ok;
  }

  /// ref_finish + next period (sigma' and the masks over the coins drawn
  /// during PREPARE) + epoch bump. Caller holds refresh_mu_ and mu_
  /// exclusively, with pending_->r2 set.
  void install_locked() {
    p1_->ref_finish(*pending_->r2);
    p1_->prepare_period();
    pending_.reset();
    pending_flag_.store(false);
    std::lock_guard elock(epoch_mu_);
    ++epoch_;
  }

  /// Journal (epoch | pending | party state). Caller holds refresh_mu_ (or is
  /// the constructor): every mutation of pending_ and of the party state
  /// happens under it, so the state is stable while decryptions read it.
  void persist() {
    if (!journal_) return;
    ByteWriter w;
    w.u64(epoch());
    w.u8(pending_ ? 1 : 0);
    if (pending_) {
      w.u64(pending_->epoch);
      w.blob(pending_->digest);
      w.u8(pending_->r2 ? 1 : 0);
      if (pending_->r2) w.blob(*pending_->r2);
    }
    ByteWriter sw;
    p1_->ser_state(sw);
    w.blob(sw.bytes());
    journal_->append(keystore::default_key_id(), w.take());
    journal_->maybe_compact();  // one live record: the directory stays bounded
  }

  std::unique_ptr<keystore::SegmentJournal> journal_;  // set only when durable
  std::optional<schemes::DlrParty1<GG>> p1_;  // optional: two construction paths
  mutable std::shared_mutex mu_;        // share lock: p1_ period state vs. round-1 reads
  mutable std::mutex refresh_mu_;       // one refresher or reconciler at a time
  std::optional<Pending> pending_;      // guarded by refresh_mu_
  std::atomic<bool> pending_flag_{false};  // mirrors pending_ for lock-free reads
  mutable std::mutex epoch_mu_;         // guards epoch_ (cv companion)
  std::condition_variable epoch_cv_;
  std::uint64_t epoch_ = 0;
};

/// Wraps each new connection (fault injection and frame recording in tests).
using ConnWrapper =
    std::function<std::shared_ptr<transport::Conn>(std::shared_ptr<transport::FramedConn>)>;

/// The one retry loop of the P1 clients. DecryptionClient runs it over one
/// endpoint, KsFleet over every shard of its map. An operation is a sequence
/// of attempts; each is admitted by the endpoint's circuit breaker, runs on
/// the calling thread's lane (connected with one dial, then Hooks::on_connect,
/// when empty) and ends one of four ways:
///
///   - success: the breaker hears it, the result returns;
///   - a ServiceError that is not retryable: rethrown;
///   - a retryable ServiceError: back off for at least the server's
///     retry-after hint, where a StaleEpoch instead waits, bounded by the
///     same backoff, for the key's epoch to move, and a WrongShard runs
///     Hooks::on_wrong_shard and re-routes at once if that refreshed the map;
///   - a TransportError, a refused dial included: back off on a new lane
///     (the next attempt dials again).
///
/// Only transport failures and Overloaded sheds count against a breaker; any
/// other typed answer proves the endpoint alive. An open breaker fails an
/// attempt fast with a retryable Overloaded carrying its remaining cooldown.
/// Options::retry.deadline is the operation's one budget: the schedule
/// refuses a backoff that would overrun it, every reply wait is capped by
/// what is left (Attempt::timeout) -- the hooks' hello and map fetch
/// included -- and the rest rides the request (Attempt::deadline_ms). When
/// the schedule gives up, the operation ends with its last error.
class RetryCore {
 public:
  using Clock = std::chrono::steady_clock;

  /// The settings both clients share; each client's Options adds its own.
  struct Options {
    /// Longest wait for one reply; what is left of the budget caps it too.
    transport::Millis request_timeout{10000};
    /// Backoff shape and attempt count of one operation (a first try and 8
    /// retries by default). retry.deadline is the operation's wall-clock
    /// budget, 0 = unbounded.
    transport::RetryPolicy retry{.max_attempts = 9};
    /// Per-endpoint circuit breaker, layered under the schedule (DESIGN.md §13).
    transport::CircuitBreaker::Options breaker{};
    ConnWrapper conn_wrapper;
  };

  /// Where an attempt goes: a breaker and lane key (the shard) and its port.
  struct Endpoint {
    std::uint32_t id = 0;
    std::uint16_t port = 0;
  };

  /// One attempt: its connection and the operation's budget.
  struct Attempt {
    transport::SessionMux& mux;
    transport::Millis request_timeout;
    Clock::time_point deadline;  // {} = unbounded

    /// How long to wait for the next reply: request_timeout, capped by the
    /// budget left.
    [[nodiscard]] transport::Millis timeout() const {
      if (deadline == Clock::time_point{}) return request_timeout;
      return std::min(request_timeout, transport::Millis{deadline_ms()});
    }

    /// The budget left for a request's deadline field: whole ms, at least 1
    /// so a nearly spent budget still reads as one; 0 = unbounded.
    [[nodiscard]] std::uint32_t deadline_ms() const {
      if (deadline == Clock::time_point{}) return 0;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
      return static_cast<std::uint32_t>(std::max<long long>(1, left));
    }
  };

  /// What the owning client plugs in.
  struct Hooks {
    std::string metrics{};     // counters <metrics>.retries and <metrics>.breaker.*
    std::string reconnects{};  // counter of lanes connected again after a failure
    std::size_t lanes = 1;     // connections per endpoint; each thread hashes to one
    /// Runs on every new lane before it serves attempt `a` (the hello).
    std::function<void(const Attempt& a)> on_connect{};
    /// WrongShard from shard `id` on attempt `a`: refresh the routing; true
    /// re-routes at once, false backs off.
    std::function<bool(std::uint32_t id, const Attempt& a)> on_wrong_shard{};
  };

  RetryCore(Options opt, Hooks hooks) : opt_(std::move(opt)), hooks_(std::move(hooks)) {}
  ~RetryCore() { close(); }
  RetryCore(const RetryCore&) = delete;
  RetryCore& operator=(const RetryCore&) = delete;

  [[nodiscard]] const Options& options() const { return opt_; }

  /// A new connection to `port` outside the lanes (wrapped; no on_connect).
  [[nodiscard]] std::shared_ptr<transport::SessionMux> connect(std::uint16_t port) const {
    auto fc = std::make_shared<transport::FramedConn>(transport::connect_loopback(port));
    std::shared_ptr<transport::Conn> conn =
        opt_.conn_wrapper ? opt_.conn_wrapper(std::move(fc))
                          : std::static_pointer_cast<transport::Conn>(std::move(fc));
    return std::make_shared<transport::SessionMux>(std::move(conn));
  }

  /// The calling thread's lane to `ep`, connected first if it is empty. Its
  /// Hooks::on_connect runs outside any operation, so it waits the whole
  /// request_timeout.
  [[nodiscard]] std::shared_ptr<transport::SessionMux> lane(const Endpoint& ep) {
    return lane(slot(ep.id), ep, Clock::time_point{});
  }

  /// Run `op(Attempt&)` under the retry rules above and return its result.
  /// `key` is the P1Runtime whose epoch a StaleEpoch waits on (nullptr: the
  /// operation has none); `route()` names the endpoint of each attempt;
  /// `name` labels the operation in Retry events.
  template <class Key, class Route, class Op>
  auto run(const char* name, Key* key, Route&& route, Op&& op) {
    using Result = decltype(op(std::declval<Attempt&>()));
    thread_local crypto::Rng backoff_rng = crypto::Rng::from_os_entropy();
    transport::RetrySchedule sched(opt_.retry);
    const Clock::time_point deadline = opt_.retry.deadline.count() > 0
                                           ? Clock::now() + opt_.retry.deadline
                                           : Clock::time_point{};
    for (;;) {
      const std::uint64_t seen = key ? key->epoch() : 0;
      Endpoint ep;
      Slot* s = nullptr;
      bool admitted = false;  // the breaker hears only admitted attempts
      std::shared_ptr<transport::SessionMux> m;
      try {
        ep = route();
        s = &slot(ep.id);
        const auto adm = s->breaker.try_acquire();
        if (!adm.admitted) {
          count(".breaker.fastfail");
          throw ServiceError(ServiceErrc::Overloaded, 0, "circuit breaker open for " + where(ep),
                             static_cast<std::uint32_t>(adm.retry_after.count()));
        }
        admitted = true;
        m = lane(*s, ep, deadline);
        Attempt a{*m, opt_.request_timeout, deadline};
        if constexpr (std::is_void_v<Result>) {
          op(a);
          succeeded(*s, ep);
          return;
        } else {
          Result out = op(a);
          succeeded(*s, ep);
          return out;
        }
      } catch (const ServiceError& e) {
        if (admitted) {
          if (e.code() == ServiceErrc::Overloaded)
            failed(*s, ep);
          else
            succeeded(*s, ep);
        }
        if (!e.retryable()) throw;
        const auto delay =
            sched.next(backoff_rng.u64(), transport::Millis{e.retry_after_ms()});
        if (!delay) throw;
        retried(name, service_errc_name(e.code()));
        if (e.code() == ServiceErrc::WrongShard && m && hooks_.on_wrong_shard &&
            hooks_.on_wrong_shard(ep.id, Attempt{*m, opt_.request_timeout, deadline}))
          continue;  // re-route against the refreshed map; no backoff
        if (key && e.code() == ServiceErrc::StaleEpoch)
          key->wait_epoch_change(seen, *delay);
        else
          std::this_thread::sleep_for(*delay);
      } catch (const transport::TransportError&) {
        if (admitted) failed(*s, ep);
        const auto delay = sched.next(backoff_rng.u64());
        if (!delay) throw;
        retried(name, "transport");
        if (m) drop(*s, m);
        std::this_thread::sleep_for(*delay);
      }
    }
  }

  /// Endpoint `id`'s breaker (created on first use).
  [[nodiscard]] transport::CircuitBreaker& breaker(std::uint32_t id) { return slot(id).breaker; }

  /// Lanes connected again after a failure.
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_.load(); }

  /// Stop every lane; later attempts fail with ConnectionClosed. Idempotent.
  void close() {
    std::vector<std::shared_ptr<transport::SessionMux>> open;
    {
      std::unique_lock lk(mu_);
      closed_ = true;
      for (auto& [id, s] : slots_)
        for (auto& m : s.lanes)
          if (m) open.push_back(std::move(m));
    }
    for (auto& m : open) m->stop();
  }

 private:
  /// One endpoint: its lanes and breaker. Map nodes never move or go away,
  /// so references stay valid; the lanes are guarded by mu_.
  struct Slot {
    Slot(std::size_t n, const transport::CircuitBreaker::Options& b)
        : lanes(n), connected(n), breaker(b) {}
    std::vector<std::shared_ptr<transport::SessionMux>> lanes;
    std::vector<char> connected;  // lane connected before: the next connect is a reconnect
    transport::CircuitBreaker breaker;
  };

  [[nodiscard]] Slot& slot(std::uint32_t id) {
    {
      std::shared_lock lk(mu_);
      const auto it = slots_.find(id);
      if (it != slots_.end()) return it->second;
    }
    std::unique_lock lk(mu_);
    return slots_.try_emplace(id, hooks_.lanes, opt_.breaker).first->second;
  }

  /// `deadline` bounds the on_connect hook's waits ({} = unbounded).
  [[nodiscard]] std::shared_ptr<transport::SessionMux> lane(Slot& s, const Endpoint& ep,
                                                            Clock::time_point deadline) {
    const std::size_t i =
        hooks_.lanes > 1 ? std::hash<std::thread::id>{}(std::this_thread::get_id()) % hooks_.lanes
                         : 0;
    {
      // Read-mostly fast path: a lane is only replaced after a failure.
      std::shared_lock lk(mu_);
      if (closed_) throw transport::TransportError(transport::Errc::ConnectionClosed, "closed");
      if (s.lanes[i]) return s.lanes[i];
    }
    std::unique_lock lk(mu_);
    if (closed_) throw transport::TransportError(transport::Errc::ConnectionClosed, "closed");
    if (s.lanes[i]) return s.lanes[i];
    auto m = connect(ep.port);
    // A throw drops the half-open mux.
    if (hooks_.on_connect) hooks_.on_connect(Attempt{*m, opt_.request_timeout, deadline});
    s.lanes[i] = m;
    if (s.connected[i]) {
      const auto n = reconnects_.fetch_add(1) + 1;
      telemetry::Registry::global().counter(hooks_.reconnects).add();
      telemetry::event(telemetry::EventKind::Reconnect, where(ep) + " n=" + std::to_string(n));
    }
    s.connected[i] = 1;
    return m;
  }

  /// Empty the lane that still holds `failed`; another thread may have
  /// replaced it already.
  void drop(Slot& s, const std::shared_ptr<transport::SessionMux>& failed) {
    {
      std::unique_lock lk(mu_);
      const auto it = std::find(s.lanes.begin(), s.lanes.end(), failed);
      if (it == s.lanes.end()) return;
      it->reset();
    }
    failed->stop();
  }

  void succeeded(Slot& s, const Endpoint& ep) {
    if (!s.breaker.on_success()) return;
    count(".breaker.close");
    telemetry::event(telemetry::EventKind::BreakerClose, where(ep));
  }

  void failed(Slot& s, const Endpoint& ep) {
    if (!s.breaker.on_failure()) return;
    count(".breaker.open");
    telemetry::event(telemetry::EventKind::BreakerOpen,
                     where(ep) + " n=" + std::to_string(s.breaker.opens()));
  }

  void retried(const char* name, const char* cause) {
    count(".retries");
    telemetry::event(telemetry::EventKind::Retry, std::string("op=") + name + " cause=" + cause);
  }

  void count(const char* suffix) const {
    telemetry::Registry::global().counter(hooks_.metrics + suffix).add();
  }

  [[nodiscard]] static std::string where(const Endpoint& ep) {
    return "shard=" + std::to_string(ep.id) + " port=" + std::to_string(ep.port);
  }

  Options opt_;
  Hooks hooks_;
  std::shared_mutex mu_;  // guards slots_ membership, every Slot::lanes, closed_
  std::map<std::uint32_t, Slot> slots_;
  bool closed_ = false;
  std::atomic<std::uint64_t> reconnects_{0};
};

/// Send one P1 request on a new session of `mux`, stamped with the calling
/// thread's current trace context; the session receives the reply.
[[nodiscard]] inline std::unique_ptr<transport::SessionMux::Session> send_request(
    transport::SessionMux& mux, const char* label, Bytes body) {
  auto sess = mux.open();
  sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1), label,
             std::move(body), telemetry::Tracer::global().current());
  return sess;
}

/// ks.dec: one decryption of `c` under key `id` on attempt `a`, carrying the
/// budget left. `ledger`, when set, receives the server's (spent, budget)
/// for the key.
template <group::BilinearGroup GG>
[[nodiscard]] typename GG::GT dec_exchange(P1Runtime<GG>& p1, const keystore::KeyId& id,
                                           const RetryCore::Attempt& a,
                                           const typename schemes::DlrCore<GG>::Ciphertext& c,
                                           keystore::KsDecOk* ledger = nullptr) {
  thread_local crypto::Rng rng = crypto::Rng::from_os_entropy();
  const auto snap = p1.begin_decrypt(c, rng);
  const auto sess =
      send_request(a.mux, keystore::kKsDec,
                   keystore::encode_ks_request(id, snap.epoch, snap.round1, a.deadline_ms()));
  keystore::KsDecOk ok =
      keystore::decode_ks_dec_ok(expect_ok(sess->recv(a.timeout()), keystore::kKsDecOk));
  auto m = p1.finish_decrypt(snap, ok.reply);
  if (ledger) *ledger = std::move(ok);
  return m;
}

/// ks.ref + ks.ref.commit: P1Runtime::refresh of key `id` on attempt `a`.
template <group::BilinearGroup GG>
void refresh_exchange(P1Runtime<GG>& p1, const keystore::KeyId& id, const RetryCore::Attempt& a) {
  p1.refresh(
      [&](std::uint64_t e, const Bytes& r1) {
        auto sess = send_request(a.mux, keystore::kKsRef, keystore::encode_ks_request(id, e, r1));
        return [&a, sess = std::move(sess)] {
          return expect_ok(sess->recv(a.timeout()), keystore::kKsRefOk);
        };
      },
      [&](std::uint64_t e, const Bytes& digest) {
        const auto sess = send_request(a.mux, keystore::kKsRefCommit,
                                       keystore::encode_ks_request(id, e, digest));
        return decode_commit_ok(expect_ok(sess->recv(a.timeout()), keystore::kKsRefCommitOk));
      });
}

/// ks.hello: report P1's epoch for key `id` and its pending refresh `info`
/// over `mux`; returns the server's verdict (P1Runtime::reconcile's
/// exchange).
template <group::BilinearGroup GG>
[[nodiscard]] HelloOk hello_exchange(const P1Runtime<GG>& p1, const keystore::KeyId& id,
                                     transport::SessionMux& mux,
                                     const typename P1Runtime<GG>::PendingInfo& info,
                                     transport::Millis timeout) {
  HelloMsg h;
  h.epoch = p1.epoch();
  h.has_pending = info.active;
  h.pending_epoch = info.epoch;
  h.pending_digest = info.digest;
  const auto sess = send_request(mux, keystore::kKsHello, keystore::encode_ks_hello(id, h));
  return decode_hello_ok(expect_ok(sess->recv(timeout), keystore::kKsHelloOk));
}

template <group::BilinearGroup GG>
class DecryptionClient {
 public:
  using Core = schemes::DlrCore<GG>;
  using GT = typename GG::GT;
  using PendingInfo = typename P1Runtime<GG>::PendingInfo;

  struct Options : RetryCore::Options {
    int auto_refresh_every = 0;  // run Refresh every K decryptions (0 = never)
  };

  /// Connects and runs the hello reconciliation; a journaled pending refresh
  /// from a previous (crashed) process is resolved before the first request.
  /// A transport failure here (a dead port fails its one dial at once) leaves
  /// the client disconnected -- decrypt() and refresh() reconnect (and
  /// reconcile) lazily under their retry schedules. Protocol-level hello
  /// failures (e.g. a detected epoch fork) still throw.
  DecryptionClient(std::shared_ptr<P1Runtime<GG>> p1, std::uint16_t port, Options opt = {})
      : p1_(std::move(p1)),
        port_(port),
        auto_refresh_every_(opt.auto_refresh_every),
        core_(std::move(opt), {.metrics = "svc.client",
                               .reconnects = "svc.reconnects",
                               .on_connect = [this](const RetryCore::Attempt& a) { hello(a); }}) {
    try {
      (void)core_.lane(endpoint());
    } catch (const transport::TransportError&) {
    }
  }

  [[nodiscard]] P1Runtime<GG>& p1() { return *p1_; }
  [[nodiscard]] std::uint64_t epoch() const { return p1_->epoch(); }

  /// Endpoint circuit breaker (tests/benches).
  [[nodiscard]] const transport::CircuitBreaker& breaker() { return core_.breaker(endpoint().id); }

  /// One DistDec round trip, no retry; throws ServiceError (retryable() for
  /// StaleEpoch/Draining/Shutdown) and TransportError.
  [[nodiscard]] GT decrypt_once(const typename Core::Ciphertext& c) {
    telemetry::ScopedSpan root("svc.client.dec");
    const auto m = core_.lane(endpoint());
    return decrypt_on({*m, core_.options().request_timeout, {}}, c);
  }

  /// DistDec with the auto-refresh policy, under the retry core: a stuck
  /// refresh is reconciled before each attempt, and a lost connection is
  /// replaced (with its hello) on the next.
  [[nodiscard]] GT decrypt(const typename Core::Ciphertext& c) {
    maybe_auto_refresh();
    // The root span covers the whole operation; every network attempt opens a
    // sibling "svc.client.attempt" child, so a retried decryption exports as
    // one trace tree with one attempt subtree per try.
    telemetry::ScopedSpan root("svc.client.dec");
    return core_.run("dec", p1_.get(), [this] { return endpoint(); },
                     [&](RetryCore::Attempt& a) {
                       hello_if_stuck(a);
                       return decrypt_on(a, c);
                     });
  }

  /// Run the two-phase Refresh protocol, advancing the epoch by exactly one,
  /// within the operation budget. An interrupted attempt that the server
  /// already committed is rolled forward by the next attempt's hello.
  void refresh() {
    telemetry::ScopedSpan span("svc.client.refresh");
    const std::uint64_t start = p1_->epoch();
    core_.run("refresh", p1_.get(), [this] { return endpoint(); },
              [&](RetryCore::Attempt& a) {
                hello_if_stuck(a);  // resolve leftovers first
                // Reconciliation, or another client's refresh of this runtime,
                // moved us.
                if (p1_->epoch() > start) return;
                refresh_exchange(*p1_, keystore::default_key_id(), a);
              });
  }

  /// Number of reconnects this client performed (tests/benches).
  [[nodiscard]] std::uint64_t reconnects() const { return core_.reconnects(); }

  void close() { core_.close(); }

 private:
  [[nodiscard]] RetryCore::Endpoint endpoint() const { return {0, port_}; }

  /// Hello exchange + pending-refresh reconciliation on a new connection
  /// (P1Runtime::reconcile: waits out a refresh another thread is driving),
  /// within attempt `a`'s budget.
  void hello(const RetryCore::Attempt& a) {
    count_verdict(p1_->reconcile([&](const PendingInfo& info) {
      return hello_exchange(*p1_, keystore::default_key_id(), a.mux, info, a.timeout());
    }));
  }

  /// The hello only for a refresh stuck pending (P1Runtime::reconcile_if_stuck).
  void hello_if_stuck(const RetryCore::Attempt& a) {
    const auto ok = p1_->reconcile_if_stuck([&](const PendingInfo& info) {
      return hello_exchange(*p1_, keystore::default_key_id(), a.mux, info, a.timeout());
    });
    if (ok) count_verdict(*ok);
  }

  /// Telemetry for an applied reconciliation verdict.
  static void count_verdict(const HelloOk& ok) {
    if (ok.disposition == RefDisposition::Commit) {
      telemetry::Registry::global().counter("svc.recoveries").add();
      telemetry::event(telemetry::EventKind::Reconcile,
                       "side=p1 verdict=commit epoch=" + std::to_string(ok.server_epoch));
    } else if (ok.disposition == RefDisposition::Rollback) {
      telemetry::Registry::global().counter("svc.rollbacks").add();
      telemetry::event(telemetry::EventKind::Reconcile,
                       "side=p1 verdict=rollback epoch=" + std::to_string(ok.server_epoch));
    }
  }

  [[nodiscard]] GT decrypt_on(const RetryCore::Attempt& a, const typename Core::Ciphertext& c) {
    telemetry::ScopedSpan span("svc.client.attempt");
    return dec_exchange(*p1_, keystore::default_key_id(), a, c);
  }

  void maybe_auto_refresh() {
    if (auto_refresh_every_ <= 0) return;
    const auto n = dec_count_.fetch_add(1) + 1;
    if (n % static_cast<std::uint64_t>(auto_refresh_every_) != 0) return;
    // One refresher at a time per client; losers skip (their decrypts would
    // only pile onto the drain).
    bool expected = false;
    if (!refreshing_.compare_exchange_strong(expected, true)) return;
    try {
      refresh();
    } catch (...) {
      refreshing_.store(false);
      throw;
    }
    refreshing_.store(false);
  }

  std::shared_ptr<P1Runtime<GG>> p1_;
  std::uint16_t port_;
  int auto_refresh_every_;
  std::atomic<std::uint64_t> dec_count_{0};
  std::atomic<bool> refreshing_{false};
  RetryCore core_;  // last: its lanes' hellos use the members above
};

}  // namespace dlr::service
