// Client side of the DLR decryption service: the main processor P1 serving
// many local user threads, speaking to the remote auxiliary device P2Server.
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
// thread is still driving.
//
// DecryptionClient is one connection's view: it multiplexes every request
// (one mux session each) over a single connection, auto-refreshes every K
// decryptions when configured, and retries retryable service errors and
// transport failures under a bounded-backoff RetrySchedule, reconnecting
// (with a fresh hello reconciliation) when the connection dies. Several
// DecryptionClients may share one P1Runtime to fan out over multiple
// connections.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "schemes/dlr.hpp"
#include "service/admin.hpp"
#include "service/journal.hpp"
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

  /// With a non-empty `state_dir`, state is journaled to
  /// <state_dir>/p1.journal and restored from it when present (the passed
  /// sk1/mode seed only the first run); restores count in svc.recoveries.
  P1Runtime(GG gg, schemes::DlrParams prm, typename Core::PublicKey pk,
            typename Core::Sk1 sk1, schemes::P1Mode mode, crypto::Rng rng,
            std::string state_dir = {})
      : journal_(state_dir.empty()
                     ? Journal{}
                     : Journal(join_path(ensure_dir(state_dir), "p1.journal"))) {
    std::optional<Bytes> payload = journal_.load();
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
    if (journal_.attached() && !payload) persist();
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

  /// Wait (bounded) for the epoch to move past `seen` -- used by decryption
  /// retries (DecryptionClient, KsFleet) so they re-issue only after the
  /// in-progress refresh lands.
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
          {"journal", journal_.attached() ? journal_.path() : "(volatile)"},
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

  /// Journal (epoch, pending, party state). Caller holds refresh_mu_ (or is
  /// the constructor): every mutation of pending_ and of the party state
  /// happens under it, so the state is stable while decryptions read it.
  void persist() {
    if (!journal_.attached()) return;
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
    journal_.save(w.take());
  }

  Journal journal_;
  std::optional<schemes::DlrParty1<GG>> p1_;  // optional: two construction paths
  mutable std::shared_mutex mu_;        // share lock: p1_ period state vs. round-1 reads
  mutable std::mutex refresh_mu_;       // one refresher or reconciler at a time
  std::optional<Pending> pending_;      // guarded by refresh_mu_
  std::atomic<bool> pending_flag_{false};  // mirrors pending_ for lock-free reads
  mutable std::mutex epoch_mu_;         // guards epoch_ (cv companion)
  std::condition_variable epoch_cv_;
  std::uint64_t epoch_ = 0;
};

template <group::BilinearGroup GG>
class DecryptionClient {
 public:
  using Core = schemes::DlrCore<GG>;
  using GT = typename GG::GT;
  using PendingInfo = typename P1Runtime<GG>::PendingInfo;

  struct Options {
    transport::TransportOptions transport{};
    transport::Millis request_timeout{10000};
    int max_retries = 8;         // retryable-error retries per operation
    int auto_refresh_every = 0;  // run Refresh every K decryptions (0 = never)
    /// Backoff shape between retries/reconnects (max_attempts is overridden
    /// by max_retries).
    transport::RetryPolicy retry{};
    /// Wraps the connection (fault injection in tests/benches).
    std::function<std::shared_ptr<transport::Conn>(std::shared_ptr<transport::FramedConn>)>
        conn_wrapper;
    /// Per-endpoint circuit breaker (DESIGN.md §13), layered under the retry
    /// schedule. Only endpoint-health failures count against it: transport
    /// errors and Overloaded sheds. Epoch-coordination errors (StaleEpoch,
    /// Draining, ...) prove the server is alive and report as success.
    transport::CircuitBreaker::Options breaker{};
    /// Wall-clock budget for one decrypt()/refresh() operation, deducted
    /// across retry attempts; the remaining budget rides each request as its
    /// wire deadline when the server negotiated kWireDeadlineVersion.
    /// 0 = unbounded (requests carry no deadline).
    transport::Millis deadline{0};
  };

  /// Connects and runs the hello reconciliation; a journaled pending refresh
  /// from a previous (crashed) process is resolved before the first request.
  /// A transport failure here leaves the client disconnected -- decrypt() and
  /// refresh() reconnect (and reconcile) lazily under their retry schedules.
  /// Protocol-level hello failures (e.g. a detected epoch fork) still throw.
  DecryptionClient(std::shared_ptr<P1Runtime<GG>> p1, std::uint16_t port, Options opt = {})
      : p1_(std::move(p1)), opt_(std::move(opt)), port_(port), breaker_(opt_.breaker) {
    try {
      reconnect(nullptr);
    } catch (const transport::TransportError&) {
    }
  }

  [[nodiscard]] P1Runtime<GG>& p1() { return *p1_; }
  [[nodiscard]] std::uint64_t epoch() const { return p1_->epoch(); }

  /// Wire-trace version negotiated with the peer in the last hello: 0 means
  /// a legacy (pre-trace) server, so request frames carry no trace envelope.
  [[nodiscard]] std::uint8_t wire_version() const { return wire_version_.load(); }

  /// Endpoint circuit breaker state (tests/benches).
  [[nodiscard]] const transport::CircuitBreaker& breaker() const { return breaker_; }

  /// One DistDec round trip; throws ServiceError (retryable() for
  /// StaleEpoch/Draining/DrainTimeout/Shutdown) and TransportError.
  [[nodiscard]] GT decrypt_once(const typename Core::Ciphertext& c) {
    telemetry::ScopedSpan root("svc.client.dec");
    thread_local crypto::Rng rng = crypto::Rng::from_os_entropy();
    auto m = mux();
    if (!m)
      throw transport::TransportError(transport::Errc::ConnectionClosed, "not connected");
    return decrypt_once_on(*m, c, rng);
  }

  /// DistDec with the auto-refresh policy, retry of retryable errors, and
  /// transparent reconnect (with hello reconciliation) on transport failure.
  /// Every attempt passes the circuit breaker first (an open circuit
  /// fail-fasts as a retryable Overloaded carrying the remaining cooldown),
  /// retry delays honor server retry-after hints, and Options::deadline is
  /// one budget deducted across all attempts.
  [[nodiscard]] GT decrypt(const typename Core::Ciphertext& c) {
    maybe_auto_refresh();
    // The root span covers the whole operation; every network attempt opens a
    // sibling "svc.client.attempt" child, so a retried decryption exports as
    // one trace tree with one attempt subtree per try.
    telemetry::ScopedSpan root("svc.client.dec");
    thread_local crypto::Rng rng = crypto::Rng::from_os_entropy();
    transport::RetrySchedule sched(retry_policy());
    const auto op_deadline = op_deadline_from_now();
    for (;;) {
      const std::uint64_t seen = p1_->epoch();
      std::shared_ptr<transport::SessionMux> m;
      bool admitted = false;
      try {
        check_budget(op_deadline, "decrypt");
        acquire_breaker();
        admitted = true;
        m = mux();
        if (!m) m = reconnect(nullptr);
        const GT out = decrypt_once_on(*m, c, rng, remaining_ms(op_deadline));
        breaker_success();
        return out;
      } catch (const ServiceError& e) {
        if (admitted) breaker_observe(e);
        if (!e.retryable()) throw;
        const auto delay =
            sched.next(rng.u64(), transport::Millis{e.retry_after_ms()});
        if (!delay) throw;
        telemetry::Registry::global().counter("svc.client.retries").add();
        telemetry::event(telemetry::EventKind::Retry,
                         std::string("op=dec cause=") + service_errc_name(e.code()));
        // StaleEpoch with a refresh stuck pending means reconciliation (not
        // mere waiting) is what advances our epoch; a refresh in flight on
        // another thread advances it by itself.
        if (m) {
          try {
            hello_if_stuck(*m);
          } catch (const transport::TransportError&) {
          } catch (const ServiceError&) {
          }
        }
        p1_->wait_epoch_change(seen,
                               clamp_to_budget(std::max(*delay, transport::Millis{50}),
                                               op_deadline));
      } catch (const transport::TransportError&) {
        if (admitted) breaker_failure();
        const auto delay = sched.next(rng.u64());
        if (!delay) throw;
        telemetry::Registry::global().counter("svc.client.retries").add();
        telemetry::event(telemetry::EventKind::Retry, "op=dec cause=transport");
        std::this_thread::sleep_for(clamp_to_budget(*delay, op_deadline));
        try {
          reconnect(m);
        } catch (const transport::TransportError&) {
          // Still down; the next loop iteration backs off and retries.
        } catch (const ServiceError&) {
        }
      }
    }
  }

  /// Run the two-phase Refresh protocol, advancing the epoch by exactly one.
  /// Retries retryable errors and reconnects across transport failures; an
  /// interrupted attempt that the server already committed is rolled forward
  /// by the reconnect's hello reconciliation.
  void refresh() {
    telemetry::ScopedSpan span("svc.client.refresh");
    thread_local crypto::Rng rng = crypto::Rng::from_os_entropy();
    transport::RetrySchedule sched(retry_policy());
    const std::uint64_t start = p1_->epoch();
    for (;;) {
      std::shared_ptr<transport::SessionMux> m;
      bool admitted = false;
      try {
        acquire_breaker();
        admitted = true;
        m = mux();
        if (!m) m = reconnect(nullptr);
        hello_if_stuck(*m);  // resolve leftovers first
        // Reconciliation, or another client's refresh of this runtime, moved us.
        if (p1_->epoch() > start) {
          breaker_success();
          return;
        }
        p1_->refresh(
            [&](std::uint64_t e, const Bytes& r1) {
              auto sess = m->open();
              sess->send(transport::FrameType::Data,
                         static_cast<std::uint8_t>(net::DeviceId::P1), kLabelRefReq,
                         encode_request(e, r1), send_ctx());
              return [this, sess = std::move(sess)] {
                return expect_ok(sess->recv(opt_.request_timeout), kLabelRefOk);
              };
            },
            [&](std::uint64_t e, const Bytes& digest) {
              auto sess = m->open();
              sess->send(transport::FrameType::Data,
                         static_cast<std::uint8_t>(net::DeviceId::P1), kLabelRefCommit,
                         encode_commit(CommitMsg{e, digest}), send_ctx());
              return decode_commit_ok(
                  expect_ok(sess->recv(opt_.request_timeout), kLabelRefCommitOk));
            });
        breaker_success();
        return;
      } catch (const ServiceError& e) {
        if (admitted) breaker_observe(e);
        if (!e.retryable()) throw;
        const auto delay =
            sched.next(rng.u64(), transport::Millis{e.retry_after_ms()});
        if (!delay) throw;
        telemetry::Registry::global().counter("svc.client.retries").add();
        telemetry::event(telemetry::EventKind::Retry,
                         std::string("op=refresh cause=") + service_errc_name(e.code()));
        std::this_thread::sleep_for(*delay);
      } catch (const transport::TransportError&) {
        if (admitted) breaker_failure();
        const auto delay = sched.next(rng.u64());
        if (!delay) throw;
        std::this_thread::sleep_for(*delay);
        try {
          reconnect(m);  // hello inside resolves the interrupted attempt
        } catch (const transport::TransportError&) {
        } catch (const ServiceError&) {
        }
      }
    }
  }

  /// Number of reconnects this client performed (tests/benches).
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_.load(); }

  void close() {
    closed_.store(true);
    std::lock_guard lock(conn_mu_);
    if (mux_) mux_->stop();
  }

 private:
  [[nodiscard]] transport::RetryPolicy retry_policy() const {
    transport::RetryPolicy p = opt_.retry;
    p.max_attempts = opt_.max_retries + 1;
    return p;
  }

  [[nodiscard]] std::shared_ptr<transport::SessionMux> mux() {
    std::lock_guard lock(conn_mu_);
    return mux_;
  }

  /// Replace the connection `failed` (nullptr = connect unconditionally
  /// unless one exists) and run the hello reconciliation on it. If another
  /// thread already reconnected, its connection is reused.
  std::shared_ptr<transport::SessionMux> reconnect(
      const std::shared_ptr<transport::SessionMux>& failed) {
    std::lock_guard lock(conn_mu_);
    if (mux_ && mux_ != failed) return mux_;
    if (closed_.load())
      throw transport::TransportError(transport::Errc::ConnectionClosed, "client closed");
    if (mux_) {
      mux_->stop();
      mux_.reset();  // old mux stays alive via surviving Session handles
    }
    auto fc = std::make_shared<transport::FramedConn>(
        transport::connect_loopback(port_, opt_.transport), opt_.transport);
    std::shared_ptr<transport::Conn> conn =
        opt_.conn_wrapper ? opt_.conn_wrapper(std::move(fc))
                          : std::static_pointer_cast<transport::Conn>(std::move(fc));
    auto m = std::make_shared<transport::SessionMux>(std::move(conn));
    hello(*m);  // throws on fork; the half-open mux is dropped
    mux_ = std::move(m);
    if (connected_once_) {
      reconnects_.fetch_add(1);
      telemetry::Registry::global().counter("svc.reconnects").add();
      telemetry::event(telemetry::EventKind::Reconnect,
                       "port=" + std::to_string(port_) +
                           " n=" + std::to_string(reconnects_.load()));
    }
    connected_once_ = true;
    return mux_;
  }

  /// Hello exchange + pending-refresh reconciliation on `m`
  /// (P1Runtime::reconcile: waits out a refresh another thread is driving).
  void hello(transport::SessionMux& m) {
    count_verdict(p1_->reconcile([&](const PendingInfo& info) { return hello_exchange(m, info); }));
  }

  /// hello() only for a refresh stuck pending (P1Runtime::reconcile_if_stuck).
  void hello_if_stuck(transport::SessionMux& m) {
    const auto ok =
        p1_->reconcile_if_stuck([&](const PendingInfo& info) { return hello_exchange(m, info); });
    if (ok) count_verdict(*ok);
  }

  /// One hello reporting `info`. The client first offers wire-trace version
  /// kWireTraceVersion as a trailing hello byte; a legacy server rejects the
  /// unknown byte with BadRequest, in which case we re-hello bare and
  /// remember the peer as legacy (trace envelopes stay off for this client --
  /// old peers keep decrypting, just untraced).
  [[nodiscard]] HelloOk hello_exchange(transport::SessionMux& m, const PendingInfo& info) {
    HelloMsg h;
    h.epoch = p1_->epoch();
    h.has_pending = info.active;
    h.pending_epoch = info.epoch;
    h.pending_digest = info.digest;
    h.version = legacy_peer_.load() ? 0 : kWireDeadlineVersion;
    HelloOk ok;
    try {
      ok = hello_once(m, h);
    } catch (const ServiceError& e) {
      if (h.version == 0 || e.code() != ServiceErrc::BadRequest) throw;
      legacy_peer_.store(true);
      h.version = 0;
      ok = hello_once(m, h);
    }
    wire_version_.store(ok.version);
    return ok;
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

  [[nodiscard]] HelloOk hello_once(transport::SessionMux& m, const HelloMsg& h) {
    auto sess = m.open();
    sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1),
               kLabelHello, encode_hello(h));
    return decode_hello_ok(expect_ok(sess->recv(opt_.request_timeout), kLabelHelloOk));
  }

  /// Trace context to stamp onto an outgoing request frame: the innermost
  /// open span when the peer negotiated wire tracing, nothing otherwise.
  [[nodiscard]] telemetry::TraceContext send_ctx() const {
    return wire_version_.load() ? telemetry::Tracer::global().current()
                                : telemetry::TraceContext{};
  }

  [[nodiscard]] GT decrypt_once_on(transport::SessionMux& m,
                                   const typename Core::Ciphertext& c, crypto::Rng& rng,
                                   std::uint32_t deadline_ms = 0) {
    telemetry::ScopedSpan span("svc.client.attempt");
    const auto snap = p1_->begin_decrypt(c, rng);
    auto sess = m.open();
    // The remaining budget rides the request only when the peer negotiated
    // the deadline wire version (a pre-deadline server rejects trailing
    // request bytes as BadRequest).
    const std::uint32_t wire_deadline =
        wire_version_.load() >= kWireDeadlineVersion ? deadline_ms : 0;
    sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P1),
               kLabelDecReq, encode_request(snap.epoch, snap.round1, wire_deadline),
               send_ctx());
    auto timeout = opt_.request_timeout;
    if (deadline_ms != 0)
      timeout = std::min(timeout, transport::Millis{deadline_ms});
    const Bytes r2 = expect_ok(sess->recv(timeout), kLabelDecOk);
    return p1_->finish_decrypt(snap, r2);
  }

  // ---- deadline budget helpers (Options::deadline) ---------------------------

  [[nodiscard]] std::chrono::steady_clock::time_point op_deadline_from_now() const {
    if (opt_.deadline.count() <= 0) return {};
    return std::chrono::steady_clock::now() + opt_.deadline;
  }

  /// Throws a non-retryable DeadlineExceeded once the operation budget is
  /// spent -- attempts and backoff sleeps all draw from the same clock.
  void check_budget(std::chrono::steady_clock::time_point op_deadline, const char* op) const {
    if (op_deadline == std::chrono::steady_clock::time_point{}) return;
    if (std::chrono::steady_clock::now() >= op_deadline)
      throw ServiceError(ServiceErrc::DeadlineExceeded, p1_->epoch(),
                         std::string(op) + ": deadline budget spent");
  }

  [[nodiscard]] std::uint32_t remaining_ms(
      std::chrono::steady_clock::time_point op_deadline) const {
    if (op_deadline == std::chrono::steady_clock::time_point{}) return 0;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        op_deadline - std::chrono::steady_clock::now());
    return left.count() <= 0 ? 1 : static_cast<std::uint32_t>(left.count());
  }

  /// Never sleep past the operation budget; the next loop iteration turns an
  /// exhausted budget into DeadlineExceeded.
  [[nodiscard]] transport::Millis clamp_to_budget(
      transport::Millis delay, std::chrono::steady_clock::time_point op_deadline) const {
    if (op_deadline == std::chrono::steady_clock::time_point{}) return delay;
    return std::min(delay, transport::Millis{remaining_ms(op_deadline)});
  }

  // ---- circuit breaker (Options::breaker) ------------------------------------

  /// Fail fast while the circuit is open: a retryable Overloaded whose hint
  /// is the remaining cooldown, so the retry schedule sleeps past it instead
  /// of burning attempts against a known-bad endpoint.
  void acquire_breaker() {
    const auto adm = breaker_.try_acquire();
    if (adm.admitted) return;
    telemetry::Registry::global().counter("svc.client.breaker.fastfail").add();
    throw ServiceError(ServiceErrc::Overloaded, p1_->epoch(), "circuit breaker open",
                       static_cast<std::uint32_t>(adm.retry_after.count()));
  }

  void breaker_success() {
    const auto closes0 = breaker_.closes();
    breaker_.on_success();
    if (breaker_.closes() != closes0) {
      telemetry::Registry::global().counter("svc.client.breaker.close").add();
      telemetry::event(telemetry::EventKind::BreakerClose,
                       "port=" + std::to_string(port_));
    }
  }

  void breaker_failure() {
    const auto opens0 = breaker_.opens();
    breaker_.on_failure();
    if (breaker_.opens() != opens0) {
      telemetry::Registry::global().counter("svc.client.breaker.open").add();
      telemetry::event(telemetry::EventKind::BreakerOpen,
                       "port=" + std::to_string(port_) + " n=" +
                           std::to_string(breaker_.opens()));
    }
  }

  /// Typed errors and the breaker: only Overloaded indicates endpoint
  /// distress; any other ServiceError proves the server is up and answering.
  void breaker_observe(const ServiceError& e) {
    if (e.code() == ServiceErrc::Overloaded)
      breaker_failure();
    else
      breaker_success();
  }

  void maybe_auto_refresh() {
    if (opt_.auto_refresh_every <= 0) return;
    const auto n = dec_count_.fetch_add(1) + 1;
    if (n % static_cast<std::uint64_t>(opt_.auto_refresh_every) != 0) return;
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
  Options opt_;
  std::uint16_t port_;
  transport::CircuitBreaker breaker_;
  std::mutex conn_mu_;  // guards mux_ swap; serializes reconnects
  std::shared_ptr<transport::SessionMux> mux_;
  bool connected_once_ = false;  // guarded by conn_mu_
  std::atomic<std::uint64_t> dec_count_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint8_t> wire_version_{0};  // negotiated in the last hello
  std::atomic<bool> legacy_peer_{false};       // peer rejected the version byte once
  std::atomic<bool> refreshing_{false};
  std::atomic<bool> closed_{false};
};

}  // namespace dlr::service
