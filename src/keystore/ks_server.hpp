// KsServer<GG> -- one shard of the multi-tenant keystore service, and the
// single-key P2 server: service::P2Server<GG> is this class.
//
// Thread architecture (DESIGN.md §12): every decryption request (ks.dec)
// flows through decode -> BatchCollector -> crypto worker -> coalesced
// encode. Readers decode and address-check; a crypto worker that wakes takes
// whatever is queued, up to min(max_batch, 2 x workers) requests, groups
// them by (tenant, key), and serves each group through one
// KeyStore::DecSession (one shared entry lock + one share-vector recode per
// key per batch). A refresh commit takes the entry's exclusive lock, so it
// drains every open session first and no batch ever spans two epochs.
// Control-plane routes (ks.ref / commit / hello / put / map / the resharding
// routes) run on a small WorkerPool. One background compaction thread
// periodically folds the segmented journal, when the store keeps one.
//
// Every ks.* request names a (tenant, key) and is served by the KeyStore's
// per-key epoch machine. Constructed with a default share, the server is the
// paper's one auxiliary device P2 as a one-key store: DecryptionClient names
// default_key_id() on the same ks.* routes, and the replies are pinned byte
// for byte (KsWireTest). An error that no key's own state raised carries the
// default key's epoch, which a single-key peer reads as the server's epoch.
//
// Sharding: the server carries a shard id and a versioned ShardMap (empty =
// accept everything, the bootstrap/single-shard mode). A ks.* request for a
// key the map assigns elsewhere is refused with the retryable WrongShard
// error; the client refetches the map over ks.map and re-routes. The map is
// installed by the operator/bench via set_shard_map() and served to clients
// over ks.map -- every shard serves the whole map, so any one bootstrap
// address suffices.
//
// LIVE RESHARDING (DESIGN.md §14): ks.map.propose installs a new map on a
// shard and enqueues every resident key the new map assigns elsewhere onto a
// background migration driver, which hands each key to its destination over
// ks.migrate.offer (ship state, destination journals as Staged and acks the
// digest) -> release (source durably stops serving; the entry's exclusive
// lock drains in-flight decrypts) -> ks.migrate.commit (destination starts
// serving) -> tombstone. Admission is STORE-FIRST: a resident serving key
// answers no matter what the map says (the map is installed at propose time,
// before keys have moved), a Staged/Released copy answers Draining/WrongShard,
// and an absent key the map assigns here answers Draining while the reshard
// window is open -- the window is the set of peer shards that have not yet
// broadcast ks.migrate.done, so "not arrived yet" is distinguishable from
// "does not exist". The operator must propose the SAME map (same version) to
// every shard of old ∪ new; after a crash-restart, re-proposing with a
// bumped version resumes journaled half-done migrations and re-closes
// windows. The whole surface is gated on wire version 2 (ks.map.propose
// names the minimum wire version every shard must speak).
//
// The REFRESH SCHEDULER deliberately does not live here: refresh is a
// two-party protocol and the P1 half lives in the client fleet (KsFleet),
// which therefore owns the budget-driven scheduler. This server's side of
// the policy is accounting (charging budgets, piggybacking spent/budget on
// every ks.dec.ok) and the per-key 2PC state machine.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "crypto/rng.hpp"
#include "keystore/keystore.hpp"
#include "keystore/ks_protocol.hpp"
#include "keystore/shard_map.hpp"
#include "service/admin.hpp"
#include "service/batcher.hpp"
#include "service/overload.hpp"
#include "service/parallel.hpp"
#include "service/protocol.hpp"
#include "service/worker_pool.hpp"
#include "telemetry/events.hpp"
#include "telemetry/trace.hpp"
#include "transport/endpoint.hpp"
#include "transport/mux.hpp"

namespace dlr::keystore {

template <group::BilinearGroup GG>
class KsServer {
 public:
  using Core = schemes::DlrCore<GG>;
  using Store = KeyStore<GG>;
  using ServiceErrc = service::ServiceErrc;
  using ServiceError = service::ServiceError;

  struct Options {
    int workers = 4;
    std::size_t queue_cap = 1024;
    /// This process's shard id (matched against the installed ShardMap).
    std::uint32_t shard_id = 0;
    typename Store::Options store{};
    /// Wraps each accepted connection (fault injection in tests/benches).
    std::function<std::shared_ptr<transport::Conn>(std::shared_ptr<transport::FramedConn>)>
        conn_wrapper;
    /// Run a read-only AdminServer sidecar (DESIGN.md §10).
    bool admin = false;
    std::uint16_t admin_port = 0;
    /// Largest micro-batch a crypto worker takes (effective cap is
    /// min(max_batch, 2 * workers)).
    std::size_t max_batch = 16;
    /// Derive a DLR_PARALLEL default from hardware_concurrency minus this
    /// server's own threads when the env var is absent.
    bool adaptive_parallel = true;
    /// Leakage-floor exception to refresh shedding: a key whose spent
    /// fraction is at/above this floor gets its refresh served even while
    /// degraded -- availability degrades before leakage tolerance does.
    double refresh_shed_floor = 0.8;
    /// Artificial per-batch crypto-stage delay (tests and the --overload
    /// bench): presents a controllable capacity so saturation is
    /// deterministic instead of a race against real crypto speed.
    std::chrono::microseconds inject_crypto_delay{0};
  };

  /// A decryption whose server-side handling takes longer than this logs a
  /// SlowRequest event (every 256th one, like Shed).
  static constexpr double kSlowRequestMs = 100;
  /// Grace period stop() allows queued work to finish before hanging up.
  static constexpr transport::Millis kStopDrain{1000};
  /// Background journal-compaction cadence (a store without a journal runs
  /// no compaction thread).
  static constexpr std::chrono::milliseconds kCompactInterval{500};

  KsServer(GG gg, schemes::DlrParams prm, crypto::Rng rng, Options opt)
      : opt_(std::move(opt)),
        store_(std::move(gg), prm, std::move(rng), opt_.store),
        batcher_(typename service::BatchCollector<KsDecJob>::Options{effective_batch_cap(opt_),
                                                                     opt_.queue_cap}),
        gov_(service::OverloadGovernor::Options{.workers = opt_.workers,
                                                .queue_cap = opt_.queue_cap}) {}

  /// The single-key server: a store holding `default_sk2` as
  /// default_key_id(), unless Options::store.state_dir already journals that
  /// key -- then the recovered share and epoch win.
  KsServer(GG gg, schemes::DlrParams prm, typename Core::Sk2 default_sk2, crypto::Rng rng,
           Options opt)
      : KsServer(std::move(gg), prm, std::move(rng), std::move(opt)) {
    if (!store_.contains(default_key_id())) store_.put(default_key_id(), std::move(default_sk2));
  }

  ~KsServer() { stop(); }
  KsServer(const KsServer&) = delete;
  KsServer& operator=(const KsServer&) = delete;

  void start(std::uint16_t port = 0) {
    listener_ = transport::Listener::loopback(port);
    started_at_ = std::chrono::steady_clock::now();
    pool_ = std::make_unique<service::WorkerPool>(kControlWorkers, opt_.queue_cap);
    if (opt_.adaptive_parallel) {
      const unsigned hw = std::thread::hardware_concurrency();
      const int own = opt_.workers + kControlWorkers + 1;
      service::set_adaptive_parallel_default(
          hw == 0 ? 0 : std::max(0, static_cast<int>(hw) - own));
    }
    crypto_threads_.reserve(static_cast<std::size_t>(opt_.workers));
    for (int i = 0; i < opt_.workers; ++i)
      crypto_threads_.emplace_back([this] { crypto_loop(); });
    if (opt_.admin) {
      admin_ = std::make_unique<service::AdminServer>();
      admin_->register_health("keystore", [this] { return health_fields(); });
      admin_->start(opt_.admin_port);
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
    if (store_.journal() != nullptr)
      compact_thread_ = std::thread([this] { compact_loop(); });
    mig_thread_ = std::thread([this] { migrate_loop(); });
    // Journaled mid-migration keys (crash restart) go straight back on the
    // driver; Released ones finish commit-only even before any map arrives.
    resume_migrations();
  }

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] std::uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }
  [[nodiscard]] service::AdminServer* admin() { return admin_.get(); }
  [[nodiscard]] Store& store() { return store_; }
  [[nodiscard]] std::uint32_t shard_id() const { return opt_.shard_id; }
  /// Overload governor (shed counters, EWMA crypto cost) — read-only.
  [[nodiscard]] const service::OverloadGovernor& gov() const { return gov_; }

  void set_shard_map(ShardMap map) {
    {
      std::lock_guard lk(map_mu_);
      map_ = std::move(map);
    }
    resume_migrations();
  }
  [[nodiscard]] ShardMap shard_map() const {
    std::lock_guard lk(map_mu_);
    return map_;
  }

  /// Install a proposed map and enqueue every resident key it assigns
  /// elsewhere for migration (the local half of ks.map.propose; the operator
  /// calls this -- or sends the route -- on EVERY shard of old ∪ new).
  /// Returns the number of outgoing keys. The reshard window opens here:
  /// absent-but-owned keys answer Draining until every peer broadcasts done.
  std::size_t propose_map(ShardMap proposed) {
    if (proposed.empty())
      throw ServiceError(ServiceErrc::BadRequest, 0, "proposed shard map is empty");
    {
      std::lock_guard lk(map_mu_);
      if (!map_.empty() && proposed.version() < map_.version())
        throw ServiceError(ServiceErrc::BadRequest, 0,
                           "proposed map version " + std::to_string(proposed.version()) +
                               " older than installed " + std::to_string(map_.version()));
      mig_window_version_ = proposed.version();
      mig_await_done_.clear();
      for (const auto& s : map_.shards())
        if (s.id != opt_.shard_id) mig_await_done_.insert(s.id);
      for (const auto& s : proposed.shards())
        if (s.id != opt_.shard_id) mig_await_done_.insert(s.id);
      // A racing peer may have finished + broadcast before our propose
      // landed; its recorded done must still count against this window.
      for (auto it = mig_await_done_.begin(); it != mig_await_done_.end();)
        if (auto seen = mig_done_seen_.find(*it);
            seen != mig_done_seen_.end() && seen->second >= mig_window_version_)
          it = mig_await_done_.erase(it);
        else
          ++it;
      map_ = std::move(proposed);
    }
    const ShardMap snap = shard_map();
    std::size_t outgoing = 0;
    {
      std::lock_guard lk(mig_mu_);
      for (const auto& id : store_.key_ids()) {
        if (id == default_key_id()) continue;  // the one-key server's key never migrates
        const auto rs = store_.route_state(id);
        const bool out = rs == Store::RouteState::Released ||
                         (rs == Store::RouteState::Serving &&
                          snap.owner(id) != opt_.shard_id);
        if (out && mig_queued_.insert(id).second) {
          mig_queue_.push_back(id);
          ++outgoing;
        }
      }
      for (const auto& s : snap.shards())
        if (s.id != opt_.shard_id) {
          auto& owed = mig_done_targets_[s.id];
          owed = std::max(owed, snap.version());
        }
      mig_broadcast_pending_ = true;
    }
    telemetry::Registry::global()
        .gauge("ks.migrate.backlog")
        .set(static_cast<double>(mig_backlog()));
    mig_cv_.notify_all();
    return outgoing;
  }

  /// Migration keys still queued or mid-flight on the driver.
  [[nodiscard]] std::size_t mig_backlog() const {
    std::lock_guard lk(mig_mu_);
    return mig_queued_.size();
  }
  /// No queued hand-offs and no done-broadcast owed -- this shard's half of
  /// the reshard is complete (tests/benches poll this).
  [[nodiscard]] bool mig_idle() const {
    std::lock_guard lk(mig_mu_);
    return mig_queued_.empty() && !mig_broadcast_pending_;
  }
  [[nodiscard]] bool mig_halted() const { return mig_halted_.load(); }
  /// Peers whose ks.migrate.done this shard is still waiting for.
  [[nodiscard]] bool reshard_window_open() const {
    std::lock_guard lk(map_mu_);
    return !mig_await_done_.empty();
  }
  [[nodiscard]] std::uint64_t migrated_out() const { return mig_out_total_.load(); }
  [[nodiscard]] std::uint64_t migrated_in() const { return mig_in_total_.load(); }

  void begin_drain() { draining_stop_.store(true); }

  void stop() {
    if (stopping_.exchange(true)) {
      if (accept_thread_.joinable()) accept_thread_.join();
      if (compact_thread_.joinable()) compact_thread_.join();
      if (mig_thread_.joinable()) mig_thread_.join();
      return;
    }
    draining_stop_.store(true);
    {
      std::lock_guard lk(compact_mu_);
      compact_stop_ = true;
    }
    compact_cv_.notify_all();
    if (compact_thread_.joinable()) compact_thread_.join();
    {
      std::lock_guard lk(mig_mu_);
      mig_stop_ = true;
    }
    mig_cv_.notify_all();
    if (mig_thread_.joinable()) mig_thread_.join();
    {
      std::lock_guard lk(peer_mu_);
      for (auto& [shard, m] : peer_muxes_)
        if (m) m->stop();
      peer_muxes_.clear();
    }
    const auto deadline = std::chrono::steady_clock::now() + kStopDrain;
    while (std::chrono::steady_clock::now() < deadline && pool_ &&
           (pool_->queued() > 0 || batcher_.queued() > 0))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    listener_.close();
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::shared_ptr<ConnState>> conns;
    {
      std::lock_guard lock(conns_mu_);
      conns = conns_;
    }
    for (auto& c : conns) c->conn->shutdown();
    if (pool_) pool_->stop();
    // A reader still running now gets Stopped from try_submit and exits;
    // crypto workers drain the queue and exit on the first empty collect().
    batcher_.stop();
    for (auto& t : crypto_threads_)
      if (t.joinable()) t.join();
    crypto_threads_.clear();
    for (auto& c : conns)
      if (c->reader.joinable()) c->reader.join();
    // Close the sockets now, not when the server is destroyed: a peer blocked
    // sending into a full receive buffer only wakes when the fd closes (a
    // shutdown() leaves the window shut until its send's kIoTimeout). With the
    // readers, workers and batcher done, these are the last references.
    conns.clear();
    {
      std::lock_guard lock(conns_mu_);
      conns_.clear();
    }
    if (admin_) admin_->stop();
  }

 private:
  static constexpr int kControlWorkers = 2;

  struct ConnState {
    std::shared_ptr<transport::Conn> conn;
    std::thread reader;
    std::atomic<bool> done{false};
  };

  /// One decoded, shard-checked decryption request parked in the batcher.
  struct KsDecJob {
    std::shared_ptr<transport::Conn> conn;
    std::uint32_t session = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
    KeyId id;
    std::uint64_t epoch = 0;
    Bytes payload;
    std::chrono::steady_clock::time_point enq;
    /// Absolute expiry from the request's deadline budget; epoch value = none.
    std::chrono::steady_clock::time_point deadline{};
  };

  [[nodiscard]] static std::size_t effective_batch_cap(const Options& o) {
    const std::size_t w = static_cast<std::size_t>(std::max(1, o.workers));
    return std::max<std::size_t>(1, std::min(o.max_batch, 2 * w));
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::string>> health_fields() const {
    std::uint64_t map_version = 0;
    std::size_t map_shards = 0;
    {
      std::lock_guard lk(map_mu_);
      map_version = map_.version();
      map_shards = map_.shards().size();
    }
    auto* j = const_cast<Store&>(store_).journal();
    std::vector<std::pair<std::string, std::string>> fields = {
        {"shard_id", std::to_string(opt_.shard_id)},
        {"keys", std::to_string(store_.size())},
        {"map_version", std::to_string(map_version)},
        {"map_shards", std::to_string(map_shards)},
        {"journal_segments", j ? std::to_string(j->segment_count()) : "0"},
        {"compactions", j ? std::to_string(j->compactions()) : "0"},
        {"draining", draining_stop_.load() ? "true" : "false"},
        {"batch_queue", std::to_string(batcher_.queued())},
        {"control_queue", std::to_string(pool_ ? pool_->queued() : 0)},
        {"queue_cap", std::to_string(opt_.queue_cap)},
        {"degraded",
         gov_.degraded(batcher_.queued() + (pool_ ? pool_->queued() : 0)) ? "true"
                                                                          : "false"},
        {"shed_overload", std::to_string(gov_.shed_overload())},
        {"shed_deadline", std::to_string(gov_.shed_deadline())},
        {"shed_refresh", std::to_string(gov_.shed_refresh())},
        {"crypto_cost_us_ewma", std::to_string(gov_.cost_us())},
        {"migrate_backlog", std::to_string(mig_backlog())},
        {"migrate_halted", mig_halted_.load() ? "true" : "false"},
        {"reshard_window", reshard_window_open() ? "open" : "closed"},
        {"migrated_out", std::to_string(mig_out_total_.load())},
        {"migrated_in", std::to_string(mig_in_total_.load())},
        {"uptime_ms", std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                                         std::chrono::steady_clock::now() - started_at_)
                                         .count())},
    };
    // The one-key server's own epoch (its default key's); read without the
    // entry lock, so a scrape never waits out a commit.
    if (store_.contains(default_key_id()))
      fields.emplace_back("epoch", std::to_string(default_epoch()));
    return fields;
  }

  void accept_loop() {
    for (;;) {
      transport::Socket sock;
      try {
        sock = listener_.accept(transport::Millis{200});
      } catch (const transport::TransportError& e) {
        if (e.code() == transport::Errc::Timeout) {
          if (stopping_.load()) return;
          continue;
        }
        return;  // listener closed
      }
      auto st = std::make_shared<ConnState>();
      auto fc = std::make_shared<transport::FramedConn>(std::move(sock));
      st->conn = opt_.conn_wrapper
                     ? opt_.conn_wrapper(std::move(fc))
                     : std::static_pointer_cast<transport::Conn>(std::move(fc));
      st->reader = std::thread([this, conn = st->conn] { reader_loop(conn); });
      std::lock_guard lock(conns_mu_);
      std::erase_if(conns_, [](const std::shared_ptr<ConnState>& c) {
        if (!c->done.load()) return false;
        if (c->reader.joinable()) c->reader.join();
        return true;
      });
      conns_.push_back(std::move(st));
    }
  }

  void reader_loop(const std::shared_ptr<transport::Conn>& conn) {
    for (;;) {
      transport::Frame f;
      try {
        f = conn->recv_blocking();
      } catch (const transport::TransportError&) {
        break;
      }
      if (f.type != transport::FrameType::Data) continue;
      if (f.label == kKsDec) {
        if (!enqueue_dec(conn, std::move(f))) break;
        continue;
      }
      // Stash the header before the body moves into the job: a Full verdict
      // must still answer on the request's session with its trace intact.
      transport::Frame hdr{f.session, f.type,
                           static_cast<std::uint8_t>(net::DeviceId::P2), f.label, {}};
      hdr.trace_id = f.trace_id;
      hdr.parent_span = f.parent_span;
      const auto sub = pool_->try_submit([this, conn, f = std::move(f)]() mutable {
        handle(*conn, std::move(f));
      });
      if (sub == service::WorkerPool::Submit::Stopped) break;
      if (sub == service::WorkerPool::Submit::Full) {
        // Reader never blocks on a saturated pool (DESIGN.md §13): shed with
        // a retryable Overloaded + drain-time hint instead of stalling every
        // request behind this one on the connection.
        const std::size_t depth = pool_->queued() + batcher_.queued();
        gov_.count_shed_overload();
        shed_event("cause=pool-full label=" + hdr.label, gov_.shed_overload());
        try {
          send_err(*conn, hdr, ServiceErrc::Overloaded, "worker queue full",
                   gov_.retry_after_ms(depth));
        } catch (const transport::TransportError&) {
          break;
        }
      }
    }
    std::lock_guard lock(conns_mu_);
    for (auto& c : conns_)
      if (c->conn == conn) c->done.store(true);
  }

  void compact_loop() {
    std::unique_lock lk(compact_mu_);
    while (!compact_stop_) {
      compact_cv_.wait_for(lk, kCompactInterval, [this] { return compact_stop_; });
      if (compact_stop_) return;
      lk.unlock();
      try {
        store_.maybe_compact();
      } catch (const std::exception&) {
        // An I/O failure mid-compaction leaves a recoverable on-disk state
        // (segment_journal.hpp); keep serving and retry next tick.
      }
      lk.lock();
    }
  }

  /// Admission gate, STORE-FIRST since live resharding: a resident serving
  /// key answers regardless of the map (the new map is installed at propose
  /// time, before the key has moved), a mid-migration copy answers its
  /// route-state verdict, and only then does the map speak -- WrongShard if
  /// it names another shard, Draining if it names us but the key has not
  /// arrived and the reshard window is still open. The default key is exempt
  /// -- the one-key server's key answers whatever map is installed.
  void check_owned(const KeyId& id) const {
    if (id == default_key_id()) return;
    switch (store_.route_state(id)) {
      case Store::RouteState::Serving:
        return;
      case Store::RouteState::Staged:
        throw ServiceError(ServiceErrc::Draining, 0,
                           id.display() + " is migrating to this shard");
      case Store::RouteState::Released:
      case Store::RouteState::Absent:
        break;  // the map decides
    }
    std::lock_guard lk(map_mu_);
    if (map_.empty()) return;
    const std::uint32_t owner = map_.owner(id);
    if (owner != opt_.shard_id)
      throw ServiceError(ServiceErrc::WrongShard, 0,
                         id.display() + " belongs to shard " + std::to_string(owner));
    if (!mig_await_done_.empty())
      throw ServiceError(ServiceErrc::Draining, 0,
                         id.display() + " awaiting migration hand-off");
    // Owned, window closed, not resident: fall through to the store's
    // definitive UnknownKey.
  }

  // ---- decryption path ----------------------------------------------------

  /// Reader-side stage: decode + shard-check + park in the batcher. Returns
  /// false when the reader should exit (connection dead or server stopping).
  bool enqueue_dec(const std::shared_ptr<transport::Conn>& conn, transport::Frame f) {
    try {
      if (draining_stop_.load()) {
        send_err(*conn, f, ServiceErrc::Shutdown, "server shutting down");
        return true;
      }
      KsRequest req = decode_ks(f);
      check_owned(req.id);
      KsDecJob job;
      job.id = std::move(req.id);
      job.epoch = req.epoch;
      job.payload = std::move(req.payload);
      job.conn = conn;
      job.session = f.session;
      job.trace_id = f.trace_id;
      job.parent_span = f.parent_span;
      job.enq = std::chrono::steady_clock::now();
      if (req.deadline_ms != 0)
        job.deadline = job.enq + std::chrono::milliseconds(req.deadline_ms);
      switch (batcher_.try_submit(job)) {
        case service::BatchCollector<KsDecJob>::Submit::Ok:
          return true;
        case service::BatchCollector<KsDecJob>::Submit::Stopped:
          try {
            send_err(*conn, f, ServiceErrc::Shutdown, "server shutting down");
          } catch (...) {
          }
          return false;
        case service::BatchCollector<KsDecJob>::Submit::Full: {
          // Reader never blocks on a saturated batch queue (DESIGN.md §13):
          // shed BEFORE any crypto was spent, with the estimated backlog
          // drain time as the retry floor.
          const std::size_t depth = batcher_.queued();
          gov_.count_shed_overload();
          shed_event("cause=batch-full depth=" + std::to_string(depth),
                     gov_.shed_overload());
          send_err(*conn, f, ServiceErrc::Overloaded, "decrypt queue full",
                   gov_.retry_after_ms(depth));
          return true;
        }
      }
      return true;
    } catch (const ServiceError& e) {
      try {
        send_err(*conn, f, e);
      } catch (...) {
      }
      return true;
    } catch (const transport::TransportError&) {
      return false;
    } catch (const std::exception& e) {
      try {
        send_err(*conn, f, ServiceErrc::Internal, e.what());
      } catch (...) {
      }
      return true;
    }
  }

  void crypto_loop() {
    for (;;) {
      auto batch = batcher_.collect();
      if (batch.empty()) return;  // stopped and drained
      process_batch(batch);
    }
  }

  /// Crypto + encode stages for one micro-batch: group by key, serve each
  /// group through one DecSession (one shared entry lock + one recode),
  /// then demultiplex the replies per connection with coalesced sends.
  void process_batch(std::vector<KsDecJob>& batch) {
    batch_size_hist().observe(static_cast<double>(batch.size()));
    const auto now = std::chrono::steady_clock::now();
    for (const auto& j : batch)
      queue_wait_hist().observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(now - j.enq).count()));

    struct Out {
      Bytes body;
      const char* label = nullptr;  // reply label; nullptr -> error frame
      ServiceErrc errc = ServiceErrc::BadRequest;
      std::uint64_t err_epoch = 0;
      std::string err;
      std::uint64_t stamp_trace = 0;
      std::uint64_t stamp_span = 0;
    };
    std::vector<Out> outs(batch.size());

    // Group batch indices by key, preserving arrival order within a group.
    // A job whose deadline budget expired while queued is dropped HERE,
    // before any pairing/exponentiation is spent on an answer the client
    // already gave up on (DESIGN.md §13).
    std::size_t ran = 0;
    std::vector<std::pair<const KeyId*, std::vector<std::size_t>>> groups;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline != std::chrono::steady_clock::time_point{} &&
          now >= batch[i].deadline) {
        gov_.count_shed_deadline();
        outs[i].errc = ServiceErrc::DeadlineExceeded;
        outs[i].err_epoch = default_epoch();
        outs[i].err = "deadline expired in queue";
        continue;
      }
      ++ran;
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto& g) { return *g.first == batch[i].id; });
      if (it == groups.end()) {
        groups.push_back({&batch[i].id, {i}});
      } else {
        it->second.push_back(i);
      }
    }

    // The batch already spreads over the crypto workers; with more than one
    // request in hand, per-request fan-out would just oversubscribe.
    const auto crypto_t0 = std::chrono::steady_clock::now();
    service::FanoutSuppressGuard fanout_guard(batch.size() > 1);
    for (auto& [id, idxs] : groups) {
      try {
        auto session = store_.dec_session(*id);
        for (const std::size_t i : idxs) {
          auto& j = batch[i];
          telemetry::ScopedSpan span("ks.dec",
                                     telemetry::TraceContext{j.trace_id, j.parent_span});
          try {
            auto out = session.run(j.epoch, j.payload);
            outs[i].body =
                encode_ks_dec_ok({std::move(out.reply), out.spent_millibits, out.budget_millibits});
            outs[i].label = kKsDecOk;
          } catch (const ServiceError& e) {
            outs[i].errc = e.code();
            outs[i].err_epoch = e.server_epoch();
            outs[i].err = e.detail();
          } catch (const std::exception& e) {
            outs[i].errc = ServiceErrc::Internal;
            outs[i].err_epoch = default_epoch();
            outs[i].err = e.what();
          }
          const auto ctx = telemetry::Tracer::global().current();
          if (ctx.active()) {
            outs[i].stamp_trace = ctx.trace_id;
            outs[i].stamp_span = ctx.span_id;
          }
        }
      } catch (const ServiceError& e) {
        for (const std::size_t i : idxs) {
          outs[i].errc = e.code();
          outs[i].err_epoch = e.server_epoch();
          outs[i].err = e.detail();
        }
      } catch (const std::exception& e) {
        for (const std::size_t i : idxs) {
          outs[i].errc = ServiceErrc::Internal;
          outs[i].err_epoch = default_epoch();
          outs[i].err = e.what();
        }
      }
    }
    if (ran > 0 && opt_.inject_crypto_delay.count() > 0)
      std::this_thread::sleep_for(opt_.inject_crypto_delay);
    if (ran > 0)
      gov_.record_batch(ran, std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - crypto_t0)
                                 .count());
    // Demultiplex: one frame list per connection, sent with one syscall.
    const auto encode_now = std::chrono::steady_clock::now();
    for (const auto& j : batch) slow_request_since(j.enq, encode_now);
    std::vector<std::pair<transport::Conn*, std::vector<transport::Frame>>> by_conn;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& j = batch[i];
      auto& o = outs[i];
      // Second deadline check: the crypto is sunk cost, but a reply the
      // client has stopped waiting for still costs encode + send + client
      // demux confusion -- convert it to the typed error instead.
      if (o.label != nullptr && j.deadline != std::chrono::steady_clock::time_point{} &&
          encode_now >= j.deadline) {
        gov_.count_shed_deadline();
        o.label = nullptr;
        o.errc = ServiceErrc::DeadlineExceeded;
        o.err_epoch = default_epoch();
        o.err = "deadline expired before encode";
      }
      transport::Frame out;
      if (o.label != nullptr) {
        requests_counter().add();
        out = transport::Frame{j.session, transport::FrameType::Data,
                               static_cast<std::uint8_t>(net::DeviceId::P2), o.label,
                               std::move(o.body)};
      } else {
        out = error_frame(j.session, o.errc, o.err_epoch, o.err);
      }
      if (j.trace_id != 0) {
        out.trace_id = o.stamp_trace != 0 ? o.stamp_trace : j.trace_id;
        out.parent_span = o.stamp_trace != 0 ? o.stamp_span : j.parent_span;
      }
      auto it = std::find_if(by_conn.begin(), by_conn.end(),
                             [&](const auto& g) { return g.first == j.conn.get(); });
      if (it == by_conn.end()) {
        by_conn.push_back({j.conn.get(), {}});
        it = std::prev(by_conn.end());
      }
      it->second.push_back(std::move(out));
    }
    for (auto& [conn, frames] : by_conn) {
      try {
        conn->send_many(frames);
      } catch (const transport::TransportError&) {
        // That client is gone; the other connections' replies still went out.
      }
    }
  }

  static telemetry::Histogram& batch_size_hist() {
    static telemetry::Histogram& h = telemetry::Registry::global().histogram(
        "svc.batch.size", {1, 2, 4, 8, 16, 32, 64});
    return h;
  }
  /// Each request's time in the collector's queue, from enqueue to the
  /// start of its batch.
  static telemetry::Histogram& queue_wait_hist() {
    static telemetry::Histogram& h = telemetry::Registry::global().histogram(
        "svc.batch.wait_us", {25, 50, 100, 200, 400, 800, 1600, 5000});
    return h;
  }

  void handle(transport::Conn& conn, transport::Frame f) {
    try {
      if (draining_stop_.load()) {
        send_err(conn, f, ServiceErrc::Shutdown, "server shutting down");
        return;
      }
      if (f.label == kKsRef) {
        handle_ref(conn, f);
      } else if (f.label == kKsRefCommit) {
        handle_ref_commit(conn, f);
      } else if (f.label == kKsHello) {
        handle_hello(conn, f);
      } else if (f.label == kKsPut) {
        handle_put(conn, f);
      } else if (f.label == kKsMap) {
        // Encode under map_mu_ but send outside it: a connection blocked in
        // send() must not stall check_owned()/set_shard_map() on other workers.
        Bytes body;
        {
          std::lock_guard lk(map_mu_);
          body = map_.encode();
        }
        reply_data(conn, f, kKsMapOk, std::move(body));
      } else if (f.label == kKsMapPropose) {
        handle_map_propose(conn, f);
      } else if (f.label == kKsMigOffer) {
        handle_mig_offer(conn, f);
      } else if (f.label == kKsMigCommit) {
        handle_mig_commit(conn, f);
      } else if (f.label == kKsMigDone) {
        handle_mig_done(conn, f);
      } else {
        send_err(conn, f, ServiceErrc::BadRequest, "unknown label '" + f.label + "'");
      }
    } catch (const MigrationHalt& e) {
      // Test-injected "crash after durable step": park every migration
      // surface (driver + routes) until the process is restarted.
      mig_halted_.store(true);
      try {
        send_err(conn, f, ServiceErrc::Internal, e.what());
      } catch (...) {
      }
    } catch (const ServiceError& e) {
      try {
        send_err(conn, f, e);
      } catch (...) {
      }
    } catch (const transport::TransportError&) {
      // Response could not be delivered (client gone).
    } catch (const std::exception& e) {
      try {
        send_err(conn, f, ServiceErrc::Internal, e.what());
      } catch (...) {
      }
    }
  }

  void handle_ref(transport::Conn& conn, const transport::Frame& f) {
    telemetry::ScopedSpan span("ks.refresh",
                               telemetry::TraceContext{f.trace_id, f.parent_span});
    KsRequest req = decode_ks(f);
    check_owned(req.id);
    if (maybe_shed_refresh(conn, f, req.id)) return;
    reply_data(conn, f, kKsRefOk, store_.ref_prepare(req.id, req.epoch, req.payload));
  }

  void handle_ref_commit(transport::Conn& conn, const transport::Frame& f) {
    telemetry::ScopedSpan span("ks.refresh",
                               telemetry::TraceContext{f.trace_id, f.parent_span});
    KsRequest req = decode_ks(f);
    check_owned(req.id);
    reply_data(conn, f, kKsRefCommitOk,
               service::encode_commit_ok(store_.ref_commit(req.id, req.epoch, req.payload)));
  }

  void handle_hello(transport::Conn& conn, const transport::Frame& f) {
    KsHello kh;
    try {
      kh = decode_ks_hello(f.body);
    } catch (const std::exception& e) {
      send_err(conn, f, ServiceErrc::BadRequest, e.what());
      return;
    }
    check_owned(kh.id);
    reply_data(conn, f, kKsHelloOk, service::encode_hello_ok(store_.hello(kh.id, kh.hello)));
  }

  void handle_put(transport::Conn& conn, const transport::Frame& f) {
    KsPut p;
    try {
      p = decode_ks_put(f.body);
    } catch (const std::exception& e) {
      send_err(conn, f, ServiceErrc::BadRequest, e.what());
      return;
    }
    check_owned(p.id);
    try {
      ByteReader sr(p.sk2_ser);
      store_.put(p.id, Core::deser_sk2(store_gg(), sr));
    } catch (const std::exception& e) {
      send_err(conn, f, ServiceErrc::BadRequest, e.what());
      return;
    }
    reply_data(conn, f, kKsPutOk, {});
  }

  // ---- live resharding: wire handlers (DESIGN.md §14) -------------------

  /// ks.migrate.* and ks.map.propose refuse to advance the protocol while a
  /// simulated crash is in effect -- to the peer this shard IS down.
  void check_not_halted() const {
    if (mig_halted_.load())
      throw ServiceError(ServiceErrc::Internal, 0, "migration machinery halted");
  }

  void handle_map_propose(transport::Conn& conn, const transport::Frame& f) {
    check_not_halted();
    KsMapPropose p;
    ShardMap proposed;
    try {
      p = decode_ks_map_propose(f.body);
      proposed = ShardMap::decode(p.map_body);
    } catch (const std::exception& e) {
      send_err(conn, f, ServiceErrc::BadRequest, e.what());
      return;
    }
    if (p.min_wire_version > service::kWireDeadlineVersion) {
      send_err(conn, f, ServiceErrc::BadRequest,
               "proposal requires wire version " + std::to_string(p.min_wire_version) +
                   "; this shard speaks " + std::to_string(service::kWireDeadlineVersion));
      return;
    }
    const std::size_t outgoing = propose_map(std::move(proposed));
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(outgoing));
    reply_data(conn, f, kKsMapProposeOk, w.take());
  }

  void handle_mig_offer(transport::Conn& conn, const transport::Frame& f) {
    check_not_halted();
    KsMigrate m;
    try {
      m = decode_ks_migrate(f.body);
    } catch (const std::exception& e) {
      send_err(conn, f, ServiceErrc::BadRequest, e.what());
      return;
    }
    const Bytes digest =
        store_.stage_incoming(m.id, m.map_version, m.from_shard, m.blob, m.spent_millibits);
    reply_data(conn, f, kKsMigOfferOk, digest);
  }

  void handle_mig_commit(transport::Conn& conn, const transport::Frame& f) {
    check_not_halted();
    KsMigrate m;
    try {
      m = decode_ks_migrate(f.body);
    } catch (const std::exception& e) {
      send_err(conn, f, ServiceErrc::BadRequest, e.what());
      return;
    }
    store_.commit_incoming(m.id, m.blob, m.spent_millibits);
    mig_in_total_.fetch_add(1);
    telemetry::Registry::global().counter("ks.migrate.in").add();
    reply_data(conn, f, kKsMigCommitOk, {});
  }

  void handle_mig_done(transport::Conn& conn, const transport::Frame& f) {
    check_not_halted();
    KsMigDone d;
    try {
      d = decode_ks_mig_done(f.body);
    } catch (const std::exception& e) {
      send_err(conn, f, ServiceErrc::BadRequest, e.what());
      return;
    }
    {
      std::lock_guard lk(map_mu_);
      auto& seen = mig_done_seen_[d.from_shard];
      seen = std::max(seen, d.map_version);
      if (d.map_version >= mig_window_version_) mig_await_done_.erase(d.from_shard);
    }
    reply_data(conn, f, kKsMigDoneOk, {});
  }

  // ---- live resharding: driver ------------------------------------------

  /// Re-enqueue journaled mid-migration keys (called from start() and after
  /// a map install): Released keys resume commit-only against their recorded
  /// destination; Marked keys re-resolve against the current map.
  void resume_migrations() {
    std::size_t queued = 0;
    {
      std::lock_guard lk(mig_mu_);
      for (const auto& [id, st] : store_.migrating_keys())
        if (mig_queued_.insert(id).second) {
          mig_queue_.push_back(id);
          ++queued;
        }
    }
    if (queued > 0) {
      telemetry::Registry::global().counter("ks.migrate.resumes").add(queued);
      mig_cv_.notify_all();
    }
  }

  /// The retry-forever migration driver: one key at a time, transient errors
  /// (destination down, transport cut) put the key back on the queue; a
  /// MigrationHalt from a crash hook parks everything. Once the queue drains,
  /// broadcast ks.migrate.done so peers can close their reshard windows.
  void migrate_loop() {
    std::unique_lock lk(mig_mu_);
    for (;;) {
      mig_cv_.wait_for(lk, std::chrono::milliseconds(50), [this] {
        return mig_stop_ || (!mig_halted_.load() &&
                             (!mig_queue_.empty() || mig_broadcast_pending_));
      });
      if (mig_stop_) return;
      if (mig_halted_.load()) continue;
      if (!mig_queue_.empty()) {
        KeyId id = mig_queue_.front();
        mig_queue_.pop_front();
        lk.unlock();
        bool finished = false;
        try {
          migrate_one(id);
          finished = true;
        } catch (const MigrationHalt&) {
          mig_halted_.store(true);
          finished = true;  // parked; a restart rescans the journal
        } catch (const std::exception&) {
          telemetry::Registry::global().counter("ks.migrate.retries").add();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        lk.lock();
        if (finished)
          mig_queued_.erase(id);
        else
          mig_queue_.push_back(id);  // still in mig_queued_: dedupe holds
        telemetry::Registry::global()
            .gauge("ks.migrate.backlog")
            .set(static_cast<double>(mig_queued_.size()));
        continue;
      }
      if (mig_broadcast_pending_) {
        lk.unlock();
        const bool all_acked = broadcast_done();
        lk.lock();
        if (all_acked) {
          mig_broadcast_pending_ = false;
        } else {
          // An unreachable peer keeps the broadcast pending until the next
          // 50 ms tick; queued keys and stop() cut the wait short.
          mig_cv_.wait_for(lk, std::chrono::milliseconds(50), [this] {
            return mig_stop_ || (!mig_halted_.load() && !mig_queue_.empty());
          });
        }
      }
    }
  }

  /// One key's full hand-off. Every step is idempotent, so this is safe to
  /// re-run from any crash point: a Released key skips the offer (release
  /// only ever happens after a durable stage ack, and re-offering could race
  /// a destination that is already serving + refreshing the key).
  void migrate_one(const KeyId& id) {
    const auto st = store_.mig_status(id);
    if (st.state == MigState::Staged) return;  // incoming copy, not ours to move
    std::uint64_t ver = st.map_version;
    std::uint32_t dest = st.dest;
    if (st.state != MigState::Released) {
      const ShardMap snap = shard_map();
      if (snap.empty()) return;  // resumes when a map is installed
      ver = snap.version();
      dest = snap.owner(id);
      if (dest == opt_.shard_id) {
        store_.unmark_migrating(id);  // the map keeps (or gave back) this key
        return;
      }
      store_.mark_migrating(id, ver, dest);
      const auto exp = store_.export_migrating(id);
      const Bytes acked = peer_call(
          dest, kKsMigOffer,
          encode_ks_migrate({ver, opt_.shard_id, id, exp.spent_millibits, exp.state}),
          kKsMigOfferOk);
      if (acked != exp.digest)
        throw ServiceError(ServiceErrc::Internal, 0,
                           "offer ack digest mismatch for " + id.display());
    }
    const std::uint64_t spent = store_.release_migrating(id);
    const auto exp = store_.export_migrating(id);
    (void)peer_call(dest, kKsMigCommit,
                    encode_ks_migrate({ver, opt_.shard_id, id, spent, exp.digest}),
                    kKsMigCommitOk);
    store_.finalize_migrated(id);
    mig_out_total_.fetch_add(1);
    telemetry::Registry::global().counter("ks.migrate.out").add();
  }

  /// Tell every shard of the proposed map that this shard has no more
  /// outgoing keys. Unreachable peers keep the broadcast pending; the driver
  /// retries on its 50 ms tick.
  bool broadcast_done() {
    std::map<std::uint32_t, std::uint64_t> targets;
    {
      std::lock_guard lk(mig_mu_);
      targets = mig_done_targets_;
    }
    bool all = true;
    for (const auto& [shard, owed] : targets) {
      try {
        (void)peer_call(shard, kKsMigDone, encode_ks_mig_done(owed, opt_.shard_id),
                        kKsMigDoneOk);
        std::lock_guard lk(mig_mu_);
        // A racing propose may have bumped what we owe this peer after the
        // snapshot above; delivering the stale version must not retire the
        // target or the peer's new window never hears from us.
        if (auto it = mig_done_targets_.find(shard);
            it != mig_done_targets_.end() && it->second <= owed)
          mig_done_targets_.erase(it);
      } catch (const std::exception&) {
        all = false;
      }
    }
    if (all) {
      std::lock_guard lk(mig_mu_);
      all = mig_done_targets_.empty();
    }
    return all;
  }

  /// Lazily-connected peer mux (shard-to-shard lane), replaced on transport
  /// failure by peer_call.
  [[nodiscard]] std::shared_ptr<transport::SessionMux> peer_mux(std::uint32_t shard) {
    {
      std::lock_guard lk(peer_mu_);
      const auto it = peer_muxes_.find(shard);
      if (it != peer_muxes_.end()) return it->second;
    }
    std::uint16_t port = 0;
    {
      std::lock_guard lk(map_mu_);
      const ShardInfo* s = map_.shard(shard);
      if (!s)
        throw ServiceError(ServiceErrc::Internal, 0,
                           "no address for peer shard " + std::to_string(shard));
      port = s->port;
    }
    // A refused peer is down or has moved: migrate_loop retries on the
    // TransportError (the key goes back on the queue, a broadcast waits for
    // the next tick).
    auto fc = std::make_shared<transport::FramedConn>(transport::connect_loopback(port));
    auto m = std::make_shared<transport::SessionMux>(
        std::static_pointer_cast<transport::Conn>(std::move(fc)));
    std::lock_guard lk(peer_mu_);
    const auto [it, inserted] = peer_muxes_.emplace(shard, m);
    if (!inserted) {
      m->stop();
      return it->second;
    }
    return m;
  }

  /// One request/response to a peer shard. Transport failure drops the lane
  /// (next call reconnects, picking up a restarted peer's new port from the
  /// re-proposed map) and rethrows for the driver's requeue.
  [[nodiscard]] Bytes peer_call(std::uint32_t shard, const char* label, const Bytes& body,
                                const char* ok_label) {
    auto m = peer_mux(shard);
    try {
      auto sess = m->open();
      sess->send(transport::FrameType::Data, static_cast<std::uint8_t>(net::DeviceId::P2),
                 label, body);
      // Short relative to the client-facing 10 s default: migration frames
      // are small and peer shards are one loopback hop away, so a stuck
      // peer should requeue the key quickly instead of pinning the driver.
      return service::expect_ok(sess->recv(transport::Millis{2000}), ok_label);
    } catch (const transport::TransportError&) {
      std::lock_guard lk(peer_mu_);
      const auto it = peer_muxes_.find(shard);
      if (it != peer_muxes_.end() && it->second == m) {
        it->second->stop();
        peer_muxes_.erase(it);
      }
      throw;
    }
  }

  [[nodiscard]] KsRequest decode_ks(const transport::Frame& f) const {
    try {
      return decode_ks_request(f.body);
    } catch (const std::exception& e) {
      throw ServiceError(ServiceErrc::BadRequest, default_epoch(), e.what());
    }
  }

  /// The store's group, for deserializing ks.put payloads.
  [[nodiscard]] const GG& store_gg() const { return store_.gg(); }

  static void stamp_reply(transport::Frame& out, const transport::Frame& req) {
    if (req.trace_id == 0) return;
    const auto ctx = telemetry::Tracer::global().current();
    out.trace_id = ctx.active() ? ctx.trace_id : req.trace_id;
    out.parent_span = ctx.active() ? ctx.span_id : req.parent_span;
  }

  void reply_data(transport::Conn& conn, const transport::Frame& req, const char* label,
                  Bytes body) {
    transport::Frame out{req.session, transport::FrameType::Data,
                         static_cast<std::uint8_t>(net::DeviceId::P2), label,
                         std::move(body)};
    stamp_reply(out, req);
    conn.send(out);
  }

  /// The epoch an error reply carries when no key's own state raised it:
  /// the default key's, 0 if the store does not hold one.
  [[nodiscard]] std::uint64_t default_epoch() const {
    return store_.epoch_or_zero(default_key_id());
  }

  /// An svc.err frame. Every StaleEpoch or Draining answer counts in
  /// svc.stale: a request a refresh's epoch change turned away.
  static transport::Frame error_frame(std::uint32_t session, ServiceErrc code,
                                      std::uint64_t server_epoch, const std::string& msg,
                                      std::uint32_t retry_after_ms = 0) {
    if (code == ServiceErrc::StaleEpoch || code == ServiceErrc::Draining) stale_counter().add();
    return transport::Frame{session, transport::FrameType::Error,
                            static_cast<std::uint8_t>(net::DeviceId::P2), service::kLabelErr,
                            service::encode_error(code, server_epoch, msg, retry_after_ms)};
  }

  void send_err(transport::Conn& conn, const transport::Frame& req, const ServiceError& e) {
    transport::Frame out = error_frame(req.session, e.code(), e.server_epoch(), e.detail(),
                                       e.retry_after_ms());
    stamp_reply(out, req);
    conn.send(out);
  }

  void send_err(transport::Conn& conn, const transport::Frame& req, ServiceErrc code,
                const std::string& msg, std::uint32_t retry_after_ms = 0) {
    send_err(conn, req, ServiceError(code, default_epoch(), msg, retry_after_ms));
  }

  /// SlowRequest event for a decryption whose server-side handling began at
  /// t0 and ended at `now`, rate-limited like shed_event.
  void slow_request_since(std::chrono::steady_clock::time_point t0,
                          std::chrono::steady_clock::time_point now) {
    const double ms = std::chrono::duration<double, std::milli>(now - t0).count();
    if (ms <= kSlowRequestMs) return;
    const std::uint64_t nth = slow_requests_.fetch_add(1) + 1;
    if (nth % 256 == 1)
      telemetry::event(telemetry::EventKind::SlowRequest,
                       "ms=" + std::to_string(ms) + " threshold=" +
                           std::to_string(kSlowRequestMs) + " n=" + std::to_string(nth));
  }

  /// svc.requests: every decryption answered ok, for every key.
  static telemetry::Counter& requests_counter() {
    static telemetry::Counter& c = telemetry::Registry::global().counter("svc.requests");
    return c;
  }

  static telemetry::Counter& stale_counter() {
    static telemetry::Counter& c = telemetry::Registry::global().counter("svc.stale");
    return c;
  }

  /// Rate-limited Shed event (every 256th): sustained overload must not
  /// evict the rare events (breaker transitions, epoch changes) from the
  /// bounded ring a post-mortem actually needs.
  static void shed_event(const std::string& detail, std::uint64_t nth) {
    if (nth % 256 == 1)
      telemetry::event(telemetry::EventKind::Shed, detail + " n=" + std::to_string(nth));
  }

  /// Graceful degradation (DESIGN.md §13): past the high-water mark,
  /// background refresh PREPAREs yield their worker time to decrypts --
  /// EXCEPT for a key whose leakage budget is nearly spent
  /// (spent_frac >= refresh_shed_floor): its refresh is the one background
  /// job that must not wait, because shedding it converts an availability
  /// problem into a leakage-tolerance problem. Commits are never shed: they
  /// finish an already-paid-for 2PC and release the drain barrier.
  /// Returns true when the prepare was shed (error already sent).
  bool maybe_shed_refresh(transport::Conn& conn, const transport::Frame& f,
                          const KeyId& id) {
    const std::size_t depth = batcher_.queued() + (pool_ ? pool_->queued() : 0);
    if (!gov_.degraded(depth)) return false;
    double frac = 0.0;
    try {
      frac = store_.spent_frac(id);
    } catch (const std::exception&) {
      // Unknown key: let the prepare proceed and fail with the typed error.
      return false;
    }
    if (frac >= opt_.refresh_shed_floor) return false;  // leakage floor: serve it
    gov_.count_shed_refresh();
    shed_event("cause=degraded label=" + f.label + " key=" + id.display() +
                   " depth=" + std::to_string(depth),
               gov_.shed_refresh());
    send_err(conn, f, ServiceErrc::Overloaded, "degraded: refresh deprioritized",
             gov_.retry_after_ms(depth));
    return true;
  }

  Options opt_;
  Store store_;
  service::BatchCollector<KsDecJob> batcher_;
  service::OverloadGovernor gov_;
  std::vector<std::thread> crypto_threads_;
  mutable std::mutex map_mu_;
  ShardMap map_;
  // Reshard window, guarded by map_mu_: peers whose done broadcast we still
  // await (at mig_window_version_), plus the highest done version ever seen
  // per peer -- a done racing ahead of our own propose must still count.
  std::set<std::uint32_t> mig_await_done_;
  std::uint64_t mig_window_version_ = 0;
  std::map<std::uint32_t, std::uint64_t> mig_done_seen_;
  // Migration driver state, guarded by mig_mu_. mig_queued_ covers queued +
  // in-flight keys so propose/resume re-enqueues dedupe.
  mutable std::mutex mig_mu_;
  std::condition_variable mig_cv_;
  std::deque<KeyId> mig_queue_;
  std::unordered_set<KeyId, KeyIdHash> mig_queued_;
  /// Peers owed a ks.migrate.done broadcast -> the highest map version owed.
  std::map<std::uint32_t, std::uint64_t> mig_done_targets_;
  bool mig_broadcast_pending_ = false;
  bool mig_stop_ = false;
  std::thread mig_thread_;
  std::atomic<bool> mig_halted_{false};
  std::atomic<std::uint64_t> mig_out_total_{0};
  std::atomic<std::uint64_t> mig_in_total_{0};
  // Shard-to-shard connection per peer, guarded by peer_mu_.
  std::mutex peer_mu_;
  std::map<std::uint32_t, std::shared_ptr<transport::SessionMux>> peer_muxes_;
  transport::Listener listener_;
  std::unique_ptr<service::WorkerPool> pool_;
  std::unique_ptr<service::AdminServer> admin_;
  std::atomic<std::uint64_t> slow_requests_{0};  // decryptions over kSlowRequestMs
  std::chrono::steady_clock::time_point started_at_{};
  std::thread accept_thread_;
  std::thread compact_thread_;
  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool compact_stop_ = false;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<ConnState>> conns_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_stop_{false};
};

}  // namespace dlr::keystore
