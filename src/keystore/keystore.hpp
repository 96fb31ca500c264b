// KeyStore<GG> -- the multi-tenant share fleet behind one shard (DESIGN.md
// §11): (tenant, key-id) -> {DlrParty2 share, epoch machine, pending 2PC
// refresh, leakage budget}.
//
// Each key runs the two-phase epoch commit (DESIGN.md §9) INDEPENDENTLY:
// prepare / commit / hello reconciliation with dedup (duplicate prepares
// resend the journaled reply verbatim; a duplicate commit acks only when its
// digest is the one installed; a rolled-back digest is remembered so a stray
// prepare cannot resurrect it). The single-key server is the one-key case of
// the same store (its key is default_key_id()). A keystore entry has ONE
// shared_mutex: decryptions hold it shared (dec_respond is const), and so
// does PREPARE's crypto (DlrParty2::ref_prepare is const given a caller rng);
// PREPARE then takes it exclusive only to recheck and record its result, and
// commit/hello hold it exclusive -- acquiring the exclusive lock IS the
// drain barrier, since it waits out every in-flight reader of that key and
// only that key. Share mutations take the entry's gate before the exclusive
// lock, and new decryption sessions pass through it, so they wait out a
// waiting writer instead of keeping the reader-preferring lock busy.
//
// Persistence is one SegmentJournal for the whole store: every durable
// transition (put, prepare, commit, rollback) appends that key's full record
//
//   u64 epoch | blob sk2 | u8 has_pending [| u64 pepoch | blob digest
//                                          | blob next_sk2 | blob reply]
//             | blob rolled_back_digest
//             | u8 mig_state [| u64 map_version | u32 dest | u64 mig_spent]
//             | u64 installed_epoch | blob installed_digest
//
// and recovery is the journal's latest-seq-wins scan; records written before
// a trailing field existed still load (the field reads as absent). Lock
// order is entry.gate -> entry.mu -> journal-internal, never the reverse;
// the registry map lock (map_mu_) nests outside entry locks and is never
// held across crypto.
//
// Leakage accounting (Definition 3.2, service form): every decryption
// charges leak_per_dec_bits against the key's per-period budget_bits; a
// committed refresh starts a fresh period whose spent starts at the carry:
// the charge of every decryption served while that refresh was being
// prepared or sat prepared (P2's memory held the candidate share then), so
// those decryptions count in both periods. spent/budget ride on every
// ks.dec.ok so the client-side scheduler needs no extra round trips. Spent
// counts are deliberately NOT journaled -- a restart conservatively begins a
// fresh period; the share itself never leaks via the journal, which stores
// exactly what the device already stores.
//
// Telemetry: ks.keys (gauge), ks.recoveries, ks.dec / ks.refreshes /
// ks.rollbacks counters, leak.ks.max_spent_frac + leak.ks.over_threshold
// gauges refreshed by every candidates() sweep, and opt-in per-key
// counters ks.dec{tenant=..,key=..} (Options::per_key_metrics; see the
// cardinality note on telemetry::Labels).
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "keystore/key_id.hpp"
#include "keystore/scheduler.hpp"
#include "keystore/segment_journal.hpp"
#include "schemes/dlr.hpp"
#include "service/protocol.hpp"
#include "telemetry/events.hpp"
#include "telemetry/metrics.hpp"

namespace dlr::keystore {

/// Per-key live-resharding state (DESIGN.md §14). The hand-off is
/// single-writer by construction: a key serves on exactly one shard at any
/// instant, across crashes of either side.
///
///   source:       None -> Marked -> Released -> (tombstone, gone)
///   destination:  (absent) -> Staged -> None (serving)
///
/// Marked keys still decrypt (availability) but refuse every share mutation
/// (prepare/commit/hello -> retryable Draining), freezing the state the
/// offer ships. Released keys answer WrongShard; Staged keys answer
/// Draining until the source's durable release reaches them as a commit.
enum class MigState : std::uint8_t { None = 0, Marked = 1, Staged = 2, Released = 3 };

/// Thrown by a test-installed migration crash hook to simulate a process
/// kill immediately after a durable step. KsServer parks its migration
/// machinery (driver + ks.migrate.* routes) until the process is "restarted"
/// (the object recreated from its state dir), mirroring the compaction
/// crash matrix.
struct MigrationHalt : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <group::BilinearGroup GG>
class KeyStore {
 private:
  struct Entry;  // defined below; DecSession holds one by shared_ptr

 public:
  using Core = schemes::DlrCore<GG>;
  using ServiceErrc = service::ServiceErrc;
  using ServiceError = service::ServiceError;

  struct Options {
    /// Directory for the segmented journal; empty = volatile.
    std::string state_dir;
    SegmentJournal::Options journal{};
    /// Per-period leakage budget ℓ per key, in bits.
    double budget_bits = 128;
    /// Bits charged against the budget per decryption served.
    double leak_per_dec_bits = 1.0;
    /// Fraction of the budget at which a key becomes a refresh candidate.
    double refresh_threshold = 0.5;
    /// Mint per-key labeled counters (cardinality: one series per key!).
    bool per_key_metrics = false;
  };

  struct DecOut {
    Bytes reply;
    std::uint64_t spent_millibits = 0;
    std::uint64_t budget_millibits = 0;
  };

  KeyStore(GG gg, schemes::DlrParams prm, crypto::Rng rng, Options opt)
      : gg_(std::move(gg)), prm_(prm), rng_(std::move(rng)), opt_(std::move(opt)) {
    if (!opt_.state_dir.empty()) {
      journal_ = std::make_unique<SegmentJournal>(opt_.state_dir, opt_.journal);
      auto recovered = journal_->take_recovered();
      for (auto& [id, state] : recovered) restore_one(id, state);
      if (!recovered.empty()) {
        telemetry::Registry::global().counter("ks.recoveries").add(recovered.size());
        telemetry::event(telemetry::EventKind::JournalRecovery,
                         "side=ks keys=" + std::to_string(recovered.size()));
      }
    }
    publish_keys_gauge();
  }

  KeyStore(const KeyStore&) = delete;
  KeyStore& operator=(const KeyStore&) = delete;

  /// Provision (or re-provision at epoch 0) a key. Journals before the key
  /// becomes servable.
  void put(const KeyId& id, typename Core::Sk2 sk2) {
    auto entry = std::make_shared<Entry>(gg_, prm_, std::move(sk2), next_rng());
    {
      std::unique_lock lk(entry->mu);
      persist_locked(id, *entry);
    }
    {
      std::unique_lock mlk(map_mu_);
      keys_[id] = std::move(entry);
    }
    publish_keys_gauge();
  }

  /// Drop a key (tombstoned in the journal; gone after recovery too).
  void remove(const KeyId& id) {
    std::shared_ptr<Entry> entry;
    {
      std::unique_lock mlk(map_mu_);
      const auto it = keys_.find(id);
      if (it != keys_.end()) {
        entry = it->second;
        keys_.erase(it);
      }
    }
    if (entry) {
      // A concurrent ref_prepare/ref_commit/hello may still hold this entry's
      // shared_ptr. Taking the exclusive lock orders the tombstone after any
      // in-flight mutation's append, and marking the entry removed makes every
      // later persist_locked a no-op -- otherwise a newer-seq record would
      // follow the tombstone and latest-seq-wins recovery would resurrect the
      // key (with its share back on disk).
      std::unique_lock lk(entry->mu);
      entry->removed = true;
      if (journal_) journal_->tombstone(id);
    } else if (journal_) {
      journal_->tombstone(id);
    }
    publish_keys_gauge();
  }

  [[nodiscard]] bool contains(const KeyId& id) const {
    std::shared_lock mlk(map_mu_);
    return keys_.count(id) != 0;
  }

  [[nodiscard]] std::size_t size() const {
    std::shared_lock mlk(map_mu_);
    return keys_.size();
  }

  /// Decryption against ONE key, the only way the store decrypts: holds the
  /// entry's shared lock (concurrent with other keys' refreshes and this
  /// key's other sessions) and a recode-once DlrParty2::DecBatch across many
  /// run() calls, so a batch of requests pays one lock acquisition and one
  /// share-vector wNAF recoding instead of N. Each run() is DistDec round 2
  /// plus the budget charge: the epoch check comes first (a stale request
  /// charges nothing, whatever its payload), a malformed payload answers
  /// BadRequest, and replies are bit-identical to DlrParty2::dec_respond.
  /// Because the lock is held for the whole session, a refresh commit
  /// (exclusive lock) either drains before the session starts or waits until
  /// it ends: a session never observes an epoch change mid-batch.
  class DecSession {
   public:
    DecSession(DecSession&&) = default;

    [[nodiscard]] DecOut run(std::uint64_t epoch, const Bytes& round1) {
      if (epoch != e_->epoch)
        throw ServiceError(ServiceErrc::StaleEpoch, e_->epoch,
                           "request epoch " + std::to_string(epoch) + " != " +
                               std::to_string(e_->epoch));
      DecOut out;
      try {
        out.reply = batch_.run(round1);
      } catch (const std::exception& ex) {
        throw ServiceError(ServiceErrc::BadRequest, e_->epoch, ex.what());
      }
      out.spent_millibits = ks_->charge_locked(id_, *e_);
      out.budget_millibits = ks_->budget_millibits();
      return out;
    }

    [[nodiscard]] std::uint64_t epoch() const { return e_->epoch; }

   private:
    friend class KeyStore;
    DecSession(const KeyStore* ks, KeyId id, std::shared_ptr<Entry> e)
        : ks_(ks), id_(std::move(id)), e_(std::move(e)), lk_(reader_lock(*e_)),
          batch_(e_->p2.dec_batch()) {
      ks_->check_not_removed(id_, *e_);
      ks_->check_mig_decryptable(id_, *e_);
    }

    const KeyStore* ks_;
    KeyId id_;
    std::shared_ptr<Entry> e_;
    std::shared_lock<std::shared_mutex> lk_;
    typename schemes::DlrParty2<GG>::DecBatch batch_;
  };

  /// Open a batched-decryption session for one key. Throws UnknownKey if the
  /// key does not exist (or raced a remove()).
  [[nodiscard]] DecSession dec_session(const KeyId& id) const {
    return DecSession(this, id, find(id));
  }

  /// PREPARE: compute + journal the next share; serving state untouched.
  /// The crypto runs under the shared entry lock, beside this key's
  /// decryptions; the exclusive lock only rechecks the admission rules and
  /// records the result. Of two identical PREPAREs racing, the first to
  /// record wins and the other resends its reply.
  [[nodiscard]] Bytes ref_prepare(const KeyId& id, std::uint64_t epoch,
                                  const Bytes& round1) {
    auto e = find(id);
    const Bytes digest = crypto::digest_to_bytes(crypto::Sha256::hash(round1));
    typename schemes::DlrParty2<GG>::RefPrepared prep;
    {
      const auto lk = reader_lock(*e);
      if (auto dup = admit_prepare_locked(id, *e, epoch, digest)) return *dup;
      crypto::Rng rng = fork_rng();
      e->preparing.fetch_add(1);
      try {
        prep = e->p2.ref_prepare(round1, rng);
      } catch (const std::exception& ex) {
        e->preparing.fetch_sub(1);
        throw ServiceError(ServiceErrc::BadRequest, e->epoch, ex.what());
      }
      e->preparing.fetch_sub(1);
    }
    ExclusiveLock lk(*e);
    if (auto dup = admit_prepare_locked(id, *e, epoch, digest)) return *dup;
    const Bytes reply = prep.reply;
    e->pending.emplace();
    e->pending->epoch = epoch;
    e->pending->digest = digest;
    e->pending->next = std::move(prep.next);
    e->pending->reply = std::move(prep.reply);
    persist_locked(id, *e);
    telemetry::event(telemetry::EventKind::EpochPrepare,
                     "key=" + id.display() + " epoch=" + std::to_string(epoch));
    return reply;
  }

  /// COMMIT: install the pending share, persist, bump the epoch, start the
  /// next leakage period at the carry. The exclusive lock drains this key's
  /// in-flight decryptions; the gate holds new ones back meanwhile. A
  /// duplicate commit acks only if its digest is the installed one: a
  /// refresher whose PREPARE another one superseded gets StaleEpoch, never
  /// an ack for a share that was not installed.
  std::uint64_t ref_commit(const KeyId& id, std::uint64_t epoch, const Bytes& digest) {
    auto e = find(id);
    ExclusiveLock lk(*e);
    check_not_removed(id, *e);
    check_mig_mutable(id, *e);
    if (!e->pending || e->pending->epoch != epoch || e->pending->digest != digest) {
      if (e->epoch == epoch + 1 && installed_matches(*e, epoch, digest))
        return e->epoch;  // duplicate of the installed commit
      throw ServiceError(ServiceErrc::StaleEpoch, e->epoch, "no matching prepared refresh");
    }
    e->p2.ref_install(std::move(e->pending->next));
    e->pending.reset();
    e->installed_epoch = epoch;
    e->installed_digest = digest;
    ++e->epoch;
    // Fresh period: the decryptions served while this refresh was prepared
    // are charged to it as well.
    e->spent_millibits.store(e->carry_millibits.exchange(0));
    // Persist BEFORE returning the ack: once the client sees commit.ok it
    // installs its own half, so this install must never be forgotten.
    persist_locked(id, *e);
    refreshes_counter().add();
    telemetry::event(telemetry::EventKind::EpochCommit,
                     "key=" + id.display() + " epoch=" + std::to_string(e->epoch));
    return e->epoch;
  }

  /// Reconnect reconciliation for ONE key (DESIGN.md §9 verdict table):
  /// Commit iff we installed the client's pending refresh, Rollback if we
  /// never did, fork errors otherwise.
  [[nodiscard]] service::HelloOk hello(const KeyId& id, const service::HelloMsg& h) {
    auto e = find(id);
    ExclusiveLock lk(*e);
    check_not_removed(id, *e);
    check_mig_mutable(id, *e);
    service::HelloOk ok;
    ok.server_epoch = e->epoch;
    if (h.has_pending) {
      if (e->epoch == h.pending_epoch + 1) {
        if (!installed_matches(*e, h.pending_epoch, h.pending_digest))
          throw ServiceError(ServiceErrc::Internal, e->epoch,
                             "epoch fork: client pending digest for epoch " +
                                 std::to_string(h.pending_epoch) +
                                 " is not the installed refresh");
        ok.disposition = service::RefDisposition::Commit;
      } else if (e->epoch == h.pending_epoch) {
        const bool had_pending = e->pending.has_value();
        e->pending.reset();
        e->carry_millibits.store(0);
        e->rolled_back_digest = h.pending_digest;
        // Persist AFTER recording the digest (and even when we held no
        // pending): the no-resurrect guarantee must survive a crash, since a
        // delayed duplicate of the old prepare can arrive after restart.
        persist_locked(id, *e);
        if (had_pending)
          telemetry::event(telemetry::EventKind::EpochRollback,
                           "key=" + id.display() + " epoch=" + std::to_string(e->epoch));
        rollbacks_counter().add();
        ok.disposition = service::RefDisposition::Rollback;
      } else {
        throw ServiceError(ServiceErrc::Internal, e->epoch,
                           "epoch fork: client pending " + std::to_string(h.pending_epoch) +
                               ", server " + std::to_string(e->epoch));
      }
    } else {
      if (e->pending) {
        e->pending.reset();
        e->carry_millibits.store(0);
        persist_locked(id, *e);
        rollbacks_counter().add();
      }
      if (e->epoch != h.epoch)
        throw ServiceError(ServiceErrc::Internal, e->epoch,
                           "epoch fork: client " + std::to_string(h.epoch) + ", server " +
                               std::to_string(e->epoch));
      ok.disposition = service::RefDisposition::None;
    }
    return ok;
  }

  /// Keys at/above the refresh threshold, for the scheduler's Source. Also
  /// refreshes the aggregate leak.ks.* gauges (this IS the sweep).
  [[nodiscard]] std::vector<RefreshScheduler::Candidate> candidates() const {
    std::vector<RefreshScheduler::Candidate> out;
    double max_frac = 0;
    {
      std::shared_lock mlk(map_mu_);
      for (const auto& [id, e] : keys_) {
        // Mid-migration keys are skipped: the scheduler must not refresh a
        // share whose state is frozen for shipping (or not yet serving).
        if (e->mig.load() != 0) continue;
        const double frac = static_cast<double>(e->spent_millibits.load()) /
                            static_cast<double>(budget_millibits());
        max_frac = std::max(max_frac, frac);
        if (frac >= opt_.refresh_threshold) out.push_back({id, frac});
      }
    }
    auto& reg = telemetry::Registry::global();
    reg.gauge("leak.ks.max_spent_frac").set(max_frac);
    reg.gauge("leak.ks.over_threshold").set(static_cast<double>(out.size()));
    return out;
  }

  /// The key's epoch. Neither accessor takes the entry lock (the atomic is
  /// only written under the exclusive one), so an error reply or a health
  /// scrape can read it while a commit holds the entry, or while its own
  /// thread holds a DecSession on it.
  [[nodiscard]] std::uint64_t epoch_of(const KeyId& id) const { return find(id)->epoch.load(); }

  /// The key's epoch, 0 if the store does not hold it.
  [[nodiscard]] std::uint64_t epoch_or_zero(const KeyId& id) const {
    const auto e = find_opt(id);
    return e ? e->epoch.load() : 0;
  }

  [[nodiscard]] double spent_frac(const KeyId& id) const {
    auto e = find(id);
    return static_cast<double>(e->spent_millibits.load()) /
           static_cast<double>(budget_millibits());
  }

  [[nodiscard]] bool has_pending(const KeyId& id) const {
    auto e = find(id);
    std::shared_lock lk(e->mu);
    return e->pending.has_value();
  }

  /// The key's current P2 share (tests: msk-constancy checks).
  [[nodiscard]] typename Core::Sk2 share_for_test(const KeyId& id) const {
    auto e = find(id);
    std::shared_lock lk(e->mu);
    return e->p2.share();
  }

  /// SHA-256 over every key's (tenant, key, epoch, share), sorted -- the
  /// fleet-wide state fingerprint for crash-recovery verification.
  [[nodiscard]] Bytes digest_all() const {
    std::vector<std::pair<KeyId, Bytes>> rows;
    {
      std::shared_lock mlk(map_mu_);
      rows.reserve(keys_.size());
      for (const auto& [id, e] : keys_) {
        std::shared_lock lk(e->mu);
        ByteWriter w;
        w.str(id.tenant);
        w.str(id.key);
        w.u64(e->epoch);
        Core::ser_sk2(gg_, w, e->p2.share());
        rows.emplace_back(id, w.take());
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    crypto::Sha256 h;
    for (const auto& [id, bytes] : rows) h.update(bytes);
    return crypto::digest_to_bytes(h.finish());
  }

  // ---- live resharding (DESIGN.md §14) ----------------------------------
  //
  // The store owns the durable half of the hand-off: every transition below
  // journals the key's full record (now carrying a migration tail) BEFORE
  // firing the crash hook, so a test that kills the process at any hook
  // recovers to a state the protocol can resume from. KsServer owns the wire
  // half (offer/commit/done) and the retry-forever driver.

  /// One crash hook for every durable migration step ("mig.src_mark",
  /// "mig.src_release", "mig.src_done", "mig.dst_stage", "mig.dst_commit").
  /// Runs with the entry's exclusive lock held; a MigrationHalt thrown here
  /// simulates a kill right after the fsync.
  void set_migration_hook(std::function<void(const char*)> hook) {
    mig_hook_ = std::move(hook);
  }

  struct MigStatus {
    MigState state = MigState::None;
    std::uint64_t map_version = 0;
    std::uint32_t dest = 0;  // destination shard (source side) / origin (dest side)
  };

  struct MigExport {
    Bytes state;   // the key's journal record, sans migration tail
    Bytes digest;  // SHA-256 of state: the idempotency token
    std::uint64_t spent_millibits = 0;
  };

  /// How a request for `id` should be routed, cheap enough for the reader
  /// thread: one registry lookup + two atomics, no entry lock.
  enum class RouteState : std::uint8_t { Absent, Serving, Staged, Released };

  [[nodiscard]] RouteState route_state(const KeyId& id) const {
    std::shared_lock mlk(map_mu_);
    const auto it = keys_.find(id);
    if (it == keys_.end() || it->second->removed.load()) return RouteState::Absent;
    switch (static_cast<MigState>(it->second->mig.load())) {
      case MigState::Staged:
        return RouteState::Staged;
      case MigState::Released:
        return RouteState::Released;
      case MigState::None:
      case MigState::Marked:
        break;
    }
    return RouteState::Serving;
  }

  [[nodiscard]] bool serving(const KeyId& id) const {
    return route_state(id) == RouteState::Serving;
  }

  [[nodiscard]] MigStatus mig_status(const KeyId& id) const {
    std::shared_ptr<Entry> e = find_opt(id);
    if (!e) return {};
    std::shared_lock lk(e->mu);
    return {static_cast<MigState>(e->mig.load()), e->mig_map_version, e->mig_dest};
  }

  /// Every key id resident in the store (serving, staged, or released) --
  /// the proposal scan enumerates these against the new map.
  [[nodiscard]] std::vector<KeyId> key_ids() const {
    std::vector<KeyId> out;
    std::shared_lock mlk(map_mu_);
    out.reserve(keys_.size());
    for (const auto& [id, e] : keys_)
      if (!e->removed.load()) out.push_back(id);
    return out;
  }

  /// Keys with journaled mid-migration state (Marked/Released), for the
  /// driver's crash-restart resume.
  [[nodiscard]] std::vector<std::pair<KeyId, MigStatus>> migrating_keys() const {
    std::vector<std::pair<KeyId, MigStatus>> out;
    std::shared_lock mlk(map_mu_);
    for (const auto& [id, e] : keys_) {
      const auto m = static_cast<MigState>(e->mig.load());
      if (m != MigState::Marked && m != MigState::Released) continue;
      std::shared_lock lk(e->mu);
      out.push_back({id, {m, e->mig_map_version, e->mig_dest}});
    }
    return out;
  }

  /// Source step 1: durably mark the key as migrating to `dest` under
  /// `map_version`. Decryptions keep serving; every share mutation now gets
  /// the retryable Draining, freezing the state the offer will ship (plus
  /// the spent counter, which stays live until release). Idempotent; a
  /// Released key accepts only its own (version, dest) -- release is the
  /// point of no return.
  void mark_migrating(const KeyId& id, std::uint64_t map_version, std::uint32_t dest) {
    auto e = find(id);
    std::unique_lock lk(e->mu);
    check_not_removed(id, *e);
    const auto m = static_cast<MigState>(e->mig.load());
    if (m == MigState::Staged)
      throw ServiceError(ServiceErrc::Internal, e->epoch,
                         "mark_migrating on a staged (incoming) key " + id.display());
    if (m == MigState::Released) {
      if (e->mig_map_version == map_version && e->mig_dest == dest) return;
      throw ServiceError(ServiceErrc::Internal, e->epoch,
                         "re-mark of released key " + id.display() +
                             " with a different destination");
    }
    if (m == MigState::Marked && e->mig_map_version == map_version && e->mig_dest == dest)
      return;
    e->mig.store(static_cast<std::uint8_t>(MigState::Marked));
    e->mig_map_version = map_version;
    e->mig_dest = dest;
    e->mig_spent = e->spent_millibits.load();
    persist_locked(id, *e);
    mig_event("src_mark", id, map_version);
    fire_mig_hook("mig.src_mark");
  }

  /// The map no longer moves this key away: back to plain serving.
  void unmark_migrating(const KeyId& id) {
    auto e = find_opt(id);
    if (!e) return;
    std::unique_lock lk(e->mu);
    if (static_cast<MigState>(e->mig.load()) != MigState::Marked) return;
    e->mig.store(static_cast<std::uint8_t>(MigState::None));
    e->mig_map_version = 0;
    e->mig_dest = 0;
    persist_locked(id, *e);
  }

  /// Serialize the frozen share state for the ks.migrate.offer. Valid while
  /// Marked or Released; the digest doubles as the idempotency token on the
  /// destination.
  [[nodiscard]] MigExport export_migrating(const KeyId& id) const {
    auto e = find(id);
    std::shared_lock lk(e->mu);
    const auto m = static_cast<MigState>(e->mig.load());
    if (m != MigState::Marked && m != MigState::Released)
      throw ServiceError(ServiceErrc::Internal, e->epoch,
                         "export of non-migrating key " + id.display());
    MigExport out;
    out.state = ser_state_locked(*e);
    out.digest = crypto::digest_to_bytes(crypto::Sha256::hash(out.state));
    out.spent_millibits =
        m == MigState::Released ? e->mig_spent : e->spent_millibits.load();
    return out;
  }

  /// Source step 2 (cut-over): stop serving. The exclusive lock IS the drain
  /// barrier -- every in-flight decryption of this key finishes first. The
  /// final spent count is journaled with the record so a crashed source
  /// resends the commit with the exact budget position. Idempotent.
  std::uint64_t release_migrating(const KeyId& id) {
    auto e = find(id);
    ExclusiveLock lk(*e);
    check_not_removed(id, *e);
    const auto m = static_cast<MigState>(e->mig.load());
    if (m == MigState::Released) return e->mig_spent;
    if (m != MigState::Marked)
      throw ServiceError(ServiceErrc::Internal, e->epoch,
                         "release of unmarked key " + id.display());
    e->mig_spent = e->spent_millibits.load();
    e->mig.store(static_cast<std::uint8_t>(MigState::Released));
    persist_locked(id, *e);
    mig_event("src_release", id, e->mig_map_version);
    fire_mig_hook("mig.src_release");
    return e->mig_spent;
  }

  /// Source step 3: the destination acked the commit -- tombstone and forget.
  /// Requests now fall through to the map check, which names the new owner.
  void finalize_migrated(const KeyId& id) {
    auto e = find_opt(id);
    if (!e) return;  // duplicate finalize after a crash-restart
    {
      std::unique_lock lk(e->mu);
      if (static_cast<MigState>(e->mig.load()) != MigState::Released)
        throw ServiceError(ServiceErrc::Internal, e->epoch,
                           "finalize of unreleased key " + id.display());
      e->removed.store(true);
      if (journal_) journal_->tombstone(id);
    }
    {
      std::unique_lock mlk(map_mu_);
      keys_.erase(id);
    }
    publish_keys_gauge();
    mig_event("src_done", id, 0);
    fire_mig_hook("mig.src_done");
  }

  /// Destination step 1: journal the shipped record as Staged (resident but
  /// not serving -- requests answer Draining until the commit). Returns the
  /// state digest the ack carries. Idempotent by digest: a duplicate offer
  /// re-acks; a conflicting one is an Internal fork (state is frozen at the
  /// source while Marked, so it cannot legitimately differ).
  [[nodiscard]] Bytes stage_incoming(const KeyId& id, std::uint64_t map_version,
                                     std::uint32_t from_shard, const Bytes& state,
                                     std::uint64_t spent_millibits) {
    const Bytes digest = crypto::digest_to_bytes(crypto::Sha256::hash(state));
    if (auto existing = find_opt(id)) {
      std::unique_lock lk(existing->mu);
      if (!existing->removed.load()) {
        const Bytes have =
            crypto::digest_to_bytes(crypto::Sha256::hash(ser_state_locked(*existing)));
        if (have == digest) {
          if (static_cast<MigState>(existing->mig.load()) == MigState::Staged)
            existing->mig_map_version = map_version;
          return digest;  // duplicate offer (staged or already committed)
        }
        throw ServiceError(ServiceErrc::Internal, existing->epoch,
                           "conflicting migration offer for resident key " +
                               id.display());
      }
    }
    ByteReader r(state);
    auto entry = parse_state(r);
    if (r.remaining())
      throw ServiceError(ServiceErrc::BadRequest, 0,
                         "migrated state for " + id.display() + ": trailing bytes");
    entry->mig.store(static_cast<std::uint8_t>(MigState::Staged));
    entry->mig_map_version = map_version;
    entry->mig_dest = from_shard;
    entry->mig_spent = spent_millibits;
    entry->spent_millibits.store(spent_millibits);
    {
      std::unique_lock lk(entry->mu);
      persist_locked(id, *entry);
    }
    {
      std::unique_lock mlk(map_mu_);
      keys_[id] = std::move(entry);
    }
    publish_keys_gauge();
    mig_event("dst_stage", id, map_version);
    fire_mig_hook("mig.dst_stage");
    return digest;
  }

  /// Destination step 2: the source released durably -- start serving. The
  /// commit's spent count (frozen at release) replaces the offer-time
  /// snapshot, so the leakage period continues exactly where the source
  /// stopped charging it. Idempotent: an already-serving key re-acks.
  void commit_incoming(const KeyId& id, const Bytes& digest,
                       std::uint64_t spent_millibits) {
    auto e = find_opt(id);
    if (!e)
      throw ServiceError(ServiceErrc::Internal, 0,
                         "migration commit for unknown key " + id.display());
    std::unique_lock lk(e->mu);
    const auto m = static_cast<MigState>(e->mig.load());
    if (m == MigState::None) return;  // duplicate commit
    if (m != MigState::Staged)
      throw ServiceError(ServiceErrc::Internal, e->epoch,
                         "migration commit for unstaged key " + id.display());
    const Bytes have =
        crypto::digest_to_bytes(crypto::Sha256::hash(ser_state_locked(*e)));
    if (have != digest)
      throw ServiceError(ServiceErrc::Internal, e->epoch,
                         "migration commit digest mismatch for " + id.display());
    e->spent_millibits.store(spent_millibits);
    e->mig_spent = spent_millibits;
    e->mig.store(static_cast<std::uint8_t>(MigState::None));
    e->mig_map_version = 0;
    e->mig_dest = 0;
    persist_locked(id, *e);
    mig_event("dst_commit", id, 0);
    fire_mig_hook("mig.dst_commit");
  }

  /// Compact the journal if it has accumulated enough sealed segments.
  bool maybe_compact() { return journal_ ? journal_->maybe_compact() : false; }

  [[nodiscard]] SegmentJournal* journal() { return journal_.get(); }
  [[nodiscard]] const GG& gg() const { return gg_; }
  [[nodiscard]] const schemes::DlrParams& params() const { return prm_; }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] double refresh_threshold() const { return opt_.refresh_threshold; }

 private:
  struct Pending {
    std::uint64_t epoch = 0;
    Bytes digest;
    typename Core::Sk2 next;
    Bytes reply;
  };

  struct Entry {
    Entry(const GG& gg, schemes::DlrParams prm, typename Core::Sk2 sk2, crypto::Rng rng)
        : p2(gg, prm, std::move(sk2), std::move(rng)) {}
    mutable std::shared_mutex mu;
    schemes::DlrParty2<GG> p2;
    std::atomic<std::uint64_t> epoch{0};  // written under exclusive mu
    std::optional<Pending> pending;
    Bytes rolled_back_digest;
    // The refresh installed into `epoch` (under mu): commit epoch and digest.
    // An empty digest is unknown (provisioned, migrated in, or an old record).
    std::uint64_t installed_epoch = 0;
    Bytes installed_digest;
    // Share mutations hold `gate` while they wait for and hold `mu`
    // exclusively; decryption sessions pass through it to take `mu` shared.
    std::mutex gate;
    std::atomic<int> preparing{0};  // PREPARE crypto in progress (shared mu)
    std::atomic<std::uint64_t> carry_millibits{0};  // charged while a refresh was prepared
    // Written under exclusive mu; atomic so route_state() can classify a key
    // without touching the entry lock on the reader thread.
    std::atomic<bool> removed{false};
    std::atomic<std::uint8_t> mig{0};  // MigState
    std::uint64_t mig_map_version = 0;  // under mu, valid while mig != None
    std::uint32_t mig_dest = 0;         // under mu: dest shard (src) / origin (dst)
    std::uint64_t mig_spent = 0;        // under mu: spent frozen at mark/release/stage
    std::atomic<std::uint64_t> spent_millibits{0};
  };

  [[nodiscard]] std::shared_ptr<Entry> find(const KeyId& id) const {
    std::shared_lock mlk(map_mu_);
    const auto it = keys_.find(id);
    if (it == keys_.end())
      throw ServiceError(ServiceErrc::UnknownKey, 0, "no key " + id.display());
    return it->second;
  }

  [[nodiscard]] std::shared_ptr<Entry> find_opt(const KeyId& id) const {
    std::shared_lock mlk(map_mu_);
    const auto it = keys_.find(id);
    return it == keys_.end() ? nullptr : it->second;
  }

  /// Caller holds e.mu (either mode; removed is only written under the
  /// exclusive lock). An op that raced remove() must fail typed, not mutate
  /// state the journal will never see again.
  void check_not_removed(const KeyId& id, const Entry& e) const {
    if (e.removed)
      throw ServiceError(ServiceErrc::UnknownKey, 0, "key " + id.display() + " was removed");
  }

  /// Caller holds e.mu (either mode). Decryptions keep flowing while Marked
  /// (availability during the stream) but a Staged copy is not serving yet
  /// and a Released one never serves again -- the WrongShard tells the
  /// client to refetch the (already installed) new map.
  void check_mig_decryptable(const KeyId& id, const Entry& e) const {
    switch (static_cast<MigState>(e.mig.load())) {
      case MigState::None:
      case MigState::Marked:
        return;
      case MigState::Staged:
        throw ServiceError(ServiceErrc::Draining, e.epoch,
                           "key " + id.display() + " is migrating in");
      case MigState::Released:
        throw ServiceError(ServiceErrc::WrongShard, e.epoch,
                           "key " + id.display() + " migrated to shard " +
                               std::to_string(e.mig_dest));
    }
  }

  /// Caller holds e.mu exclusively. ANY migration state freezes the share
  /// mutations (prepare/commit/hello): the offer's digest must stay stable
  /// from mark to commit. Draining is retryable -- the client backs off and
  /// lands on whichever shard owns the key by then.
  void check_mig_mutable(const KeyId& id, const Entry& e) const {
    if (e.mig.load() != 0)
      throw ServiceError(ServiceErrc::Draining, e.epoch,
                         "key " + id.display() + " is migrating");
  }

  /// PREPARE's admission rules, checked before its crypto (shared lock) and
  /// again before it records (exclusive). Returns the recorded reply for a
  /// duplicate; throws for a removed, migrating, rolled-back or stale one.
  [[nodiscard]] std::optional<Bytes> admit_prepare_locked(const KeyId& id, const Entry& e,
                                                          std::uint64_t epoch,
                                                          const Bytes& digest) const {
    check_not_removed(id, e);
    check_mig_mutable(id, e);
    if (e.pending && e.pending->epoch == epoch && e.pending->digest == digest)
      return e.pending->reply;  // duplicate prepare: resend verbatim
    if (!e.rolled_back_digest.empty() && e.rolled_back_digest == digest)
      throw ServiceError(ServiceErrc::StaleEpoch, e.epoch, "refresh was rolled back");
    if (epoch != e.epoch)
      throw ServiceError(ServiceErrc::StaleEpoch, e.epoch,
                         "refresh epoch " + std::to_string(epoch) + " != " +
                             std::to_string(e.epoch));
    return std::nullopt;
  }

  /// Whether the refresh (epoch, digest) is the one installed into the
  /// key's current epoch; an unknown installed digest accepts any (the
  /// acknowledgement rule before the digest was recorded). Caller holds e.mu.
  [[nodiscard]] static bool installed_matches(const Entry& e, std::uint64_t epoch,
                                              const Bytes& digest) {
    return e.installed_digest.empty() ||
           (e.installed_epoch == epoch && e.installed_digest == digest);
  }

  /// The exclusive entry lock of a share mutation, taken behind the entry's
  /// gate: while a writer waits, new readers queue at the gate instead of
  /// joining the readers already inside, so those drain and the
  /// reader-preferring shared_mutex cannot keep the writer waiting.
  struct ExclusiveLock {
    explicit ExclusiveLock(Entry& e) : gate(e.gate), lk(e.mu) {}
    std::lock_guard<std::mutex> gate;
    std::unique_lock<std::shared_mutex> lk;
  };

  /// A decryption's (or PREPARE's crypto's) shared entry lock, taken
  /// through the gate (see ExclusiveLock).
  [[nodiscard]] static std::shared_lock<std::shared_mutex> reader_lock(Entry& e) {
    std::lock_guard gate(e.gate);
    return std::shared_lock<std::shared_mutex>(e.mu);
  }

  [[nodiscard]] std::uint64_t leak_per_dec_millibits() const {
    return static_cast<std::uint64_t>(opt_.leak_per_dec_bits * 1000.0);
  }
  [[nodiscard]] std::uint64_t budget_millibits() const {
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(opt_.budget_bits * 1000.0));
  }

  /// Budget charge + counters for one served decryption. Caller holds e.mu
  /// (shared suffices; the spent counter is atomic). Returns the new spent.
  std::uint64_t charge_locked(const KeyId& id, Entry& e) const {
    const std::uint64_t spent =
        e.spent_millibits.fetch_add(leak_per_dec_millibits()) + leak_per_dec_millibits();
    if (e.pending || e.preparing.load() > 0) e.carry_millibits.fetch_add(leak_per_dec_millibits());
    dec_counter().add();
    if (opt_.per_key_metrics)
      telemetry::Registry::global()
          .counter("ks.dec", {{"tenant", id.tenant}, {"key", id.key}})
          .add();
    return spent;
  }

  /// The key's portable share state -- exactly what PR 7 journaled, and
  /// since PR 10 also what a ks.migrate.offer ships. The migration tail is
  /// NOT part of it: the digest that keys the hand-off's idempotency must
  /// not change as the hand-off itself advances. Caller holds e.mu.
  [[nodiscard]] Bytes ser_state_locked(const Entry& e) const {
    ByteWriter w;
    w.u64(e.epoch);
    ByteWriter sw;
    Core::ser_sk2(gg_, sw, e.p2.share());
    w.blob(sw.bytes());
    w.u8(e.pending ? 1 : 0);
    if (e.pending) {
      w.u64(e.pending->epoch);
      w.blob(e.pending->digest);
      ByteWriter nw;
      Core::ser_sk2(gg_, nw, e.pending->next);
      w.blob(nw.bytes());
      w.blob(e.pending->reply);
    }
    w.blob(e.rolled_back_digest);
    return w.take();
  }

  /// Serialize + append this key's durable record (portable state + the
  /// migration tail). Caller holds e.mu exclusively (constructor-time calls
  /// are unshared). The journal's own mutex orders concurrent appends from
  /// different keys.
  void persist_locked(const KeyId& id, Entry& e) {
    if (!journal_ || e.removed.load()) return;
    ByteWriter w;
    w.raw(ser_state_locked(e));
    const auto m = static_cast<MigState>(e.mig.load());
    w.u8(static_cast<std::uint8_t>(m));
    if (m != MigState::None) {
      w.u64(e.mig_map_version);
      w.u32(e.mig_dest);
      w.u64(e.mig_spent);
    }
    w.u64(e.installed_epoch);
    w.blob(e.installed_digest);
    journal_->append(id, w.take());
  }

  /// Parse the portable state into a fresh entry; leaves `r` positioned at
  /// the migration tail (records) or the end (shipped offers).
  [[nodiscard]] std::shared_ptr<Entry> parse_state(ByteReader& r) {
    const std::uint64_t epoch = r.u64();
    const Bytes sk2b = r.blob();
    ByteReader sr(sk2b);
    auto entry = std::make_shared<Entry>(gg_, prm_, Core::deser_sk2(gg_, sr), next_rng());
    entry->epoch = epoch;
    if (r.u8()) {
      Pending p;
      p.epoch = r.u64();
      p.digest = r.blob();
      const Bytes nb = r.blob();
      ByteReader nr(nb);
      p.next = Core::deser_sk2(gg_, nr);
      p.reply = r.blob();
      entry->pending = std::move(p);
    }
    if (r.remaining()) entry->rolled_back_digest = r.blob();
    return entry;
  }

  void restore_one(const KeyId& id, const Bytes& state) {
    ByteReader r(state);
    auto entry = parse_state(r);
    if (r.remaining()) {
      const auto m = static_cast<MigState>(r.u8());
      entry->mig.store(static_cast<std::uint8_t>(m));
      if (m != MigState::None) {
        entry->mig_map_version = r.u64();
        entry->mig_dest = r.u32();
        entry->mig_spent = r.u64();
        // A mid-migration key restarts with its journaled budget position
        // (a lower bound for Marked keys) instead of the usual fresh
        // period: the position must survive the hand-off.
        entry->spent_millibits.store(entry->mig_spent);
      }
    }
    if (r.remaining()) {
      entry->installed_epoch = r.u64();
      entry->installed_digest = r.blob();
    }
    std::unique_lock mlk(map_mu_);
    keys_[id] = std::move(entry);
  }

  void fire_mig_hook(const char* step) {
    if (mig_hook_) mig_hook_(step);
  }

  static void mig_event(const char* step, const KeyId& id, std::uint64_t map_version) {
    telemetry::event(telemetry::EventKind::Migrate,
                     std::string("step=") + step + " key=" + id.display() +
                         (map_version ? " map_v=" + std::to_string(map_version) : ""));
  }

  [[nodiscard]] crypto::Rng next_rng() {
    std::lock_guard lk(rng_mu_);
    return crypto::Rng(rng_.u64());
  }

  /// A fresh generator for one PREPARE (the candidate share's coins).
  [[nodiscard]] crypto::Rng fork_rng() {
    std::lock_guard lk(rng_mu_);
    return rng_.fork("ks.ref_prepare");
  }

  void publish_keys_gauge() const {
    telemetry::Registry::global().gauge("ks.keys").set(static_cast<double>(size()));
  }

  static telemetry::Counter& dec_counter() {
    static telemetry::Counter& c = telemetry::Registry::global().counter("ks.dec.total");
    return c;
  }
  static telemetry::Counter& refreshes_counter() {
    static telemetry::Counter& c = telemetry::Registry::global().counter("ks.refreshes");
    return c;
  }
  static telemetry::Counter& rollbacks_counter() {
    static telemetry::Counter& c = telemetry::Registry::global().counter("ks.rollbacks");
    return c;
  }

  GG gg_;
  schemes::DlrParams prm_;
  std::mutex rng_mu_;
  crypto::Rng rng_;  // master: seeds each entry's party rng
  Options opt_;
  std::function<void(const char*)> mig_hook_;  // test-only crash injection
  std::unique_ptr<SegmentJournal> journal_;
  mutable std::shared_mutex map_mu_;
  std::unordered_map<KeyId, std::shared_ptr<Entry>, KeyIdHash> keys_;
};

}  // namespace dlr::keystore
