// Segmented append-only journal: the one on-disk format of both parties
// (DESIGN.md §9.2, §11). The keystore journals every key of a shard into
// one; a durable P1Runtime journals its single record into one of its own.
//
// A SegmentJournal owns one directory of segment files `seg-<16 hex>.log`.
// Every state change of every key is one appended record:
//
//   "DLRS" | u8 version | u32 crc32(payload) | u32 payload_len | payload
//   payload = u64 seq | str tenant | str key | u8 tombstone | blob state
//
// `seq` is a journal-global monotonic counter; recovery replays every record
// of every segment and keeps, per (tenant, key), the record with the highest
// seq ("latest-seq-wins"). That single rule gives crash-safety everywhere:
//
//   - A torn tail (partial final record after a crash mid-append) fails its
//     CRC/length check; the scan stops at the tear for that segment and keeps
//     everything before it. Counted in ks.journal.torn_tails.
//   - Compaction rewrites the live set into one fresh segment with their
//     ORIGINAL seqs, so any crash that leaves both the compacted segment and
//     the old ones on disk (rename done, unlink not) recovers to the exact
//     same map -- duplicates resolve to the same winner.
//   - Stray `.tmp` files (crash before rename) are ignored by recovery and
//     deleted on the next open.
//
// Compaction (tmp write -> fsync -> rename -> dir fsync -> unlink old) runs
// inline on maybe_compact() -- the keystore's scheduler decides when -- and
// fires `crash_hook("compact.<step>")` after each step so the fault matrix
// in tests can kill the process (by throwing) at every point and prove zero
// lost shares.
//
// Thread-safe behind one internal mutex. Writes fsync per append by default;
// bulk loaders (bench provisioning) set fsync_each=false and call flush().
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/bytes.hpp"
#include "keystore/key_id.hpp"

namespace dlr::keystore {

class SegmentJournal {
 public:
  struct Options {
    std::size_t segment_bytes = 1 << 20;   // roll the active segment past this
    std::size_t compact_min_segments = 4;  // maybe_compact() triggers at this many sealed
    bool fsync_each = true;                // false = durability deferred to flush()
  };

  struct RecoveryStats {
    std::size_t segments_scanned = 0;
    std::size_t records = 0;
    std::size_t torn_tails = 0;  // segments whose scan stopped at a bad record
    std::size_t tmp_removed = 0;
  };

  SegmentJournal() = default;  // detached: every method is a no-op
  /// Opens `dir` (created if absent), scans all segments, builds the live
  /// map. Throws std::runtime_error on I/O failure.
  SegmentJournal(std::string dir, Options opt);
  explicit SegmentJournal(std::string dir);  // default Options
  ~SegmentJournal();

  SegmentJournal(const SegmentJournal&) = delete;
  SegmentJournal& operator=(const SegmentJournal&) = delete;

  [[nodiscard]] bool attached() const { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Durably append the latest state of `id`. Throws on I/O failure (a
  /// keystore that cannot journal must not mutate its share).
  void append(const KeyId& id, const Bytes& state);

  /// Append a deletion marker; the key is gone after recovery.
  void tombstone(const KeyId& id);

  /// fsync the active segment (meaningful with fsync_each=false).
  void flush();

  /// Run compaction if the sealed-segment count has reached the threshold.
  /// Returns true if a compaction ran. Exceptions from the crash hook (or
  /// real I/O errors) propagate; the on-disk state is recoverable at every
  /// step, the in-memory object is not -- reopen a fresh SegmentJournal.
  bool maybe_compact();
  /// Unconditional compaction (also folds the active segment in).
  void compact();

  /// The recovered live map (states present at open, tombstones resolved).
  /// Moves the copy out; call once, right after construction.
  [[nodiscard]] std::unordered_map<KeyId, Bytes, KeyIdHash> take_recovered();

  [[nodiscard]] RecoveryStats recovery_stats() const;
  [[nodiscard]] std::size_t live_count() const;
  [[nodiscard]] std::size_t segment_count() const;  // sealed + active
  [[nodiscard]] std::uint64_t compactions() const;

  /// Test hook: called as `hook("compact.<step>")` AFTER each compaction
  /// step completes (tmp_open, tmp_write, tmp_fsync, rename, dir_fsync,
  /// unlink, done). A throwing hook simulates a crash at that point.
  void set_crash_hook(std::function<void(const char*)> hook);

 private:
  struct Live {
    std::uint64_t seq = 0;
    bool tombstone = false;
    Bytes state;
  };

  void open_active_locked(std::uint64_t id);
  void roll_if_needed_locked();
  void append_locked(const KeyId& id, const Bytes& state, bool tomb);
  void compact_locked();
  void fire_hook(const char* step);
  [[nodiscard]] std::string seg_path(std::uint64_t id) const;

  std::string dir_;
  Options opt_;
  mutable std::mutex mu_;

  std::unordered_map<KeyId, Live, KeyIdHash> live_;
  std::vector<std::uint64_t> sealed_;  // sealed segment ids, ascending
  std::uint64_t active_id_ = 0;
  int active_fd_ = -1;
  std::size_t active_bytes_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t compactions_ = 0;
  RecoveryStats recovery_;
  std::unordered_map<KeyId, Bytes, KeyIdHash> recovered_;
  std::function<void(const char*)> crash_hook_;
};

inline SegmentJournal::SegmentJournal(std::string dir)
    : SegmentJournal(std::move(dir), Options{}) {}

/// mkdir(dir) if absent (single level; EEXIST is success). Returns dir so
/// call sites can inline it when building journal paths.
const std::string& ensure_dir(const std::string& dir);

/// dir + "/" + name, tolerating a trailing slash on dir.
[[nodiscard]] std::string join_path(const std::string& dir, const std::string& name);

}  // namespace dlr::keystore
