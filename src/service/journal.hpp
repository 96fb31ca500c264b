// Atomic single-record on-disk journal for party state: P1Runtime's journal.
// (The P2 server, a one-key KsServer, journals into the keystore's
// SegmentJournal instead.)
//
// One Journal owns one path and stores one record (the latest durable state
// of a party: share + epoch + any PendingRefresh). save() is crash-atomic in
// the classic way -- write `<path>.tmp`, fsync the file, rename over the
// target, fsync the directory -- so a reader after any crash sees either the
// previous complete record or the new complete record, never a torn one.
//
// On-disk framing guards against partial/bit-rotted files surviving the
// rename discipline anyway (e.g. a crashed tmp write that an operator
// renames by hand):
//
//   "DLRJ" | u8 version | u32 crc32(payload) | u64 payload_len | payload
//
// load() returns nullopt for a missing file and for any framing/CRC
// violation (counted in svc.journal_corrupt) -- a corrupt journal is
// equivalent to no journal, and the party falls back to its constructor
// state. A default-constructed Journal is detached: save/load/remove are
// no-ops, which is how the in-memory-only configuration (tests, benches)
// opts out of persistence.
#pragma once

#include <optional>
#include <string>

#include "crypto/bytes.hpp"

namespace dlr::service {

class Journal {
 public:
  Journal() = default;  // detached: no persistence
  explicit Journal(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] bool attached() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Durably replace the record. Throws std::runtime_error on I/O failure
  /// (a party that cannot journal must not mutate its share).
  void save(const Bytes& payload) const;

  /// The last durably saved record, or nullopt (missing/corrupt/detached).
  [[nodiscard]] std::optional<Bytes> load() const;

  /// Delete the record (missing file is fine).
  void remove() const;

 private:
  std::string path_;
};

/// mkdir(dir) if absent (single level; EEXIST is success). Returns dir so
/// call sites can inline it when building journal paths.
const std::string& ensure_dir(const std::string& dir);

/// dir + "/" + name, tolerating a trailing slash on dir.
[[nodiscard]] std::string join_path(const std::string& dir, const std::string& name);

}  // namespace dlr::service
