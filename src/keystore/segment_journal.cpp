#include "keystore/segment_journal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "transport/frame.hpp"  // crc32

namespace dlr::keystore {

namespace {

constexpr char kMagic[4] = {'D', 'L', 'R', 'S'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 1 + 4 + 4;

[[noreturn]] void throw_io(const std::string& op, const std::string& path) {
  throw std::runtime_error("segjournal: " + op + " " + path + ": " + std::strerror(errno));
}

void write_all(int fd, const Bytes& data, const std::string& path) {
  std::size_t off = 0;
  while (off < data.size()) {
    const auto k = ::write(fd, data.data() + off, data.size() - off);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw_io("write", path);
    }
    off += static_cast<std::size_t>(k);
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_io("open(dir)", dir);
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_io("fsync(dir)", dir);
  }
  ::close(fd);
}

[[nodiscard]] Bytes frame_record(std::uint64_t seq, const KeyId& id, bool tomb,
                                 const Bytes& state) {
  ByteWriter p;
  p.u64(seq);
  p.str(id.tenant);
  p.str(id.key);
  p.u8(tomb ? 1 : 0);
  p.blob(state);
  const Bytes payload = p.take();

  ByteWriter w;
  w.raw(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(kMagic),
                                      sizeof(kMagic)));
  w.u8(kVersion);
  w.u32(transport::crc32(payload));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  return w.take();
}

/// Parse `seg-<16 hex>.log` -> segment id, or nullopt for anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_seg_name(const std::string& name) {
  if (name.size() != 4 + 16 + 4 || name.compare(0, 4, "seg-") != 0 ||
      name.compare(20, 4, ".log") != 0)
    return std::nullopt;
  std::uint64_t id = 0;
  for (std::size_t i = 4; i < 20; ++i) {
    const char c = name[i];
    id <<= 4;
    if (c >= '0' && c <= '9') id |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') id |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return id;
}

[[nodiscard]] std::string seg_name(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%016llx.log", static_cast<unsigned long long>(id));
  return buf;
}

[[nodiscard]] Bytes read_whole_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_io("open", path);
  Bytes data;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const auto k = ::read(fd, buf, sizeof(buf));
    if (k < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_io("read", path);
    }
    if (k == 0) break;
    data.insert(data.end(), buf, buf + k);
  }
  ::close(fd);
  return data;
}

}  // namespace

const std::string& ensure_dir(const std::string& dir) {
  if (!dir.empty() && ::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST)
    throw_io("mkdir", dir);
  return dir;
}

std::string join_path(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return (dir.back() == '/') ? dir + name : dir + "/" + name;
}

SegmentJournal::SegmentJournal(std::string dir, Options opt)
    : dir_(std::move(dir)), opt_(opt) {
  ensure_dir(dir_);

  // Enumerate segments; delete stray .tmp files (crash before rename).
  std::vector<std::uint64_t> segs;
  DIR* d = ::opendir(dir_.c_str());
  if (!d) throw_io("opendir", dir_);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (const auto id = parse_seg_name(name)) {
      segs.push_back(*id);
    } else if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      ::unlink(join_path(dir_, name).c_str());
      ++recovery_.tmp_removed;
    }
  }
  ::closedir(d);
  std::sort(segs.begin(), segs.end());

  // Replay every record of every segment; latest seq wins per key. A bad
  // record (CRC, framing, short header) ends that segment's scan -- it is
  // the torn tail of a crashed append.
  std::uint64_t max_seq = 0;
  for (const auto id : segs) {
    ++recovery_.segments_scanned;
    const Bytes data = read_whole_file(seg_path(id));
    std::size_t off = 0;
    bool torn = false;
    while (off < data.size()) {
      if (data.size() - off < kHeaderBytes ||
          std::memcmp(data.data() + off, kMagic, sizeof(kMagic)) != 0 ||
          data[off + 4] != kVersion) {
        torn = true;
        break;
      }
      std::uint32_t crc = 0, len = 0;
      std::memcpy(&crc, data.data() + off + 5, 4);
      std::memcpy(&len, data.data() + off + 9, 4);
      if (data.size() - off - kHeaderBytes < len) {
        torn = true;
        break;
      }
      Bytes payload(data.begin() + static_cast<std::ptrdiff_t>(off + kHeaderBytes),
                    data.begin() + static_cast<std::ptrdiff_t>(off + kHeaderBytes + len));
      if (transport::crc32(payload) != crc) {
        torn = true;
        break;
      }
      try {
        ByteReader r(payload);
        Live rec;
        rec.seq = r.u64();
        KeyId id2;
        id2.tenant = r.str();
        id2.key = r.str();
        rec.tombstone = r.u8() != 0;
        rec.state = r.blob();
        if (!r.done()) throw std::invalid_argument("trailing");
        max_seq = std::max(max_seq, rec.seq);
        auto& slot = live_[id2];
        if (rec.seq >= slot.seq) slot = std::move(rec);
        ++recovery_.records;
      } catch (const std::exception&) {
        torn = true;
        break;
      }
      off += kHeaderBytes + len;
    }
    if (torn) ++recovery_.torn_tails;
  }
  if (recovery_.torn_tails)
    telemetry::Registry::global()
        .counter("ks.journal.torn_tails")
        .add(recovery_.torn_tails);

  // Tombstoned keys are dead: drop them from the live map (their marker
  // stays on disk until the next compaction discards it).
  for (auto it = live_.begin(); it != live_.end();)
    it = it->second.tombstone ? live_.erase(it) : std::next(it);

  next_seq_ = max_seq + 1;
  sealed_ = std::move(segs);
  recovered_.reserve(live_.size());
  for (const auto& [k, v] : live_) recovered_.emplace(k, v.state);

  // Fresh active segment above every existing id.
  open_active_locked(sealed_.empty() ? 1 : sealed_.back() + 1);
}

SegmentJournal::~SegmentJournal() {
  if (active_fd_ >= 0) ::close(active_fd_);
}

std::string SegmentJournal::seg_path(std::uint64_t id) const {
  return join_path(dir_, seg_name(id));
}

void SegmentJournal::open_active_locked(std::uint64_t id) {
  const std::string path = seg_path(id);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0600);
  if (fd < 0) throw_io("open", path);
  active_id_ = id;
  active_fd_ = fd;
  active_bytes_ = 0;
}

void SegmentJournal::roll_if_needed_locked() {
  if (active_bytes_ < opt_.segment_bytes) return;
  if (::fsync(active_fd_) != 0) throw_io("fsync", seg_path(active_id_));
  ::close(active_fd_);
  active_fd_ = -1;
  sealed_.push_back(active_id_);
  open_active_locked(active_id_ + 1);
}

void SegmentJournal::append_locked(const KeyId& id, const Bytes& state, bool tomb) {
  const std::uint64_t seq = next_seq_++;
  const Bytes record = frame_record(seq, id, tomb, state);
  write_all(active_fd_, record, seg_path(active_id_));
  if (opt_.fsync_each && ::fsync(active_fd_) != 0) throw_io("fsync", seg_path(active_id_));
  active_bytes_ += record.size();
  if (tomb) {
    live_.erase(id);
  } else {
    auto& slot = live_[id];
    slot.seq = seq;
    slot.tombstone = false;
    slot.state = state;
  }
  roll_if_needed_locked();
}

void SegmentJournal::append(const KeyId& id, const Bytes& state) {
  if (!attached()) return;
  std::lock_guard<std::mutex> lk(mu_);
  append_locked(id, state, /*tomb=*/false);
}

void SegmentJournal::tombstone(const KeyId& id) {
  if (!attached()) return;
  std::lock_guard<std::mutex> lk(mu_);
  append_locked(id, {}, /*tomb=*/true);
}

void SegmentJournal::flush() {
  if (!attached()) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (active_fd_ >= 0 && ::fsync(active_fd_) != 0) throw_io("fsync", seg_path(active_id_));
}

void SegmentJournal::fire_hook(const char* step) {
  if (crash_hook_) crash_hook_(step);
}

bool SegmentJournal::maybe_compact() {
  if (!attached()) return false;
  std::lock_guard<std::mutex> lk(mu_);
  if (sealed_.size() < opt_.compact_min_segments) return false;
  compact_locked();
  return true;
}

void SegmentJournal::compact() {
  if (!attached()) return;
  std::lock_guard<std::mutex> lk(mu_);
  compact_locked();
}

void SegmentJournal::compact_locked() {
  // Fold the active segment in too: seal it so the compacted segment is a
  // complete replacement for everything currently on disk.
  if (active_fd_ >= 0) {
    if (::fsync(active_fd_) != 0) throw_io("fsync", seg_path(active_id_));
    ::close(active_fd_);
    active_fd_ = -1;
    sealed_.push_back(active_id_);
  }
  const std::uint64_t new_id = active_id_ + 1;
  const std::string tmp = seg_path(new_id) + ".tmp";

  // Records keep their ORIGINAL seqs: if a crash leaves both the compacted
  // segment and the old ones, replay resolves every duplicate to the same
  // winner (header comment).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) throw_io("open", tmp);
  try {
    fire_hook("compact.tmp_open");
    bool first = true;
    for (const auto& [id, rec] : live_) {
      write_all(fd, frame_record(rec.seq, id, false, rec.state), tmp);
      // Fire mid-write (after the first record) so the crash matrix covers a
      // half-written tmp, not just an empty or complete one.
      if (first) {
        fire_hook("compact.tmp_write");
        first = false;
      }
    }
    if (live_.empty()) fire_hook("compact.tmp_write");
    if (::fsync(fd) != 0) throw_io("fsync", tmp);
    fire_hook("compact.tmp_fsync");
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) throw_io("close", tmp);

  if (::rename(tmp.c_str(), seg_path(new_id).c_str()) != 0) throw_io("rename", tmp);
  fire_hook("compact.rename");
  fsync_dir(dir_);
  fire_hook("compact.dir_fsync");

  const std::vector<std::uint64_t> old = std::move(sealed_);
  sealed_ = {new_id};
  bool first_unlink = true;
  for (const auto id : old) {
    ::unlink(seg_path(id).c_str());
    if (first_unlink) {
      fire_hook("compact.unlink");
      first_unlink = false;
    }
  }
  if (old.empty()) fire_hook("compact.unlink");
  fsync_dir(dir_);

  ++compactions_;
  telemetry::Registry::global().counter("ks.compactions").add();
  open_active_locked(new_id + 1);
  fire_hook("compact.done");
}

std::unordered_map<KeyId, Bytes, KeyIdHash> SegmentJournal::take_recovered() {
  std::lock_guard<std::mutex> lk(mu_);
  return std::move(recovered_);
}

SegmentJournal::RecoveryStats SegmentJournal::recovery_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return recovery_;
}

std::size_t SegmentJournal::live_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_.size();
}

std::size_t SegmentJournal::segment_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sealed_.size() + (active_fd_ >= 0 ? 1 : 0);
}

std::uint64_t SegmentJournal::compactions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return compactions_;
}

void SegmentJournal::set_crash_hook(std::function<void(const char*)> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  crash_hook_ = std::move(hook);
}

}  // namespace dlr::keystore
