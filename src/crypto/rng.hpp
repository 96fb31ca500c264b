// Deterministic CSPRNG built on ChaCha20 in counter mode.
//
// Every source of randomness in the library flows through Rng so that tests,
// protocol transcripts and security-game runs are reproducible from a seed.
// The paper's model distinguishes *secret* randomness (part of a device's
// secret memory, exposed to leakage functions) from public randomness; both
// are drawn from per-party Rng instances and the secret draws are recorded in
// secret-memory snapshots by the protocol layer (see net/party.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "crypto/bytes.hpp"

namespace dlr::crypto {

class Rng {
 public:
  /// Seeded construction: fully deterministic stream.
  explicit Rng(std::uint64_t seed);
  explicit Rng(std::span<const std::uint8_t> seed32);

  /// Entropy from the OS (/dev/urandom); falls back to a time-based seed.
  static Rng from_os_entropy();

  /// An independent child generator (forward-secure split).
  Rng fork(const std::string& label);

  void fill(std::span<std::uint8_t> out);
  Bytes bytes(std::size_t n);
  std::uint64_t u64();

  /// Uniform in [0, bound); bound must be nonzero.
  std::uint64_t below(std::uint64_t bound);

  bool coin() { return (u64() & 1) != 0; }

 private:
  /// A generator keyed directly by `key` (fork's child: no seed hashing).
  struct Key {};
  Rng(Key, const std::array<std::uint8_t, 32>& key) : key_(key) {}

  std::array<std::uint8_t, 32> key_;
  std::uint64_t block_ = 0;
  std::array<std::uint8_t, 64> buf_;
  std::size_t avail_ = 0;

  void refill();
};

}  // namespace dlr::crypto
