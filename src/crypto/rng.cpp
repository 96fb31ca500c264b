#include "crypto/rng.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"

namespace dlr::crypto {

Rng::Rng(std::uint64_t seed) {
  ByteWriter w;
  w.str("dlr.rng.seed64");
  w.u64(seed);
  const auto d = Sha256::hash(w.bytes());
  std::memcpy(key_.data(), d.data(), 32);
}

Rng::Rng(std::span<const std::uint8_t> seed32) {
  ByteWriter w;
  w.str("dlr.rng.seed");
  w.raw(seed32);
  const auto d = Sha256::hash(w.bytes());
  std::memcpy(key_.data(), d.data(), 32);
}

Rng Rng::from_os_entropy() {
  std::array<std::uint8_t, 32> seed{};
  if (std::FILE* f = std::fopen("/dev/urandom", "rb")) {
    const std::size_t got = std::fread(seed.data(), 1, seed.size(), f);
    std::fclose(f);
    if (got == seed.size()) return Rng(std::span<const std::uint8_t>(seed));
  }
  const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
  return Rng(static_cast<std::uint64_t>(now));
}

Rng Rng::fork(const std::string& label) {
  ByteWriter w;
  w.str("dlr.rng.fork");
  w.raw(std::span<const std::uint8_t>(key_));
  w.str(label);
  Rng child(Key{}, Sha256::hash(w.bytes()));
  // Ratchet our own key so fork points are not recoverable later.
  const auto self = tagged_hash("dlr.rng.ratchet", std::span<const std::uint8_t>(key_));
  std::memcpy(key_.data(), self.data(), 32);
  block_ = 0;
  avail_ = 0;
  return child;
}

void Rng::refill() {
  static constexpr std::array<std::uint8_t, 12> kNonce = {'d', 'l', 'r', '.', 'r', 'n',
                                                          'g', 0,   0,   0,  0,   0};
  ChaCha20 cc{std::span<const std::uint8_t>(key_), std::span<const std::uint8_t>(kNonce)};
  buf_ = cc.block(static_cast<std::uint32_t>(block_));
  // Fold the high half of the block counter into the low nonce bytes via the
  // key when the 32-bit block counter wraps (practically unreachable).
  ++block_;
  avail_ = buf_.size();
}

void Rng::fill(std::span<std::uint8_t> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    if (avail_ == 0) refill();
    const std::size_t take = std::min(avail_, out.size() - off);
    std::memcpy(out.data() + off, buf_.data() + (buf_.size() - avail_), take);
    avail_ -= take;
    off += take;
  }
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  fill(out);
  return out;
}

std::uint64_t Rng::u64() {
  std::array<std::uint8_t, 8> b;
  fill(b);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::below: zero bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = bound * ((~std::uint64_t{0}) / bound);
  for (;;) {
    const std::uint64_t v = u64();
    if (v < limit) return v % bound;
  }
}

}  // namespace dlr::crypto
