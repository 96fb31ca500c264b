// (tenant, key-id) -- the logical address of one 2-of-2 share in the
// multi-tenant keystore (DESIGN.md §11).
//
// A KeyId is pure data: two short strings plus a stable 64-bit hash used for
// shard placement (shard_map.hpp) and for unordered_map buckets. The hash is
// FNV-1a over `tenant | 0x1f | key` finished with a splitmix64 mix, NOT
// std::hash -- placement must agree across processes and across standard
// library implementations, because client and server independently map the
// same KeyId onto the consistent-hash ring.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace dlr::keystore {

struct KeyId {
  std::string tenant;
  std::string key;

  bool operator==(const KeyId& o) const { return tenant == o.tenant && key == o.key; }
  bool operator!=(const KeyId& o) const { return !(*this == o); }
  bool operator<(const KeyId& o) const {
    return tenant != o.tenant ? tenant < o.tenant : key < o.key;
  }

  [[nodiscard]] std::string display() const { return tenant + "/" + key; }
};

/// The single-key identity: the key DecryptionClient names on every ks.*
/// request, which KsServer puts when constructed with a default share
/// (service::P2Server, the single-key server).
[[nodiscard]] inline const KeyId& default_key_id() {
  static const KeyId id{"_default", "_default"};
  return id;
}

/// splitmix64 finalizer -- full-avalanche mix of a 64-bit state.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Cross-process stable placement hash (FNV-1a + mix64). 0x1f separates the
/// fields so ("ab","c") and ("a","bc") never collide structurally.
[[nodiscard]] inline std::uint64_t key_hash(const KeyId& id) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto eat = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  };
  eat(id.tenant);
  h ^= 0x1f;
  h *= 0x100000001b3ULL;
  eat(id.key);
  return mix64(h);
}

struct KeyIdHash {
  std::size_t operator()(const KeyId& id) const {
    return static_cast<std::size_t>(key_hash(id));
  }
};

}  // namespace dlr::keystore
