// Consistent-hash shard map: which server process owns which (tenant, key).
//
// Placement is a classic consistent-hash ring: every shard contributes
// kVirtualNodes points `mix64(shard_id * kVnodeStride + v)`, a key lands on
// the first ring point clockwise of key_hash(id) (wrapping). Virtual nodes
// smooth the load (~64 points/shard keeps the max/min key-count ratio under
// ~1.3 at 10k keys) and adding or removing one shard only moves the keys in
// the arcs it owned -- minimal rebalance, verified in tests.
//
// The map is versioned, serializable, and served by every shard over the
// `ks.map` route; clients cache it, route locally, and on a WrongShard
// redirect refetch and retry (src/service/README.md route table). Placement
// uses key_hash (cross-process stable FNV-1a/splitmix64), never std::hash.
//
// An EMPTY map means "unsharded": owner() says shard 0 owns everything, and
// servers with an empty map accept every key. That is the single-key /
// single-shard compatibility mode and the bootstrap state before an
// operator installs a map.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/bytes.hpp"
#include "keystore/key_id.hpp"

namespace dlr::keystore {

struct ShardInfo {
  std::uint32_t id = 0;
  std::string host;  // empty = loopback
  std::uint16_t port = 0;

  bool operator==(const ShardInfo& o) const {
    return id == o.id && host == o.host && port == o.port;
  }
};

class ShardMap {
 public:
  static constexpr std::uint32_t kVirtualNodes = 64;

  ShardMap() = default;
  ShardMap(std::uint64_t version, std::vector<ShardInfo> shards);

  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] const std::vector<ShardInfo>& shards() const { return shards_; }
  [[nodiscard]] bool empty() const { return shards_.empty(); }

  /// Shard id owning `id`; 0 for an empty map (unsharded mode).
  [[nodiscard]] std::uint32_t owner(const KeyId& id) const;
  [[nodiscard]] std::uint32_t owner_of_hash(std::uint64_t h) const;

  /// Lookup by shard id (nullptr if absent).
  [[nodiscard]] const ShardInfo* shard(std::uint32_t id) const;

  [[nodiscard]] Bytes encode() const;
  /// Throws std::out_of_range on truncated input and std::invalid_argument on
  /// trailing bytes, a port above 65535 or a repeated shard id.
  [[nodiscard]] static ShardMap decode(const Bytes& body);

  bool operator==(const ShardMap& o) const {
    return version_ == o.version_ && shards_ == o.shards_;
  }

 private:
  void build_ring();

  std::uint64_t version_ = 0;
  std::vector<ShardInfo> shards_;
  // (ring point, shard id), sorted by point. Rebuilt from shards_ on
  // construction/decode, never serialized.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace dlr::keystore
