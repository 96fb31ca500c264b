#include "keystore/shard_map.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlr::keystore {

namespace {
// Stride between a shard's vnode seeds. Any odd-ish large constant works;
// what matters is that (shard, vnode) pairs never collide across shards for
// realistic shard counts, and mix64 scatters them uniformly.
constexpr std::uint64_t kVnodeStride = 0x9e3779b97f4a7c15ULL;
}  // namespace

ShardMap::ShardMap(std::uint64_t version, std::vector<ShardInfo> shards)
    : version_(version), shards_(std::move(shards)) {
  build_ring();
}

void ShardMap::build_ring() {
  ring_.clear();
  ring_.reserve(shards_.size() * kVirtualNodes);
  for (const auto& s : shards_)
    for (std::uint32_t v = 0; v < kVirtualNodes; ++v)
      ring_.emplace_back(mix64(s.id * kVnodeStride + v), s.id);
  std::sort(ring_.begin(), ring_.end());
}

std::uint32_t ShardMap::owner_of_hash(std::uint64_t h) const {
  if (ring_.empty()) return 0;
  auto it = std::upper_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, UINT32_MAX));
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::uint32_t ShardMap::owner(const KeyId& id) const {
  return owner_of_hash(key_hash(id));
}

const ShardInfo* ShardMap::shard(std::uint32_t id) const {
  for (const auto& s : shards_)
    if (s.id == id) return &s;
  return nullptr;
}

Bytes ShardMap::encode() const {
  ByteWriter w;
  w.u64(version_);
  w.u32(static_cast<std::uint32_t>(shards_.size()));
  for (const auto& s : shards_) {
    w.u32(s.id);
    w.str(s.host);
    w.u32(s.port);
  }
  return w.take();
}

ShardMap ShardMap::decode(const Bytes& body) {
  ByteReader r(body);
  const std::uint64_t version = r.u64();
  const std::uint32_t n = r.u32();
  if (n > 4096) throw std::invalid_argument("shard map: implausible shard count");
  std::vector<ShardInfo> shards;
  shards.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardInfo s;
    s.id = r.u32();
    s.host = r.str();
    const std::uint32_t port = r.u32();
    if (port > 0xffff) throw std::invalid_argument("shard map: port out of range");
    s.port = static_cast<std::uint16_t>(port);
    if (std::any_of(shards.begin(), shards.end(),
                    [&](const ShardInfo& o) { return o.id == s.id; }))
      throw std::invalid_argument("shard map: repeated shard id");
    shards.push_back(std::move(s));
  }
  if (!r.done()) throw std::invalid_argument("shard map: trailing bytes");
  return {version, std::move(shards)};
}

}  // namespace dlr::keystore
