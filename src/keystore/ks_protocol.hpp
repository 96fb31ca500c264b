// Wire schema of the multi-tenant keystore service (DESIGN.md §11), and of
// the one-key server, which serves its one key as default_key_id(). It keeps
// the conventions of service/protocol.hpp: one Data frame per request on its
// own mux session, answered by one `*.ok` Data frame or one svc.err Error
// frame (the keystore reuses ServiceErrc, adding WrongShard and UnknownKey).
//
// Every per-key request starts with the key address:
//
//   ks.dec         body = str tenant | str key | u64 epoch | blob dec.r1 [| u32 deadline_ms]
//     -> ks.dec.ok body = blob dec.r2 | u64 spent_millibits | u64 budget_millibits
//   ks.ref         body = str tenant | str key | u64 epoch | blob ref.r1
//     -> ks.ref.ok body = blob ref.r2
//   ks.ref.commit  body = str tenant | str key | u64 epoch | blob digest
//     -> ks.ref.commit.ok body = u64 new_epoch
//   ks.hello       body = str tenant | str key | <hello body>
//     -> ks.hello.ok      body = <hello.ok body>
//   ks.put         body = str tenant | str key | blob sk2_ser
//     -> ks.put.ok        body = (empty)
//   ks.map         body = (empty)
//     -> ks.map.ok        body = ShardMap::encode()
//
// where digest = SHA-256 of the ref round-1 message, identifying WHICH
// prepared refresh is being committed (duplicated/stale commits are
// detected, never applied twice), and the hello bodies are
// service/protocol.hpp's.
//
// Live resharding (DESIGN.md §14) adds an operator/peer surface, gated on
// wire version 2 (a propose names the minimum version every shard must
// speak, because the migration routes below did not exist before it):
//
//   ks.map.propose body = u8 min_wire_version | blob ShardMap::encode()
//     -> ks.map.propose.ok body = u32 outgoing_keys
//   ks.migrate.offer  body = u64 map_version | u32 from_shard | str tenant
//                          | str key | u64 spent_millibits | blob state
//     -> ks.migrate.offer.ok  body = blob digest       (SHA-256 of state)
//   ks.migrate.commit body = u64 map_version | u32 from_shard | str tenant
//                          | str key | u64 spent_millibits | blob digest
//     -> ks.migrate.commit.ok body = (empty)
//   ks.migrate.done   body = u64 map_version | u32 from_shard
//     -> ks.migrate.done.ok   body = (empty)
//
// `state` is the key's full journal record (epoch, share, pending 2PC,
// rolled-back digest) -- journal-segment shipping: the destination journals
// it verbatim and acks with its digest, making every migration step
// idempotent by (key, map_version, digest) exactly like the PR 4 epoch 2PC.
// spent_millibits carries the live leakage-budget position so the budget
// period survives the move.
//
// ks.dec.ok piggybacks the server's leakage accounting (spent/budget in
// MILLIbits so fractional per-op charges stay integral on the wire): the
// client fleet mirrors it into its own refresh scheduler without a separate
// polling route. ks.hello is PER KEY -- the fleet reconciles only keys with
// a pending refresh, never as a 10k-key blanket exchange; DecryptionClient
// also sends its one key's hello on every new connection.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "crypto/bytes.hpp"
#include "keystore/key_id.hpp"
#include "service/protocol.hpp"

namespace dlr::keystore {

inline constexpr char kKsDec[] = "ks.dec";
inline constexpr char kKsDecOk[] = "ks.dec.ok";
inline constexpr char kKsRef[] = "ks.ref";
inline constexpr char kKsRefOk[] = "ks.ref.ok";
inline constexpr char kKsRefCommit[] = "ks.ref.commit";
inline constexpr char kKsRefCommitOk[] = "ks.ref.commit.ok";
inline constexpr char kKsHello[] = "ks.hello";
inline constexpr char kKsHelloOk[] = "ks.hello.ok";
inline constexpr char kKsPut[] = "ks.put";
inline constexpr char kKsPutOk[] = "ks.put.ok";
inline constexpr char kKsMap[] = "ks.map";
inline constexpr char kKsMapOk[] = "ks.map.ok";
inline constexpr char kKsMapPropose[] = "ks.map.propose";
inline constexpr char kKsMapProposeOk[] = "ks.map.propose.ok";
inline constexpr char kKsMigOffer[] = "ks.migrate.offer";
inline constexpr char kKsMigOfferOk[] = "ks.migrate.offer.ok";
inline constexpr char kKsMigCommit[] = "ks.migrate.commit";
inline constexpr char kKsMigCommitOk[] = "ks.migrate.commit.ok";
inline constexpr char kKsMigDone[] = "ks.migrate.done";
inline constexpr char kKsMigDoneOk[] = "ks.migrate.done.ok";

struct KsRequest {
  KeyId id;
  std::uint64_t epoch = 0;
  Bytes payload;  // dec.r1 / ref.r1 / commit digest
  /// Remaining client deadline budget at send time; 0 = none. Trailing and
  /// optional: a request without a budget omits it.
  std::uint32_t deadline_ms = 0;
};

[[nodiscard]] inline Bytes encode_ks_request(const KeyId& id, std::uint64_t epoch,
                                             const Bytes& payload,
                                             std::uint32_t deadline_ms = 0) {
  ByteWriter w;
  w.str(id.tenant);
  w.str(id.key);
  w.u64(epoch);
  w.blob(payload);
  if (deadline_ms != 0) w.u32(deadline_ms);
  return w.take();
}

[[nodiscard]] inline KsRequest decode_ks_request(const Bytes& body) {
  ByteReader r(body);
  KsRequest req;
  req.id.tenant = r.str();
  req.id.key = r.str();
  req.epoch = r.u64();
  req.payload = r.blob();
  if (!r.done()) req.deadline_ms = r.u32();
  if (!r.done()) throw std::invalid_argument("ks request: trailing bytes");
  return req;
}

struct KsDecOk {
  Bytes reply;
  std::uint64_t spent_millibits = 0;
  std::uint64_t budget_millibits = 0;
};

[[nodiscard]] inline Bytes encode_ks_dec_ok(const KsDecOk& ok) {
  ByteWriter w;
  w.blob(ok.reply);
  w.u64(ok.spent_millibits);
  w.u64(ok.budget_millibits);
  return w.take();
}

[[nodiscard]] inline KsDecOk decode_ks_dec_ok(const Bytes& body) {
  ByteReader r(body);
  KsDecOk ok;
  ok.reply = r.blob();
  ok.spent_millibits = r.u64();
  ok.budget_millibits = r.u64();
  if (!r.done()) throw std::invalid_argument("ks.dec.ok: trailing bytes");
  return ok;
}

[[nodiscard]] inline Bytes encode_ks_hello(const KeyId& id, const service::HelloMsg& h) {
  ByteWriter w;
  w.str(id.tenant);
  w.str(id.key);
  w.raw(service::encode_hello(h));
  return w.take();
}

struct KsHello {
  KeyId id;
  service::HelloMsg hello;
};

[[nodiscard]] inline KsHello decode_ks_hello(const Bytes& body) {
  ByteReader r(body);
  KsHello kh;
  kh.id.tenant = r.str();
  kh.id.key = r.str();
  Bytes rest;
  while (!r.done()) rest.push_back(r.u8());
  kh.hello = service::decode_hello(rest);
  return kh;
}

struct KsMapPropose {
  std::uint8_t min_wire_version = 0;
  Bytes map_body;  // ShardMap::encode() of the proposed map
};

[[nodiscard]] inline Bytes encode_ks_map_propose(const Bytes& map_body) {
  ByteWriter w;
  w.u8(service::kWireDeadlineVersion);
  w.blob(map_body);
  return w.take();
}

[[nodiscard]] inline KsMapPropose decode_ks_map_propose(const Bytes& body) {
  ByteReader r(body);
  KsMapPropose p;
  p.min_wire_version = r.u8();
  p.map_body = r.blob();
  if (!r.done()) throw std::invalid_argument("ks.map.propose: trailing bytes");
  return p;
}

/// Shared body of ks.migrate.offer (blob = shipped state) and
/// ks.migrate.commit (blob = state digest).
struct KsMigrate {
  std::uint64_t map_version = 0;
  std::uint32_t from_shard = 0;
  KeyId id;
  std::uint64_t spent_millibits = 0;
  Bytes blob;
};

[[nodiscard]] inline Bytes encode_ks_migrate(const KsMigrate& m) {
  ByteWriter w;
  w.u64(m.map_version);
  w.u32(m.from_shard);
  w.str(m.id.tenant);
  w.str(m.id.key);
  w.u64(m.spent_millibits);
  w.blob(m.blob);
  return w.take();
}

[[nodiscard]] inline KsMigrate decode_ks_migrate(const Bytes& body) {
  ByteReader r(body);
  KsMigrate m;
  m.map_version = r.u64();
  m.from_shard = r.u32();
  m.id.tenant = r.str();
  m.id.key = r.str();
  m.spent_millibits = r.u64();
  m.blob = r.blob();
  if (!r.done()) throw std::invalid_argument("ks.migrate: trailing bytes");
  return m;
}

[[nodiscard]] inline Bytes encode_ks_mig_done(std::uint64_t map_version,
                                              std::uint32_t from_shard) {
  ByteWriter w;
  w.u64(map_version);
  w.u32(from_shard);
  return w.take();
}

struct KsMigDone {
  std::uint64_t map_version = 0;
  std::uint32_t from_shard = 0;
};

[[nodiscard]] inline KsMigDone decode_ks_mig_done(const Bytes& body) {
  ByteReader r(body);
  KsMigDone d;
  d.map_version = r.u64();
  d.from_shard = r.u32();
  if (!r.done()) throw std::invalid_argument("ks.migrate.done: trailing bytes");
  return d;
}

[[nodiscard]] inline Bytes encode_ks_put(const KeyId& id, const Bytes& sk2_ser) {
  ByteWriter w;
  w.str(id.tenant);
  w.str(id.key);
  w.blob(sk2_ser);
  return w.take();
}

struct KsPut {
  KeyId id;
  Bytes sk2_ser;
};

[[nodiscard]] inline KsPut decode_ks_put(const Bytes& body) {
  ByteReader r(body);
  KsPut p;
  p.id.tenant = r.str();
  p.id.key = r.str();
  p.sk2_ser = r.blob();
  if (!r.done()) throw std::invalid_argument("ks.put: trailing bytes");
  return p;
}

}  // namespace dlr::keystore
