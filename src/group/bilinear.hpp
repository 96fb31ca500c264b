// The BilinearGroup concept: the single interface every scheme in this
// library is written against.
//
// Two models are provided:
//   * TateGroup  (group/tate_group.hpp)  -- the real type-A Tate pairing.
//   * MockGroup  (group/mock_group.hpp)  -- a generic-bilinear-group model
//     where group elements are exponents mod r and e(a,b) = a*b. It is
//     functionally faithful (every algebraic identity of a symmetric prime-
//     order bilinear group holds) but offers no hardness; it exists so that
//     protocol logic can be property-tested with thousands of iterations and
//     so that statistical experiments can run on tiny groups.
//
// Conventions: G and GT are written multiplicatively, matching the paper.
// `g_mul` is the group operation, `g_pow` is exponentiation by a scalar.
// Scalars are integers mod the group order r (the paper's Z_p).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/rng.hpp"

namespace dlr::group {

template <class GG>
concept BilinearGroup = requires(const GG& gg, crypto::Rng& rng, const typename GG::Scalar& s,
                                 const typename GG::G& a, const typename GG::GT& t,
                                 const Bytes& bytes, ByteWriter& w, ByteReader& r,
                                 std::span<const typename GG::G> as,
                                 std::span<const typename GG::GT> ts,
                                 std::span<const typename GG::Scalar> ss) {
  typename GG::Scalar;
  typename GG::G;
  typename GG::GT;

  // Scalars (Z_r).
  { gg.scalar_bits() } -> std::convertible_to<std::size_t>;
  { gg.sc_random(rng) } -> std::same_as<typename GG::Scalar>;
  { gg.sc_from_u64(std::uint64_t{}) } -> std::same_as<typename GG::Scalar>;
  { gg.sc_add(s, s) } -> std::same_as<typename GG::Scalar>;
  { gg.sc_sub(s, s) } -> std::same_as<typename GG::Scalar>;
  { gg.sc_mul(s, s) } -> std::same_as<typename GG::Scalar>;
  { gg.sc_neg(s) } -> std::same_as<typename GG::Scalar>;
  { gg.sc_inv(s) } -> std::same_as<typename GG::Scalar>;
  { gg.sc_eq(s, s) } -> std::convertible_to<bool>;
  { gg.sc_is_zero(s) } -> std::convertible_to<bool>;

  // Source group G.
  { gg.g_gen() } -> std::same_as<typename GG::G>;
  { gg.g_id() } -> std::same_as<typename GG::G>;
  { gg.g_random(rng) } -> std::same_as<typename GG::G>;
  { gg.g_mul(a, a) } -> std::same_as<typename GG::G>;
  { gg.g_inv(a) } -> std::same_as<typename GG::G>;
  { gg.g_pow(a, s) } -> std::same_as<typename GG::G>;
  { gg.g_eq(a, a) } -> std::convertible_to<bool>;
  { gg.g_is_id(a) } -> std::convertible_to<bool>;
  { gg.hash_to_g(bytes) } -> std::same_as<typename GG::G>;
  { gg.g_multi_pow(as, ss) } -> std::same_as<typename GG::G>;

  // Target group GT.
  { gg.gt_gen() } -> std::same_as<typename GG::GT>;
  { gg.gt_id() } -> std::same_as<typename GG::GT>;
  { gg.gt_random(rng) } -> std::same_as<typename GG::GT>;
  { gg.gt_mul(t, t) } -> std::same_as<typename GG::GT>;
  { gg.gt_inv(t) } -> std::same_as<typename GG::GT>;
  { gg.gt_pow(t, s) } -> std::same_as<typename GG::GT>;
  { gg.gt_eq(t, t) } -> std::convertible_to<bool>;
  { gg.gt_is_id(t) } -> std::convertible_to<bool>;
  { gg.gt_multi_pow(ts, ss) } -> std::same_as<typename GG::GT>;

  // Pairing e : G x G -> GT.
  { gg.pair(a, a) } -> std::same_as<typename GG::GT>;

  // Serialization.
  { gg.sc_ser(w, s) };
  { gg.sc_deser(r) } -> std::same_as<typename GG::Scalar>;
  { gg.g_ser(w, a) };
  { gg.g_deser(r) } -> std::same_as<typename GG::G>;
  { gg.gt_ser(w, t) };
  { gg.gt_deser(r) } -> std::same_as<typename GG::GT>;
  { gg.sc_bytes() } -> std::convertible_to<std::size_t>;
  { gg.g_bytes() } -> std::convertible_to<std::size_t>;
  { gg.gt_bytes() } -> std::convertible_to<std::size_t>;

  { gg.name() } -> std::convertible_to<std::string>;
};

/// Optional whole-message GT codec: gt_ser_many/gt_deser_many write and read
/// the same bytes as repeated gt_ser/gt_deser, but a backend whose element
/// codec needs a field inversion shares one inversion across the call.
/// Detected with `requires`; concept-only backends keep the element stream.
template <class GG>
concept NativeGtBatchCodec = requires(const GG& gg, ByteWriter& w, ByteReader& r,
                                      std::span<const typename GG::GT> ts, std::size_t n) {
  gg.gt_ser_many(w, ts);
  { gg.gt_deser_many(r, n) } -> std::same_as<std::vector<typename GG::GT>>;
};

/// Optional batch sampler: g_random_many(rng, n) returns n elements drawn as
/// n calls of g_random would draw them, at a lower cost per element on
/// backends that share work across the batch. Detected with `requires`;
/// concept-only backends loop g_random (schemes::SpaceG::random_many).
template <class GG>
concept NativeGRandomMany = requires(const GG& gg, crypto::Rng& rng, std::size_t n) {
  { gg.g_random_many(rng, n) } -> std::same_as<std::vector<typename GG::G>>;
};

}  // namespace dlr::group
