// Generic fixed-first-argument pairing over any BilinearGroup.
//
// PreparedPair<GG> front-ends the fixed-argument Miller precomputation: on
// backends with a native `prepare_pair` hook (TateGroup, and decorators that
// forward it) construction runs the Miller loop once and every pair() call is
// a cheap line-evaluation + Lucas final exponentiation; on concept-only
// backends (MockGroup) it degrades to per-call gg.pair, so scheme code can
// use it unconditionally.
//
// pair_many() evaluates many coordinates against the fixed argument -- on
// the native path this additionally shares ONE batched base-field inversion
// across all final exponentiations, which is why DlrCore::pair_cts routes
// every coordinate of a round-1 message through a single call.
//
// Every evaluation bumps the `group.pairing.prepared` counter, so bench JSON
// shows how much pairing work rode the fast lane.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "group/bilinear.hpp"
#include "telemetry/metrics.hpp"

namespace dlr::group {

template <class GG>
concept NativePreparedPairing = requires(const GG& gg, const typename GG::G& a) {
  gg.prepare_pair(a);
};

namespace detail {

struct NoNativePrepared {};

template <class GG>
struct NativePreparedType {
  using type = NoNativePrepared;
};
template <NativePreparedPairing GG>
struct NativePreparedType<GG> {
  using type = decltype(std::declval<const GG&>().prepare_pair(
      std::declval<const typename GG::G&>()));
};

}  // namespace detail

template <BilinearGroup GG>
class PreparedPair {
 public:
  using G = typename GG::G;
  using GT = typename GG::GT;

  PreparedPair(const GG& gg, const G& a)
      : a_(a),
        tm_prepared_(&telemetry::Registry::global().counter("group.pairing.prepared",
                                                            {{"backend", gg.name()}})) {
    if constexpr (NativePreparedPairing<GG>) native_.emplace(gg.prepare_pair(a));
  }

  [[nodiscard]] const G& base() const { return a_; }

  [[nodiscard]] GT pair(const GG& gg, const G& b) const {
    tm_prepared_->add();
    if constexpr (NativePreparedPairing<GG>) {
      return native_->pair(b);
    } else {
      return gg.pair(a_, b);
    }
  }

  [[nodiscard]] std::vector<GT> pair_many(const GG& gg, std::span<const G> bs) const {
    tm_prepared_->add(bs.size());
    if constexpr (NativePreparedPairing<GG>) {
      return native_->pair_many(bs);
    } else {
      std::vector<GT> out;
      out.reserve(bs.size());
      for (const auto& b : bs) out.push_back(gg.pair(a_, b));
      return out;
    }
  }

 private:
  G a_;
  std::optional<typename detail::NativePreparedType<GG>::type> native_;
  telemetry::Counter* tm_prepared_ = nullptr;
};

}  // namespace dlr::group
