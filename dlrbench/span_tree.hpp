// Per-layer self times from the tracer's finished spans.
//
// A span's self time is its duration minus the part of its interval that its
// child spans cover (children clipped to the parent, overlaps merged). Child
// links cross threads: the server's svc.dec span is a child of the client's
// svc.client.attempt through the trace context the request frame carries,
// and all spans of one process share one monotonic clock, so the intervals
// are directly comparable.
//
// Each decryption the benchmark traces is a "bench.dec" root. Its tree is
// split into layers by span label (see layer_of). KsFleet sends no trace
// context, so on the keystore route the server's ks.dec spans are roots of
// their own; their time is subtracted from the client-side gap between
// dec.round1 and dec.finish, which leaves the wire and queueing time. Refresh
// layers are summed over every ref.*/svc.refresh/ks.refresh span, attached or
// not, and divided by the number of completed refreshes (ref.finish spans).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/trace.hpp"

namespace dlrbench {

using dlr::telemetry::Span;

/// Length of the union of [lo, hi) intervals after clipping them to
/// [from, to).
inline std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                               std::int64_t from, std::int64_t to) {
  for (auto& [lo, hi] : iv) {
    lo = std::max(lo, from);
    hi = std::min(hi, to);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Parent/child index over a flat span list. A span whose parent is not in
/// the list is a root.
struct SpanTree {
  const std::vector<Span>& spans;
  std::vector<std::vector<std::size_t>> children;
  std::vector<long> parent;  // -1 = root
  std::vector<std::int64_t> self_ns;

  explicit SpanTree(const std::vector<Span>& s)
      : spans(s), children(s.size()), parent(s.size(), -1), self_ns(s.size(), 0) {
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    by_id.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) by_id.emplace(s[i].id, i);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto it = s[i].parent ? by_id.find(s[i].parent) : by_id.end();
      if (it == by_id.end()) continue;
      parent[i] = static_cast<long>(it->second);
      children[it->second].push_back(i);
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      iv.reserve(children[i].size());
      for (const std::size_t c : children[i]) iv.emplace_back(s[c].start_ns, s[c].end_ns);
      self_ns[i] = (s[i].end_ns - s[i].start_ns) - covered_ns(std::move(iv), s[i].start_ns,
                                                               s[i].end_ns);
    }
  }

  [[nodiscard]] std::size_t root_of(std::size_t i) const {
    while (parent[i] >= 0) i = static_cast<std::size_t>(parent[i]);
    return i;
  }

  /// Every span of the tree rooted at `root`, root first.
  [[nodiscard]] std::vector<std::size_t> subtree(std::size_t root) const {
    std::vector<std::size_t> out{root};
    for (std::size_t k = 0; k < out.size(); ++k)
      for (const std::size_t c : children[out[k]]) out.push_back(c);
    return out;
  }
};

/// Sums over the traced decryptions and refreshes, in nanoseconds.
struct Breakdown {
  // Decryption layers, summed over every bench.dec tree.
  double client = 0;     // bench.dec + svc.client.dec self; keystore: outside the gap
  double wire = 0;       // svc.client.attempt self; keystore: the gap minus server spans
  double p1_round1 = 0;  // dec.round1
  double p1_finish = 0;  // dec.finish
  double server = 0;     // svc.dec self (P2Server pipeline, per item)
  double ks_server = 0;  // ks.dec self (KsServer, unattached roots)
  double p2_round2 = 0;  // dec.round2
  double other = 0;      // any other label inside a decryption tree
  double root_total = 0;
  std::size_t decrypts = 0;      // bench.dec roots
  std::size_t round2_items = 0;  // dec.round2 spans (one per served item)
  // Refresh layers, summed over every span of these labels.
  double ref_p1 = 0;         // ref.round1 + ref.finish
  double ref_server = 0;     // svc.refresh self
  double ref_ks_server = 0;  // ks.refresh self
  double ref_p2 = 0;         // ref.round2
  std::size_t refreshes = 0;  // ref.finish spans

  /// Sum of the decryption layers as a share of the summed root durations;
  /// 1.0 when every child span lies inside its parent.
  [[nodiscard]] double accounted_frac() const {
    const double layers =
        client + wire + p1_round1 + p1_finish + server + ks_server + p2_round2 + other;
    return root_total > 0 ? layers / root_total : 0;
  }
};

inline Breakdown analyze(const std::vector<Span>& spans) {
  const SpanTree t(spans);
  Breakdown b;
  double unattached_server = 0;  // ks.dec / svc.dec trees outside any bench.dec
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& l = spans[i].label;
    const auto self = static_cast<double>(t.self_ns[i]);
    if (l == "ref.round1" || l == "ref.finish") b.ref_p1 += self;
    if (l == "ref.finish") ++b.refreshes;
    if (l == "svc.refresh") b.ref_server += self;
    if (l == "ks.refresh") b.ref_ks_server += self;
    if (l == "ref.round2") b.ref_p2 += self;
    if (t.parent[i] >= 0) continue;
    if ((l == "ks.dec" || l == "svc.dec")) {
      for (const std::size_t k : t.subtree(i)) {
        const std::string& kl = spans[k].label;
        const auto ks = static_cast<double>(t.self_ns[k]);
        unattached_server += ks;
        if (kl == "dec.round2") {
          b.p2_round2 += ks;
          ++b.round2_items;
        } else if (l == "ks.dec") {
          b.ks_server += ks;
        } else {
          b.server += ks;
        }
      }
    }
    if (l != "bench.dec") continue;

    ++b.decrypts;
    b.root_total += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    const auto tree = t.subtree(i);
    bool has_client_span = false;
    for (const std::size_t k : tree) has_client_span |= spans[k].label == "svc.client.dec";
    for (const std::size_t k : tree) {
      const std::string& kl = spans[k].label;
      const auto ks = static_cast<double>(t.self_ns[k]);
      if (kl == "bench.dec" && !has_client_span) {
        // Keystore route: no client/attempt spans. The root's self time
        // between the first dec.round1 end and the last dec.finish start is
        // the request in flight; the rest is the client's own work.
        std::int64_t gap_lo = 0, gap_hi = 0;
        bool r1 = false, fin = false;
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const std::size_t c : t.children[k]) {
          const Span& cs = spans[c];
          iv.emplace_back(cs.start_ns, cs.end_ns);
          if (cs.label == "dec.round1" && (!r1 || cs.end_ns < gap_lo)) {
            gap_lo = cs.end_ns;
            r1 = true;
          }
          if (cs.label == "dec.finish" && (!fin || cs.start_ns > gap_hi)) {
            gap_hi = cs.start_ns;
            fin = true;
          }
        }
        double gap = 0;
        if (r1 && fin && gap_hi > gap_lo)
          gap = static_cast<double>((gap_hi - gap_lo) - covered_ns(iv, gap_lo, gap_hi));
        b.wire += gap;
        b.client += ks - gap;
      } else if (kl == "bench.dec" || kl == "svc.client.dec") {
        b.client += ks;
      } else if (kl == "svc.client.attempt") {
        b.wire += ks;
      } else if (kl == "dec.round1") {
        b.p1_round1 += ks;
      } else if (kl == "dec.finish") {
        b.p1_finish += ks;
      } else if (kl == "svc.dec") {
        b.server += ks;
      } else if (kl == "ks.dec") {
        b.ks_server += ks;
      } else if (kl == "dec.round2") {
        b.p2_round2 += ks;
        ++b.round2_items;
      } else {
        b.other += ks;
      }
    }
  }
  // The unattached server trees ran inside the keystore gaps counted as wire.
  b.wire -= unattached_server;
  return b;
}

}  // namespace dlrbench
