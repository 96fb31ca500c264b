// Unified retry policy: bounded exponential backoff with caller-supplied
// jitter randomness and an optional overall deadline.
//
// The transport layer must not depend on crypto::Rng (layering), and retry
// jitter must stay deterministic under test seeds, so RetrySchedule::next
// takes the random word from the caller: pass rng.u64() for jittered
// production backoff, or 0 for fully deterministic doubling.
//
// Usage:
//   RetrySchedule sched(policy);
//   for (;;) {
//     try { return attempt(); }
//     catch (const RetryableThing&) {
//       const auto delay = sched.next(rng.u64());
//       if (!delay) throw;                // budget exhausted: rethrow
//       std::this_thread::sleep_for(*delay);
//     }
//   }
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>

namespace dlr::transport {

/// Jitter of every retry delay: +/- this fraction of it.
inline constexpr double kRetryJitter = 0.5;

struct RetryPolicy {
  int max_attempts = 8;                    // total attempts (first + retries)
  std::chrono::milliseconds base{10};      // delay before the first retry
  std::chrono::milliseconds cap{500};      // backoff ceiling
  std::chrono::milliseconds deadline{0};   // 0 = unbounded wall-clock budget
};

/// One retry loop's worth of mutable state over a RetryPolicy.
class RetrySchedule {
 public:
  explicit RetrySchedule(RetryPolicy p)
      : policy_(p), backoff_(p.base), start_(std::chrono::steady_clock::now()) {}

  /// Record that an attempt failed. Returns the delay to sleep before the
  /// next attempt, or nullopt when the attempt/deadline budget is exhausted
  /// (caller should surface the last error). `rnd` supplies jitter entropy;
  /// 0 disables jitter for this step. `server_hint` is a server-supplied
  /// backoff floor (e.g. the Overloaded retry-after): the returned delay is
  /// never below it -- an overloaded server's own capacity estimate beats
  /// the client's blind exponential guess.
  [[nodiscard]] std::optional<std::chrono::milliseconds> next(
      std::uint64_t rnd = 0, std::chrono::milliseconds server_hint = std::chrono::milliseconds{0}) {
    ++failed_attempts_;
    if (failed_attempts_ >= policy_.max_attempts) return std::nullopt;
    auto delay = backoff_;
    backoff_ = std::min(backoff_ * 2, policy_.cap);
    if (rnd != 0) {
      // Map rnd to u in [-1, 1) and scale the delay by (1 + kRetryJitter * u).
      const double u = static_cast<double>(rnd % 8192) / 4096.0 - 1.0;
      const auto ms = static_cast<long long>(
          static_cast<double>(delay.count()) * (1.0 + kRetryJitter * u));
      // Clamp to >= 1 ms: a 1 ms delay with an unlucky rnd truncates to 0,
      // which turns a retry loop against an overloaded server into a hot
      // spin -- exactly the load amplification the backoff exists to avoid.
      delay = std::chrono::milliseconds{
          std::max<long long>(std::max<long long>(1, delay.count() / 2), ms)};
    }
    delay = std::max(delay, server_hint);
    if (policy_.deadline.count() > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_);
      if (elapsed + delay >= policy_.deadline) return std::nullopt;
    }
    return delay;
  }

  [[nodiscard]] int failed_attempts() const { return failed_attempts_; }

 private:
  RetryPolicy policy_;
  std::chrono::milliseconds backoff_;
  std::chrono::steady_clock::time_point start_;
  int failed_attempts_ = 0;
};

}  // namespace dlr::transport
