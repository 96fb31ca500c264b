// Per-endpoint circuit breaker (closed / open / half-open), layered UNDER
// RetryPolicy: the retry loop asks the breaker for admission before every
// attempt, reports the attempt's outcome after, and fails fast while the
// breaker is open instead of burning its attempt budget against an endpoint
// that is known-bad.
//
// State machine:
//
//   Closed ----(failure_threshold consecutive failures)----> Open
//   Open ------(open_for elapsed)---------------------------> HalfOpen
//   HalfOpen --(one probe admitted; success)----------------> Closed
//   HalfOpen --(probe failure)------------------------------> Open (re-armed)
//
// In HalfOpen exactly one in-flight probe is admitted; concurrent callers
// are rejected as if open, so a recovering server sees a single request, not
// a thundering herd. try_acquire() returning Rejected carries the remaining
// open time -- callers surface it as a retry-after so schedules sleep past
// the cooldown instead of spinning on fast failures.
//
// Thread safety: all transitions run under one mutex; the hot path is a
// single lock/unlock pair with no syscalls. Time is steady_clock, injected
// via now() for tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

namespace dlr::transport {

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    int failure_threshold = 5;              // consecutive failures -> Open
    std::chrono::milliseconds open_for{1000};  // cooldown before HalfOpen
  };

  enum class State : std::uint8_t { Closed = 0, Open = 1, HalfOpen = 2 };

  struct Admission {
    bool admitted = false;
    bool probe = false;  // admitted as the single half-open probe
    std::chrono::milliseconds retry_after{0};  // when rejected: time left open
  };

  CircuitBreaker() : CircuitBreaker(Options{}) {}
  explicit CircuitBreaker(Options opt) : opt_(opt) {}

  /// Ask to send one request. When rejected, retry_after is the remaining
  /// cooldown (>= 1 ms) the caller should wait before asking again.
  [[nodiscard]] Admission try_acquire(Clock::time_point now = Clock::now()) {
    std::lock_guard lk(mu_);
    switch (state_) {
      case State::Closed:
        return {.admitted = true};
      case State::Open: {
        if (now - opened_at_ >= opt_.open_for) {
          state_ = State::HalfOpen;
          probe_in_flight_ = true;
          ++transitions_;
          return {.admitted = true, .probe = true};
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            opt_.open_for - (now - opened_at_));
        return {.retry_after = std::max(left, std::chrono::milliseconds{1})};
      }
      case State::HalfOpen: {
        if (!probe_in_flight_) {
          probe_in_flight_ = true;
          return {.admitted = true, .probe = true};
        }
        // A probe is already out; reject concurrents for one cooldown-ish
        // beat so they don't pile onto a server that may still be sick.
        return {.retry_after = std::max(
                    std::chrono::duration_cast<std::chrono::milliseconds>(opt_.open_for / 4),
                    std::chrono::milliseconds{1})};
      }
    }
    return {.admitted = true};  // unreachable
  }

  /// Report the outcome of an admitted request. Overloaded/transport errors
  /// count as failures; typed non-retryable app errors should be reported as
  /// success (the endpoint answered -- it is not down). Returns whether this
  /// report closed the circuit.
  bool on_success() {
    std::lock_guard lk(mu_);
    consecutive_failures_ = 0;
    probe_in_flight_ = false;
    if (state_ == State::Closed) return false;
    state_ = State::Closed;
    ++transitions_;
    ++closes_;
    return true;
  }

  /// Returns whether this report opened the circuit.
  bool on_failure(Clock::time_point now = Clock::now()) {
    std::lock_guard lk(mu_);
    probe_in_flight_ = false;
    if (state_ == State::HalfOpen) {  // probe failed: straight back to Open
      trip(now);
      return true;
    }
    if (state_ == State::Open) return false;  // already open (late failure report)
    if (++consecutive_failures_ < opt_.failure_threshold) return false;
    trip(now);
    return true;
  }

  [[nodiscard]] State state() const {
    std::lock_guard lk(mu_);
    return state_;
  }
  [[nodiscard]] std::uint64_t opens() const {
    std::lock_guard lk(mu_);
    return opens_;
  }
  [[nodiscard]] std::uint64_t closes() const {
    std::lock_guard lk(mu_);
    return closes_;
  }

  [[nodiscard]] static const char* state_name(State s) {
    switch (s) {
      case State::Closed: return "closed";
      case State::Open: return "open";
      case State::HalfOpen: return "half-open";
    }
    return "?";
  }

 private:
  void trip(Clock::time_point now) {
    state_ = State::Open;
    opened_at_ = now;
    consecutive_failures_ = 0;
    ++transitions_;
    ++opens_;
  }

  Options opt_;
  mutable std::mutex mu_;
  State state_ = State::Closed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  Clock::time_point opened_at_{};
  std::uint64_t transitions_ = 0;
  std::uint64_t opens_ = 0;
  std::uint64_t closes_ = 0;
};

}  // namespace dlr::transport
