// Leakage-budget-driven refresh scheduler (DESIGN.md §11).
//
// The paper's continual-leakage model (Definition 3.2) charges every
// leakage-producing operation against a per-period budget of ℓ bits; security
// holds while each period leaks at most ℓ. PR 2-5 approximated that with
// client-driven refresh-every-K-decryptions; this scheduler inverts control:
// the SERVER sweeps its keystore and refreshes the keys that have spent the
// largest fraction of their budget, long before any reaches it.
//
// Policy:
//   - A sweep pulls candidates from the Source callback (the keystore
//     reports every key at or above `refresh_threshold` of its budget,
//     most-spent first). start() runs the first sweep on the caller's
//     thread; the sweeper thread then runs one every `sweep_interval`.
//   - Candidates enter a most-spent-first queue; at most `max_concurrent`
//     refreshes run at once, so a refresh storm can never starve decryption
//     traffic of worker threads or share locks.
//   - A key already queued or in flight is not re-enqueued (dedup), and a
//     failed refresh (e.g. the 2PC lost a race with a client-driven one)
//     simply waits for the next sweep to re-evaluate it.
//
// The scheduler knows nothing about shares or epochs: Source and RefreshFn
// are callbacks, which is what makes the policy unit-testable with plain
// lambdas (tests drive sweeps synchronously via sweep_now()).
//
// Metrics: ks.sched.sweeps, ks.sched.refreshes, ks.sched.failures,
// ks.refresh_backlog (gauge: queued + in-flight).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "keystore/key_id.hpp"

namespace dlr::keystore {

class RefreshScheduler {
 public:
  struct Candidate {
    KeyId id;
    double spent_frac = 0;  // spent_bits / budget_bits, may exceed 1
  };

  /// Keys currently at/above the refresh threshold, any order.
  using Source = std::function<std::vector<Candidate>()>;
  /// Refresh one key; returns success. Must be safe to call concurrently
  /// for DIFFERENT keys (the scheduler never refreshes one key twice at once).
  using RefreshFn = std::function<bool(const KeyId&)>;

  struct Options {
    std::chrono::milliseconds sweep_interval{50};
    std::size_t max_concurrent = 2;
  };

  RefreshScheduler(Source source, RefreshFn refresh, Options opt);
  RefreshScheduler(Source source, RefreshFn refresh);  // default Options
  ~RefreshScheduler();

  RefreshScheduler(const RefreshScheduler&) = delete;
  RefreshScheduler& operator=(const RefreshScheduler&) = delete;

  /// Run the first sweep on the caller's thread, then start the sweeper
  /// (one sweep per interval) and the worker threads. Idempotent.
  void start();
  /// Stop all threads; in-flight refreshes finish, the queue is dropped.
  void stop();

  /// Run one sweep synchronously on the caller's thread (enqueues only;
  /// workers -- which must be start()ed -- do the refreshing). For tests.
  void sweep_now();

  /// Block until the queue is empty and no refresh is in flight, or until
  /// `deadline_ms` elapses. Returns true if drained.
  bool wait_idle(std::chrono::milliseconds deadline_ms);

  [[nodiscard]] std::uint64_t refreshes() const;
  [[nodiscard]] std::uint64_t failures() const;
  [[nodiscard]] std::size_t backlog() const;  // queued + in flight

 private:
  /// One call of the source, counted as a sweep; a throwing source yields
  /// no candidates.
  std::vector<Candidate> poll_source();
  void sweeper_loop();
  void worker_loop();
  void enqueue_locked(std::vector<Candidate> cands);
  void update_backlog_locked();

  Source source_;
  RefreshFn refresh_;
  Options opt_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes workers (queue) and stop
  std::condition_variable idle_cv_;  // wakes wait_idle
  bool running_ = false;
  bool stopping_ = false;
  std::deque<Candidate> queue_;      // most-spent first
  std::set<KeyId> busy_;             // queued or in flight
  std::size_t in_flight_ = 0;
  std::uint64_t refreshes_ = 0;
  std::uint64_t failures_ = 0;

  std::thread sweeper_;
  std::vector<std::thread> workers_;
};

inline RefreshScheduler::RefreshScheduler(Source source, RefreshFn refresh)
    : RefreshScheduler(std::move(source), std::move(refresh), Options{}) {}

}  // namespace dlr::keystore
