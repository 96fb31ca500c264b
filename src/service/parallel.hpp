// Small shared-pool parallel-for for the ell-coordinate loops.
//
// The DLR/HPSKE hot paths are embarrassingly parallel across ciphertext
// coordinates: pair_ct evaluates kappa+1 independent pairings, MaskedEnc
// raises width independent multi-pows, and Refresh touches each share row
// separately. ParallelFor fans such loops out over a lazily-started global
// worker pool; the caller participates in claiming indices, so nested run()
// calls cannot deadlock and a zero-thread pool degrades to a plain loop.
//
// Fan-out is controlled by a config resolved ONCE per process (getenv is not
// on the hot path). In precedence order:
//
//   1. set_parallel_threads_for_test(n)   -- test-only override hook
//   2. DLR_PARALLEL env var, parsed at first use:
//        "0" / "off"   -> serial (keeps CountingGroup op profiles exact and
//                         experiments reproducible op-for-op)
//        "on" / "auto" -> default_workers() threads
//        "<N>"         -> N threads
//   3. set_adaptive_parallel_default(n)   -- what the service runtime sets at
//      startup when the env var is unset: hardware concurrency minus its own
//      pipeline threads (so fan-out never oversubscribes the server's cores)
//   4. otherwise serial (library/CLI default, unchanged behavior)
//
// A thread can additionally suppress fan-out for a scope with
// FanoutSuppressGuard: the server's crypto workers use it when a batch of
// requests already saturates the machine, where coordinate fan-out would only
// add contention.
//
// Results are deterministic regardless of thread count because every loop we
// fan out writes disjoint slots of a pre-sized output vector and group
// arithmetic is exact.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace dlr::service {

/// Fan-out width for DLR_PARALLEL=on/auto: hardware_concurrency clamped to
/// [2, 8], or 4 when unknown.
[[nodiscard]] int default_workers();

/// Raw (uncached) parse of the DLR_PARALLEL env var; 0 means "stay serial".
/// Exposed for the knob-parsing tests -- runtime code goes through
/// parallel_threads(), which caches this at first use.
[[nodiscard]] int parallel_env_threads();

/// The resolved fan-out width (see header comment for precedence). The env
/// var is read once, on the first call; afterwards this is two relaxed
/// atomic loads.
[[nodiscard]] int parallel_threads();

/// Test-only override: force parallel_threads() == n (n >= 0) regardless of
/// the environment; -1 restores normal resolution.
void set_parallel_threads_for_test(int n);

/// Adaptive default used when DLR_PARALLEL is unset: the service runtime
/// calls this at startup with hw_threads - pipeline_threads (clamped >= 0).
/// -1 clears it (back to "serial unless the env var says otherwise").
void set_adaptive_parallel_default(int n);

/// True while a FanoutSuppressGuard is active on this thread.
[[nodiscard]] bool fanout_suppressed();

/// RAII: par_for on this thread runs serially while the guard lives. Used by
/// batch crypto workers -- cross-request batching already saturates the
/// cores, so per-request coordinate fan-out would only thrash.
class FanoutSuppressGuard {
 public:
  explicit FanoutSuppressGuard(bool active = true);
  ~FanoutSuppressGuard();
  FanoutSuppressGuard(const FanoutSuppressGuard&) = delete;
  FanoutSuppressGuard& operator=(const FanoutSuppressGuard&) = delete;

 private:
  bool active_;
};

class ParallelFor {
 public:
  /// A pool with `threads` workers (0 = no workers; run() is a plain loop).
  /// Workers are started lazily on the first parallel run().
  explicit ParallelFor(int threads);
  ~ParallelFor();
  ParallelFor(const ParallelFor&) = delete;
  ParallelFor& operator=(const ParallelFor&) = delete;

  /// Invoke body(i) for every i in [0, n), possibly concurrently. Blocks
  /// until all iterations finished. The calling thread claims indices too.
  /// If any body throws, the first exception is rethrown here once the
  /// batch has drained.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

  [[nodiscard]] int threads() const { return threads_; }

  /// Process-wide pool used by par_for(). Sized once, at first use; per-call
  /// gating still happens in par_for, so overrides that drop the width to 0
  /// later disable fan-out.
  static ParallelFor& global();

 private:
  struct Batch;
  struct State;

  void ensure_started();
  static void worker_main(std::shared_ptr<State> st);
  static void drive(Batch& b);

  int threads_;
  std::shared_ptr<State> state_;
};

/// Run body over [0, n): on the global pool when the resolved config enables
/// it (and no FanoutSuppressGuard is active on this thread), serially
/// otherwise. This is the only entry point scheme code uses.
void par_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace dlr::service
