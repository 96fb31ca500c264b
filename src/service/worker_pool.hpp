// Fixed-size worker pool with a bounded job queue.
//
// try_submit() never blocks: a full queue answers Full (the connection
// reader sheds the request instead of growing memory without bound) and a
// stopping pool answers Stopped. stop() lets queued jobs drain, then joins.
// Gauge svc.queue_depth tracks the backlog.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dlr::service {

class WorkerPool {
 public:
  explicit WorkerPool(int workers, std::size_t queue_cap = 1024);
  ~WorkerPool() { stop(); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  enum class Submit : std::uint8_t { Ok = 0, Full = 1, Stopped = 2 };

  /// Non-blocking enqueue: a full queue returns Full immediately (job
  /// dropped) so readers can shed with Overloaded instead of stalling.
  [[nodiscard]] Submit try_submit(std::function<void()> job);

  /// Stop accepting jobs, drain the queue, join the workers. Idempotent.
  void stop();

  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()); }
  [[nodiscard]] std::size_t queued() const;

 private:
  void run();

  mutable std::mutex mu_;
  std::mutex join_mu_;
  std::condition_variable cv_nonempty_;
  std::deque<std::function<void()>> queue_;
  std::size_t queue_cap_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace dlr::service
