#include "service/worker_pool.hpp"

#include <stdexcept>

namespace dlr::service {

WorkerPool::WorkerPool(int workers, std::size_t queue_cap) : queue_cap_(queue_cap) {
  if (workers < 1) throw std::invalid_argument("WorkerPool: need at least one worker");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) threads_.emplace_back([this] { run(); });
}

WorkerPool::Submit WorkerPool::try_submit(std::function<void()> job) {
  {
    std::unique_lock lock(mu_);
    if (stopping_) return Submit::Stopped;
    if (queue_.size() >= queue_cap_) return Submit::Full;
    queue_.push_back(std::move(job));
  }
  cv_nonempty_.notify_one();
  return Submit::Ok;
}

void WorkerPool::stop() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_nonempty_.notify_all();
  std::lock_guard jlock(join_mu_);  // serialize concurrent stop() callers
  for (auto& t : threads_)
    if (t.joinable()) t.join();
}

std::size_t WorkerPool::queued() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

void WorkerPool::run() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mu_);
      cv_nonempty_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping && drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

}  // namespace dlr::service
