// Cross-request micro-batch collector for the decryption path.
//
// Readers (producers) try_submit decoded requests; crypto workers
// (consumers) call collect(), which blocks until the queue holds something
// and then takes up to `cap` items at once -- whatever is queued, never
// waiting for more. Batches form only from requests that queued while every
// worker was busy, so an idle server hands a lone request over at once and a
// loaded one amortizes its per-batch work over the backlog. After stop(),
// pending items still drain, in batches.
//
// try_submit never blocks: a full queue answers Full and the caller sheds
// (DESIGN.md §13). Many producers and many consumers are fine; every
// hand-off happens under one mutex, so a batch is consumed by exactly one
// worker. Gauge svc.queue_depth tracks the backlog, set under that mutex on
// each push and each take.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace dlr::service {

template <class Item>
class BatchCollector {
 public:
  struct Options {
    std::size_t cap = 16;          // max items per batch
    std::size_t queue_cap = 1024;  // try_submit() answers Full at this depth
  };

  explicit BatchCollector(Options opt) : opt_(opt) {
    if (opt_.cap == 0) opt_.cap = 1;
    if (opt_.queue_cap < opt_.cap) opt_.queue_cap = opt_.cap;
  }

  enum class Submit : std::uint8_t { Ok = 0, Full = 1, Stopped = 2 };

  /// Non-blocking enqueue for load-shedding producers (DESIGN.md §13): a
  /// full queue returns Full immediately -- the item is NOT queued and the
  /// caller answers Overloaded -- instead of parking the reader thread and
  /// stalling every request behind it on the same connection.
  [[nodiscard]] Submit try_submit(Item& item) {
    std::unique_lock<std::mutex> lk(mu_);
    if (stopping_) return Submit::Stopped;
    if (q_.size() >= opt_.queue_cap) return Submit::Full;
    q_.push_back(std::move(item));
    depth_gauge().set(static_cast<double>(q_.size()));
    lk.unlock();
    not_empty_.notify_one();
    return Submit::Ok;
  }

  /// Block until an item is queued, then take up to `cap` of them. An empty
  /// vector means the collector is stopped AND drained -- the consumer
  /// should exit.
  std::vector<Item> collect() {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [&] { return stopping_ || !q_.empty(); });
    const std::size_t n = std::min(q_.size(), opt_.cap);
    std::vector<Item> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    depth_gauge().set(static_cast<double>(q_.size()));
    const bool more = !q_.empty();
    lk.unlock();
    if (more) not_empty_.notify_one();
    return batch;
  }

  /// Refuse every later try_submit (-> Stopped) and wake every collector
  /// (pending items still drain; consumers exit once the queue is empty).
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t queued() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }

 private:
  static telemetry::Gauge& depth_gauge() {
    static telemetry::Gauge& g = telemetry::Registry::global().gauge("svc.queue_depth");
    return g;
  }

  Options opt_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<Item> q_;
  bool stopping_ = false;
};

}  // namespace dlr::service
