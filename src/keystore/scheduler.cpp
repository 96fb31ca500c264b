#include "keystore/scheduler.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace dlr::keystore {

RefreshScheduler::RefreshScheduler(Source source, RefreshFn refresh, Options opt)
    : source_(std::move(source)), refresh_(std::move(refresh)), opt_(opt) {
  if (opt_.max_concurrent == 0) opt_.max_concurrent = 1;
}

RefreshScheduler::~RefreshScheduler() { stop(); }

void RefreshScheduler::start() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (running_) return;
  }
  // The first sweep runs here, on the caller's thread, so its candidates are
  // queued before start() returns: a caller's sweep_now()/wait_idle() can
  // neither miss them nor race a sweeper thread for the same keys.
  std::vector<Candidate> first = poll_source();
  std::lock_guard<std::mutex> lk(mu_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  enqueue_locked(std::move(first));
  sweeper_ = std::thread([this] { sweeper_loop(); });
  workers_.reserve(opt_.max_concurrent);
  for (std::size_t i = 0; i < opt_.max_concurrent; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void RefreshScheduler::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    stopping_ = true;
    // Drop queued (not yet started) work; busy_ entries for queued keys go
    // with it so a later start() can re-enqueue them.
    for (const auto& c : queue_) busy_.erase(c.id);
    queue_.clear();
    update_backlog_locked();
  }
  cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  std::lock_guard<std::mutex> lk(mu_);
  running_ = false;
}

std::vector<RefreshScheduler::Candidate> RefreshScheduler::poll_source() {
  std::vector<Candidate> cands;
  try {
    cands = source_();
  } catch (...) {
    // A failing source is a keystore bug; keep sweeping regardless.
  }
  telemetry::Registry::global().counter("ks.sched.sweeps").add();
  return cands;
}

// start() ran the first sweep; every later one follows a full interval.
void RefreshScheduler::sweeper_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait_for(lk, opt_.sweep_interval, [this] { return stopping_; });
    if (stopping_) return;
    lk.unlock();
    std::vector<Candidate> cands = poll_source();
    lk.lock();
    if (stopping_) return;
    enqueue_locked(std::move(cands));
  }
}

void RefreshScheduler::enqueue_locked(std::vector<Candidate> cands) {
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    return a.spent_frac > b.spent_frac;  // most-spent first
  });
  bool added = false;
  for (auto& c : cands) {
    if (busy_.count(c.id)) continue;  // queued or in flight already
    busy_.insert(c.id);
    queue_.push_back(std::move(c));
    added = true;
  }
  // Keep the queue itself priority-ordered: a sweep may add a now-critical
  // key behind survivors of the previous sweep.
  std::stable_sort(queue_.begin(), queue_.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.spent_frac > b.spent_frac;
                   });
  update_backlog_locked();
  if (added) cv_.notify_all();
}

void RefreshScheduler::sweep_now() {
  std::vector<Candidate> cands = source_();
  std::lock_guard<std::mutex> lk(mu_);
  enqueue_locked(std::move(cands));
}

void RefreshScheduler::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    Candidate c = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    update_backlog_locked();
    lk.unlock();

    bool ok = false;
    try {
      ok = refresh_(c.id);
    } catch (...) {
      ok = false;
    }
    auto& reg = telemetry::Registry::global();
    if (ok) reg.counter("ks.sched.refreshes").add();
    else reg.counter("ks.sched.failures").add();

    lk.lock();
    if (ok) ++refreshes_;
    else ++failures_;
    --in_flight_;
    busy_.erase(c.id);  // failed keys re-qualify on the next sweep
    update_backlog_locked();
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
}

void RefreshScheduler::update_backlog_locked() {
  telemetry::Registry::global()
      .gauge("ks.refresh_backlog")
      .set(static_cast<double>(queue_.size() + in_flight_));
}

bool RefreshScheduler::wait_idle(std::chrono::milliseconds deadline_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  return idle_cv_.wait_for(lk, deadline_ms,
                           [this] { return queue_.empty() && in_flight_ == 0; });
}

std::uint64_t RefreshScheduler::refreshes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return refreshes_;
}

std::uint64_t RefreshScheduler::failures() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failures_;
}

std::size_t RefreshScheduler::backlog() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size() + in_flight_;
}

}  // namespace dlr::keystore
