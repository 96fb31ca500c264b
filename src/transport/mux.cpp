#include "transport/mux.hpp"

#include "telemetry/metrics.hpp"

namespace dlr::transport {

SessionMux::SessionMux(std::shared_ptr<Conn> conn) : conn_(std::move(conn)) {
  pump_thread_ = std::thread([this] { pump(); });
}

std::unique_ptr<SessionMux::Session> SessionMux::open() {
  std::lock_guard lock(mu_);
  return add_locked(next_id_++);
}

std::unique_ptr<SessionMux::Session> SessionMux::open_with_id(std::uint32_t id) {
  std::lock_guard lock(mu_);
  if (sessions_.count(id))
    throw TransportError(Errc::Protocol, "session id already open: " + std::to_string(id));
  next_id_ = std::max(next_id_, id + 1);
  return add_locked(id);
}

std::unique_ptr<SessionMux::Session> SessionMux::add_locked(std::uint32_t id) {
  auto st = std::make_shared<SessionState>();
  st->poisoned = dead_;
  st->poison_code = dead_code_;
  st->poison_what = dead_what_;
  sessions_[id] = st;
  telemetry::Registry::global().counter("svc.sessions").add();
  return std::make_unique<Session>(this, id, std::move(st));
}

Frame SessionMux::Session::recv(std::optional<Millis> timeout) {
  std::unique_lock lock(st_->mu);
  const auto ready = [&] { return !st_->queue.empty() || st_->poisoned; };
  if (timeout) {
    if (!st_->cv.wait_for(lock, *timeout, ready))
      throw TransportError(Errc::Timeout, "session " + std::to_string(id_) + " recv");
  } else {
    st_->cv.wait(lock, ready);
  }
  if (!st_->queue.empty()) {
    Frame f = std::move(st_->queue.front());
    st_->queue.pop_front();
    return f;
  }
  throw TransportError(st_->poison_code, st_->poison_what);
}

void SessionMux::pump() {
  for (;;) {
    Frame f;
    try {
      f = conn_->recv_blocking();
    } catch (const TransportError& e) {
      poison_all(stopping_.load() ? Errc::SessionClosed : e.code(), e.what());
      return;
    }
    std::shared_ptr<SessionState> st;
    {
      std::lock_guard lock(mu_);
      auto it = sessions_.find(f.session);
      if (it != sessions_.end()) st = it->second;
    }
    if (!st) {
      orphans_.fetch_add(1);
      telemetry::Registry::global().counter("transport.orphan_frames").add();
      continue;
    }
    {
      std::lock_guard lock(st->mu);
      st->queue.push_back(std::move(f));
    }
    st->cv.notify_one();
  }
}

void SessionMux::poison_all(Errc code, const std::string& what) {
  std::lock_guard lock(mu_);
  dead_ = true;
  dead_code_ = code;
  dead_what_ = what;
  for (auto& [id, st] : sessions_) {
    {
      std::lock_guard slock(st->mu);
      st->poisoned = true;
      st->poison_code = code;
      st->poison_what = what;
    }
    st->cv.notify_all();
  }
}

void SessionMux::unregister(std::uint32_t id) {
  std::lock_guard lock(mu_);
  sessions_.erase(id);
}

void SessionMux::stop() {
  std::lock_guard lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  conn_->shutdown();
  if (pump_thread_.joinable()) pump_thread_.join();
  poison_all(Errc::SessionClosed, "mux stopped");
}

}  // namespace dlr::transport
