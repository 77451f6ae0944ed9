#include "compart/router.hpp"

namespace csaw {

Router::Router(LinkModel default_link, std::uint64_t seed, DeliverFn deliver)
    : default_link_(default_link),
      rng_(seed),
      deliver_(std::move(deliver)),
      thread_([this] { run(); }) {}

Router::~Router() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Router::send(Envelope env, std::size_t payload_bytes,
                  std::unique_lock<std::mutex>* held) {
  std::unique_lock lock(mu_);
  ++counters_.sent;
  const Symbol from = env.from_instance;
  const Symbol to = env.to.instance;
  auto part = partitions_.find(from < to ? std::pair{from, to}
                                         : std::pair{to, from});
  if (part != partitions_.end() && part->second) {
    ++counters_.partitioned;
    return;  // vanish, like a cable pull
  }
  const LinkModel link = link_for(from, to);
  if (link.drop_prob > 0.0 && rng_.uniform() < link.drop_prob) {
    ++counters_.dropped;
    return;
  }
  const SteadyTime now = steady_now();
  const Nanos delay = link.transfer_time(payload_bytes, rng_.uniform());
  // Zero-delay link with nothing due ahead of it: deliver on this thread.
  // An envelope already due (queued, or being handed over by the delivery
  // thread right now) goes first, so this one queues behind it.
  if (delay <= Nanos::zero() && !draining_ &&
      (queue_.empty() || queue_.top().deliver_at > now)) {
    ++counters_.delivered;
    lock.unlock();
    if (held != nullptr) held->unlock();
    deliver_(std::move(env));
    return;
  }
  env.deliver_at = now + delay;
  queue_.push(std::move(env));
  cv_.notify_all();
}

void Router::set_link(Symbol from, Symbol to, LinkModel model) {
  std::scoped_lock lock(mu_);
  overrides_[{from, to}] = model;
}

void Router::clear_link(Symbol from, Symbol to) {
  std::scoped_lock lock(mu_);
  overrides_.erase({from, to});
}

void Router::set_partition(Symbol a, Symbol b, bool blocked) {
  std::scoped_lock lock(mu_);
  partitions_[a < b ? std::pair{a, b} : std::pair{b, a}] = blocked;
}

Router::Counters Router::counters() const {
  std::scoped_lock lock(mu_);
  return counters_;
}

LinkModel Router::link_for(Symbol from, Symbol to) const {
  auto it = overrides_.find({from, to});
  return it != overrides_.end() ? it->second : default_link_;
}

void Router::run() {
  std::unique_lock lock(mu_);
  while (true) {
    if (stop_) return;
    if (queue_.empty()) {
      cv_.wait(lock);
      continue;
    }
    const auto next_at = queue_.top().deliver_at;
    if (steady_now() < next_at) {
      cv_.wait_until(lock, next_at);
      continue;
    }
    Envelope env = queue_.top();
    queue_.pop();
    ++counters_.delivered;
    draining_ = true;
    lock.unlock();
    deliver_(std::move(env));
    lock.lock();
    draining_ = false;
  }
}

}  // namespace csaw
