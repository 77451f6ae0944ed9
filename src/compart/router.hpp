// The message router: link faults and delays between instances.
//
// A zero-delay envelope is delivered on the sender's thread, inside send(),
// unless an envelope already due is still ahead of it (queued, or being
// handed over by the delivery thread), in which case it queues behind that
// one. Delayed envelopes (latency or bandwidth models) wait in a time-ordered
// queue drained by one delivery thread. Partitions, drops and the counters
// apply identically on both paths.
//
// Deadlock freedom: deliver_ always runs with the router lock released, so a
// delivery may itself send (a push's ack re-enters send() one level deep).
// Delivery takes only leaf locks (instance state, table, scheduler wake, ack
// map, transport queue) and never waits on them. No sender holds one of
// them across an inline delivery: the runtime admits an ack under the
// receiving instance's lock and hands that lock over as `held`. The one
// blocking edge is still sender -> ack, and it carries a deadline.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "compart/link.hpp"
#include "compart/message.hpp"
#include "support/rng.hpp"

namespace csaw {

class Router {
 public:
  using DeliverFn = std::function<void(Envelope&&)>;

  Router(LinkModel default_link, std::uint64_t seed, DeliverFn deliver);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Delivers `env` after the (from,to)-link's delay -- before returning, on
  // this thread, when that delay is zero; may drop. A caller that must keep
  // its own lock across the admission (partition, drop, delay draws) passes
  // it as `held`: it is released before an inline delivery.
  void send(Envelope env, std::size_t payload_bytes,
            std::unique_lock<std::mutex>* held = nullptr);

  // Per-instance-pair link override; (a,b) is directional.
  void set_link(Symbol from, Symbol to, LinkModel model);
  // Removes the (from,to) override so the pair falls back to default_link.
  void clear_link(Symbol from, Symbol to);
  // Blocks/unblocks both directions between a and b (network partition).
  void set_partition(Symbol a, Symbol b, bool blocked);

  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;      // by drop_prob
    std::uint64_t partitioned = 0;  // by partitions
  };
  [[nodiscard]] Counters counters() const;

 private:
  void run();
  [[nodiscard]] LinkModel link_for(Symbol from, Symbol to) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  LinkModel default_link_;
  std::map<std::pair<Symbol, Symbol>, LinkModel> overrides_;
  std::map<std::pair<Symbol, Symbol>, bool> partitions_;
  Rng rng_;
  DeliverFn deliver_;
  Counters counters_;

  struct Later {
    bool operator()(const Envelope& a, const Envelope& b) const {
      return a.deliver_at > b.deliver_at;
    }
  };
  std::priority_queue<Envelope, std::vector<Envelope>, Later> queue_;
  bool stop_ = false;
  bool draining_ = false;  // the delivery thread is handing one over
  std::thread thread_;  // started last, joined in destructor
};

}  // namespace csaw
