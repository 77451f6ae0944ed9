// Commands, responses, and the queues shared between bench clients (the
// redis-benchmark stand-in) and the server instance's junctions.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "serdes/archive.hpp"
#include "support/clock.hpp"
#include "support/result.hpp"

namespace csaw::miniredis {

struct Command {
  enum class Op : std::uint8_t { kGet, kSet, kDel };
  Op op = Op::kGet;
  std::string key;
  std::string value;  // kSet only
};

template <typename Ar>
void serdes_fields(Ar& ar, Command& c) {
  ar.field(c.op);
  ar.field(c.key);
  ar.field(c.value);
}

struct Response {
  bool found = false;
  std::string value;
};

template <typename Ar>
void serdes_fields(Ar& ar, Response& r) {
  ar.field(r.found);
  ar.field(r.value);
}

// A small MPMC blocking queue: clients push commands, the front-end
// junction's host block pops them (this is the host-side "application
// logic" that schedules the junction in the paper's model).
template <typename T>
class Mailbox {
 public:
  void push(T item) {
    {
      std::scoped_lock lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  std::optional<T> pop(Deadline deadline = Deadline::infinite()) {
    std::unique_lock lock(mu_);
    while (items_.empty()) {
      if (deadline.is_infinite()) {
        cv_.wait(lock);
      } else if (cv_.wait_until(lock, deadline.when()) ==
                     std::cv_status::timeout &&
                 items_.empty()) {
        return std::nullopt;
      }
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Copies the front item without removing it; pair with try_pop() on
  // completion for at-least-once intake (an aborted junction scheduling must
  // not lose the request).
  std::optional<T> peek(Deadline deadline = Deadline::infinite()) {
    std::unique_lock lock(mu_);
    while (items_.empty()) {
      if (deadline.is_infinite()) {
        cv_.wait(lock);
      } else if (cv_.wait_until(lock, deadline.when()) ==
                     std::cv_status::timeout &&
                 items_.empty()) {
        return std::nullopt;
      }
    }
    return items_.front();
  }

  std::optional<T> try_pop() {
    std::scoped_lock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
};

// The correlated request/reply door between service callers and the front
// junction that serves them (the host code that schedules a junction and
// reads its result back, in the paper's model).
//
// Caller side: submit() registers an id and queues (id, request); wait()
// returns that id's reply, and abandons the id when it times out.
// Junction side: the front junction's host block take()s the next request,
// which makes its id the current run's; reply() -- from the same run, e.g.
// the restorer that delivers the back end's response -- fills that id's
// slot. Runs of one junction are serialized, so the current run's id
// needs no wire field. A reply for an abandoned id is dropped and counted.
template <typename Req, typename Resp>
class FrontDoor {
 public:
  using Id = std::uint64_t;

  // Also counts late replies into `metrics` as `frontdoor_late_replies`
  // (borrowed, may be null).
  void attach(obs::Metrics* metrics) {
    if (metrics != nullptr) {
      late_counter_ = &metrics->counter("frontdoor_late_replies");
    }
  }

  Id submit(Req req) {
    std::scoped_lock lock(mu_);
    slots_.emplace(next_id_, std::nullopt);
    queue_.emplace_back(next_id_, std::move(req));
    cv_.notify_all();
    return next_id_++;
  }

  std::optional<Resp> wait(Id id, Nanos timeout) {
    std::unique_lock lock(mu_);
    std::optional<Resp>& slot = slots_.at(id);  // stable across rehashes
    if (!cv_.wait_for(lock, timeout, [&] { return slot.has_value(); })) {
      abandon_locked(id);
      return std::nullopt;
    }
    std::optional<Resp> resp = std::move(slot);
    slots_.erase(id);
    return resp;
  }

  // The caller side in one step: submit, run `schedule` (the engine call
  // on the front junction; its error is returned as is), then wait up to
  // `reply_within` for this request's reply.
  template <typename Schedule>
  Result<Resp> round_trip(Req req, Schedule&& schedule, Nanos reply_within) {
    const Id id = submit(std::move(req));
    if (Status st = schedule(); !st.ok()) {
      std::scoped_lock lock(mu_);
      abandon_locked(id);
      return st.error();
    }
    auto resp = wait(id, reply_within);
    if (!resp) return make_error(Errc::kTimeout, "no reply to this request");
    return *std::move(resp);
  }

  std::optional<Req> take(Nanos timeout) {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, timeout, [&] { return !queue_.empty(); })) {
      return std::nullopt;
    }
    auto [id, req] = std::move(queue_.front());
    queue_.pop_front();
    current_ = id;
    return std::move(req);
  }

  // Answers the request the current run took.
  void reply(Resp resp) {
    std::scoped_lock lock(mu_);
    auto it = slots_.find(current_);
    if (it == slots_.end()) {  // its caller gave up
      ++late_;
      if (late_counter_ != nullptr) late_counter_->add();
      return;
    }
    it->second = std::move(resp);
    cv_.notify_all();
  }

  [[nodiscard]] std::uint64_t late_replies() const {
    std::scoped_lock lock(mu_);
    return late_;
  }

 private:
  // Withdraws a request nobody will wait for: dequeued if no run took it
  // yet, else its eventual reply counts as late.
  void abandon_locked(Id id) {
    slots_.erase(id);
    std::erase_if(queue_, [id](const auto& item) { return item.first == id; });
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;  // a request queued or a reply filled
  std::deque<std::pair<Id, Req>> queue_;
  std::unordered_map<Id, std::optional<Resp>> slots_;  // ids awaiting reply
  Id next_id_ = 1;
  Id current_ = 0;  // the id the current junction run took
  std::uint64_t late_ = 0;
  obs::Counter* late_counter_ = nullptr;
};

}  // namespace csaw::miniredis
