// Router: zero-delay envelopes are delivered on the sender's thread, delayed
// ones on the delivery thread, and neither path changes partitions, drops,
// counters or the deliver_at order.

#include "compart/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace csaw {
namespace {

using namespace std::chrono_literals;

const Symbol kA("a");
const Symbol kB("b");
const Symbol kC("c");

Envelope update(Symbol from, Symbol to, std::uint64_t seq) {
  Envelope env;
  env.kind = Envelope::Kind::kUpdate;
  env.seq = seq;
  env.from_instance = from;
  env.to = JunctionAddr{to, Symbol("j")};
  return env;
}

// What the router handed over, in order, and on which thread.
struct Delivery {
  Envelope::Kind kind;
  std::uint64_t seq;
  std::thread::id thread;
  SteadyTime at;
};

class Log {
 public:
  void add(const Envelope& env) {
    {
      std::scoped_lock lock(mu_);
      seen_.push_back({env.kind, env.seq, std::this_thread::get_id(),
                       steady_now()});
    }
    cv_.notify_all();
  }
  std::vector<Delivery> snapshot() const {
    std::scoped_lock lock(mu_);
    return seen_;
  }
  // Waits until `n` deliveries were seen (false after 5 s).
  bool await(std::size_t n) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, 5s, [&] { return seen_.size() >= n; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Delivery> seen_;
};

TEST(Router, ZeroDelaySendIsDeliveredOnTheCallersThreadBeforeReturning) {
  Log log;
  Router router(LinkModel::in_process(), 1,
                [&](Envelope&& env) { log.add(env); });
  router.send(update(kA, kB, 7), 16);
  // No waiting: the delivery already happened inside send().
  const auto seen = log.snapshot();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].seq, 7u);
  EXPECT_EQ(seen[0].thread, std::this_thread::get_id());
  const auto c = router.counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.delivered, 1u);
}

TEST(Router, DelayedLinkIsDeliveredOnTheDeliveryThreadAfterItsDelay) {
  Log log;
  Router router(LinkModel::in_process(), 1,
                [&](Envelope&& env) { log.add(env); });
  constexpr auto kDelay = 20ms;
  router.set_link(kA, kB, LinkModel{kDelay, 0.0, 0.0, 0});
  const SteadyTime t0 = steady_now();
  router.send(update(kA, kB, 1), 16);
  ASSERT_TRUE(log.await(1));
  const auto seen = log.snapshot();
  EXPECT_NE(seen[0].thread, std::this_thread::get_id());
  EXPECT_GE(seen[0].at - t0, kDelay);
  // A bandwidth-only link is delayed too (1 KiB at 64 KiB/s is ~16 ms).
  router.set_link(kA, kC, LinkModel{Nanos::zero(), 0.0, 0.0, 64 * 1024});
  const SteadyTime t1 = steady_now();
  router.send(update(kA, kC, 2), 1024);
  ASSERT_TRUE(log.await(2));
  const auto both = log.snapshot();
  EXPECT_NE(both[1].thread, std::this_thread::get_id());
  EXPECT_GE(both[1].at - t1, 15ms);
  EXPECT_EQ(router.counters().delivered, 2u);
}

TEST(Router, PartitionedAndDroppedMessagesVanishAndAreCounted) {
  Log log;
  Router router(LinkModel::in_process(), 1,
                [&](Envelope&& env) { log.add(env); });
  router.set_partition(kA, kB, true);
  router.send(update(kA, kB, 1), 16);
  router.send(update(kB, kA, 2), 16);  // partitions cut both directions
  router.set_link(kA, kC, LinkModel{Nanos::zero(), 0.0, 1.0, 0});
  router.send(update(kA, kC, 3), 16);
  router.send(update(kC, kA, 4), 16);  // the drop link is one-way
  std::this_thread::sleep_for(20ms);   // nothing is in flight to wait for
  const auto seen = log.snapshot();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].seq, 4u);
  const auto c = router.counters();
  EXPECT_EQ(c.sent, 4u);
  EXPECT_EQ(c.partitioned, 2u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.delivered, 1u);
  // Healing restores delivery.
  router.set_partition(kA, kB, false);
  router.send(update(kA, kB, 5), 16);
  EXPECT_EQ(log.snapshot().size(), 2u);
  EXPECT_EQ(router.counters().delivered, 2u);
}

// The runtime's ack path: delivering an update sends its ack from inside
// deliver_. Neither the inline nor the delivery-thread path may deadlock.
TEST(Router, SendFromInsideDeliverCompletes) {
  Log log;
  std::unique_ptr<Router> router;
  router = std::make_unique<Router>(
      LinkModel::in_process(), 1, [&](Envelope&& env) {
        log.add(env);
        if (env.kind != Envelope::Kind::kUpdate) return;
        Envelope ack;
        ack.kind = Envelope::Kind::kAck;
        ack.seq = env.seq;
        ack.from_instance = env.to.instance;
        ack.to = JunctionAddr{env.from_instance, Symbol()};
        router->send(std::move(ack), 16);
      });
  // Zero-delay both ways: update and ack are both delivered before send()
  // returns, on this thread.
  router->send(update(kA, kB, 1), 16);
  auto seen = log.snapshot();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].kind, Envelope::Kind::kAck);
  EXPECT_EQ(seen[1].seq, 1u);
  EXPECT_EQ(seen[1].thread, std::this_thread::get_id());
  // Delayed update, zero-delay ack: the delivery thread sends the ack while
  // handing the update over, and the ack follows it.
  router->set_link(kA, kC, LinkModel{2ms, 0.0, 0.0, 0});
  router->send(update(kA, kC, 2), 16);
  ASSERT_TRUE(log.await(4));
  seen = log.snapshot();
  EXPECT_EQ(seen[2].kind, Envelope::Kind::kUpdate);
  EXPECT_EQ(seen[3].kind, Envelope::Kind::kAck);
  EXPECT_EQ(seen[3].seq, 2u);
  EXPECT_EQ(router->counters().delivered, 4u);
}

// The runtime admits an ack under the receiving instance's lock and hands
// that lock over: it must be free by the time the ack is delivered inline.
TEST(Router, HeldLockIsReleasedBeforeAnInlineDelivery) {
  std::mutex instance_mu;
  bool was_free = false;
  Router router(LinkModel::in_process(), 1, [&](Envelope&&) {
    was_free = instance_mu.try_lock();
    if (was_free) instance_mu.unlock();
  });
  std::unique_lock lock(instance_mu);
  router.send(update(kA, kB, 1), 16, &lock);
  EXPECT_TRUE(was_free);
  EXPECT_FALSE(lock.owns_lock());
}

TEST(Router, ZeroDelaySendNeverOvertakesAnEnvelopeAlreadyDue) {
  Log log;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool in_first = false;
  bool open = false;
  Router router(LinkModel::in_process(), 1, [&](Envelope&& env) {
    if (env.seq == 1) {
      // Hold the delivery thread inside the first handover.
      std::unique_lock lock(gate_mu);
      in_first = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return open; });
    }
    log.add(env);
  });
  router.set_link(kA, kB, LinkModel{1ms, 0.0, 0.0, 0});
  router.send(update(kA, kB, 1), 16);
  {
    std::unique_lock lock(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lock, 5s, [&] { return in_first; }));
  }
  // #2 is zero-delay with the queue empty, but #1 is still being handed
  // over: it waits. #3 rides the delayed link and falls due; #4 is
  // zero-delay and queues behind it instead of being delivered here.
  router.send(update(kC, kB, 2), 16);
  router.send(update(kA, kB, 3), 16);
  std::this_thread::sleep_for(5ms);
  router.send(update(kC, kB, 4), 16);
  EXPECT_TRUE(log.snapshot().empty());
  {
    std::scoped_lock lock(gate_mu);
    open = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(log.await(4));
  const auto seen = log.snapshot();
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i].seq, i + 1);
    EXPECT_NE(seen[i].thread, std::this_thread::get_id());
  }
}

TEST(Router, ZeroDelaySendQueuesBehindAnEnvelopeThatJustFellDue) {
  // The window between an envelope falling due and the delivery thread
  // waking for it: a zero-delay send landing there must still go second.
  Log log;
  Router router(LinkModel::in_process(), 1,
                [&](Envelope&& env) { log.add(env); });
  router.set_link(kA, kB, LinkModel{1ms, 0.0, 0.0, 0});
  constexpr std::uint64_t kRounds = 50;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    router.send(update(kA, kB, 2 * i), 16);
    const SteadyTime due = steady_now() + 1ms;
    while (steady_now() < due) {
    }
    router.send(update(kC, kB, 2 * i + 1), 16);
    ASSERT_TRUE(log.await(2 * i + 2));
  }
  const auto seen = log.snapshot();
  for (std::uint64_t i = 0; i < 2 * kRounds; ++i) {
    EXPECT_EQ(seen[i].seq, i) << "delivery " << i;
  }
}

}  // namespace
}  // namespace csaw
