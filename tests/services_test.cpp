// Tests for the deployment-level service harnesses (miniredis/minisuricata
// behind each architecture) and the direct-C++ baselines used as Table 2's
// control -- both must behave identically to the DSL versions at the
// request/response level.
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "apps/miniredis/services.hpp"
#include "apps/miniredis/workload.hpp"
#include "apps/minisuricata/services.hpp"
#include "obs/metrics.hpp"
#include "patterns/baselines.hpp"

namespace csaw {
namespace {

using miniredis::Command;

Command set_cmd(const std::string& k, const std::string& v) {
  Command c;
  c.op = Command::Op::kSet;
  c.key = k;
  c.value = v;
  return c;
}

Command get_cmd(const std::string& k) {
  Command c;
  c.op = Command::Op::kGet;
  c.key = k;
  return c;
}

// Exercises any Service-shaped object with the same script.
template <typename S>
void exercise_kv(S& svc) {
  for (int i = 0; i < 20; ++i) {
    auto r = svc.request(set_cmd("k" + std::to_string(i), "v" + std::to_string(i)));
    ASSERT_TRUE(r.ok());
  }
  for (int i = 0; i < 20; ++i) {
    auto r = svc.request(get_cmd("k" + std::to_string(i)));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
    EXPECT_EQ(r->value, "v" + std::to_string(i));
  }
  auto miss = svc.request(get_cmd("absent"));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->found);
}

TEST(Services, BaselineServesRequests) {
  miniredis::BaselineService svc(0);
  exercise_kv(svc);
}

TEST(Services, ShardedByKeyServesRequests) {
  miniredis::ShardedService::Options opts;
  opts.op_cost_ns = 0;
  miniredis::ShardedService svc(opts);
  exercise_kv(svc);
  // All four shards should hold some load for 20 spread keys.
  std::uint64_t total = 0;
  for (auto c : svc.shard_counts()) total += c;
  EXPECT_EQ(total, 41u);  // 20 sets + 20 gets + 1 miss
}

TEST(Services, ShardedBySizeKeepsKeyAffinity) {
  miniredis::ShardedService::Options opts;
  opts.mode = miniredis::ShardedService::Mode::kByObjectSize;
  opts.op_cost_ns = 0;
  miniredis::ShardedService svc(opts);
  auto small = set_cmd("small", std::string(100, 'a'));
  auto big = set_cmd("big", std::string(100 * 1024, 'b'));
  EXPECT_EQ(svc.shard_of(small), 0u);
  EXPECT_EQ(svc.shard_of(big), 3u);
  ASSERT_TRUE(svc.request(small).ok());
  ASSERT_TRUE(svc.request(big).ok());
  // GETs must follow the SET's class so they find the data.
  EXPECT_EQ(svc.shard_of(get_cmd("big")), 3u);
  auto r = svc.request(get_cmd("big"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

TEST(Services, CheckpointedCrashLosesOnlyPostCheckpointWrites) {
  miniredis::CheckpointedService svc;
  ASSERT_TRUE(svc.request(set_cmd("durable", "1")).ok());
  ASSERT_TRUE(svc.checkpoint().ok());
  EXPECT_EQ(svc.checkpoints_taken(), 1u);
  ASSERT_TRUE(svc.request(set_cmd("volatile", "2")).ok());
  ASSERT_TRUE(svc.crash_and_resume().ok());
  auto durable = svc.request(get_cmd("durable"));
  ASSERT_TRUE(durable.ok());
  EXPECT_TRUE(durable->found);  // restored from the checkpoint
  auto lost = svc.request(get_cmd("volatile"));
  ASSERT_TRUE(lost.ok());
  EXPECT_FALSE(lost->found);  // written after the checkpoint: gone
}

TEST(Services, CachedHitsSkipBackend) {
  miniredis::CachedService::Options opts;
  opts.op_cost_ns = 0;
  miniredis::CachedService svc(opts);
  ASSERT_TRUE(svc.request(set_cmd("x", "1")).ok());
  for (int i = 0; i < 5; ++i) {
    auto r = svc.request(get_cmd("x"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, "1");
  }
  EXPECT_EQ(svc.misses(), 1u);
  EXPECT_EQ(svc.hits(), 4u);
  // A write invalidates; the next GET misses and sees the new value.
  ASSERT_TRUE(svc.request(set_cmd("x", "2")).ok());
  auto r = svc.request(get_cmd("x"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value, "2");
  EXPECT_EQ(svc.misses(), 2u);
}

TEST(Services, CacheDisabledAlwaysMisses) {
  miniredis::CachedService::Options opts;
  opts.cache_enabled = false;
  opts.op_cost_ns = 0;
  miniredis::CachedService svc(opts);
  ASSERT_TRUE(svc.request(set_cmd("x", "1")).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.request(get_cmd("x")).ok());
  }
  EXPECT_EQ(svc.hits(), 0u);
}

TEST(Services, SuricataCheckpointedSurvivesCrash) {
  minisuricata::CheckpointedService svc;
  minisuricata::FlowGenerator gen({}, 42);
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(svc.process(gen.next()).ok());
  const auto flows_before = svc.flow_count();
  ASSERT_GT(flows_before, 10u);
  ASSERT_TRUE(svc.checkpoint().ok());
  ASSERT_TRUE(svc.crash_and_resume().ok());
  EXPECT_EQ(svc.flow_count(), flows_before);
}

TEST(Services, SuricataSteeringPreservesEveryPacket) {
  minisuricata::SteeredService::Options opts;
  opts.batch_size = 32;
  opts.cost_ns = 0;
  minisuricata::SteeredService svc(opts);
  minisuricata::FlowGenerator gen({}, 43);
  constexpr int kPackets = 500;
  for (int i = 0; i < kPackets; ++i) ASSERT_TRUE(svc.process(gen.next()).ok());
  ASSERT_TRUE(svc.flush().ok());
  std::uint64_t total = 0;
  for (auto c : svc.shard_packet_counts()) total += c;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kPackets));
}

// --- the correlated front door ---------------------------------------------------

TEST(FrontDoor, LateReplyIsDroppedCountedAndNextCallerGetsItsOwn) {
  using namespace std::chrono_literals;
  obs::Metrics metrics;
  miniredis::FrontDoor<int, std::string> door;
  door.attach(&metrics);

  // The junction takes request 1, but its caller times out before the reply.
  const auto first = door.submit(1);
  ASSERT_EQ(door.take(1s), 1);
  EXPECT_FALSE(door.wait(first, 10ms).has_value());

  // The next caller submits; then the late reply to request 1 arrives.
  const auto second = door.submit(2);
  door.reply("reply-to-1");
  EXPECT_EQ(door.late_replies(), 1u);
  EXPECT_EQ(metrics.counter("frontdoor_late_replies").value(), 1u);

  // The next caller still gets its own answer, not the late one.
  ASSERT_EQ(door.take(1s), 2);
  door.reply("reply-to-2");
  EXPECT_EQ(door.wait(second, 1s), "reply-to-2");

  // A request that timed out before any run took it is withdrawn.
  const auto withdrawn = door.submit(3);
  EXPECT_FALSE(door.wait(withdrawn, 10ms).has_value());
  const auto fourth = door.submit(4);
  ASSERT_EQ(door.take(1s), 4);
  door.reply("reply-to-4");
  EXPECT_EQ(door.wait(fourth, 1s), "reply-to-4");
  EXPECT_EQ(door.late_replies(), 1u);
}

// Four callers on disjoint keys, each value derived from its key and
// version, so a reply that belongs to another request is always visible.
// Returns the number of such misattributed replies.
std::uint64_t misattributed_replies(miniredis::Service& svc) {
  constexpr int kCallers = 4;
  constexpr int kKeys = 16;
  constexpr int kOps = 150;
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      std::vector<int> version(kKeys, 0);
      auto key = [t](int k) {
        return "c" + std::to_string(t) + "-k" + std::to_string(k);
      };
      auto value = [&](int k) {
        return key(k) + "=v" + std::to_string(version[k]);
      };
      for (int i = 0; i < kOps; ++i) {
        const int k = i % kKeys;
        // The first pass writes every key; after that, every fourth op
        // writes a new version and the rest read.
        const bool write = i < kKeys || i % 4 == 0;
        if (write) ++version[k];
        auto r = svc.request(write ? set_cmd(key(k), value(k))
                                   : get_cmd(key(k)));
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        const bool mine = write ? (r->found && r->value.empty())
                                : (r->found && r->value == value(k));
        if (!mine) wrong.fetch_add(1);
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(errors.load(), 0u) << svc.name();
  return wrong.load();
}

TEST(Services, ConcurrentCallersGetOnlyTheirOwnReplies) {
  using Factory = std::function<std::unique_ptr<miniredis::Service>()>;
  const std::vector<Factory> factories = {
      [] { return std::make_unique<miniredis::BaselineService>(0); },
      [] {
        miniredis::CheckpointedService::Options o;
        o.op_cost_ns = 0;
        return std::make_unique<miniredis::CheckpointedService>(o);
      },
      [] {
        miniredis::ShardedService::Options o;
        o.op_cost_ns = 0;
        return std::make_unique<miniredis::ShardedService>(o);
      },
      [] {
        miniredis::ShardedService::Options o;
        o.mode = miniredis::ShardedService::Mode::kByObjectSize;
        o.op_cost_ns = 0;
        return std::make_unique<miniredis::ShardedService>(o);
      },
      [] {
        miniredis::CachedService::Options o;
        o.op_cost_ns = 0;
        return std::make_unique<miniredis::CachedService>(o);
      },
      [] {
        miniredis::CachedService::Options o;
        o.cache_enabled = false;
        o.op_cost_ns = 0;
        return std::make_unique<miniredis::CachedService>(o);
      },
      [] {
        miniredis::ReplicatedService::Options o;
        o.mode = miniredis::ReplicatedService::Mode::kChain;
        o.op_cost_ns = 0;
        return std::make_unique<miniredis::ReplicatedService>(o);
      },
      [] {
        miniredis::ReplicatedService::Options o;
        o.mode = miniredis::ReplicatedService::Mode::kQuorum;
        o.op_cost_ns = 0;
        return std::make_unique<miniredis::ReplicatedService>(o);
      },
      [] {
        miniredis::RebalancedService::Options o;
        o.op_cost_ns = 0;
        return std::make_unique<miniredis::RebalancedService>(o);
      },
  };
  for (const auto& make : factories) {
    auto svc = make();
    EXPECT_EQ(misattributed_replies(*svc), 0u) << svc->name();
  }
}

// --- direct-C++ baselines (Table 2 control) -----------------------------------

TEST(Baselines, CheckpointedRedisMatchesDslBehavior) {
  baseline::CheckpointedRedis svc(0);
  EXPECT_TRUE(svc.request(set_cmd("a", "1")).found);
  ASSERT_TRUE(svc.checkpoint().ok());
  EXPECT_EQ(svc.checkpoints_taken(), 1u);
  (void)svc.request(set_cmd("b", "2"));
  ASSERT_TRUE(svc.crash_and_resume().ok());
  EXPECT_TRUE(svc.request(get_cmd("a")).found);
  EXPECT_FALSE(svc.request(get_cmd("b")).found);
}

TEST(Baselines, ShardedRedisRoutesAndAnswers) {
  baseline::ShardedRedis svc(4, 0);
  exercise_kv(svc);
  std::uint64_t total = 0;
  for (auto c : svc.shard_counts()) total += c;
  EXPECT_EQ(total, 41u);
}

TEST(Baselines, CachedRedisMemoizes) {
  baseline::CachedRedis svc(64, 0);
  ASSERT_TRUE(svc.request(set_cmd("x", "1")).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(svc.request(get_cmd("x")).ok());
  EXPECT_EQ(svc.hits(), 3u);
}

}  // namespace
}  // namespace csaw
