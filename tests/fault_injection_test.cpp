// Failure-injection tests: lossy and partitioned links exercising the
// failure-awareness machinery the patterns rely on -- Fig 4's timeout +
// Retried retry, nack-vs-timeout discovery, and recovery after healing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/builder.hpp"
#include "core/compile.hpp"
#include "core/interp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "patterns/snapshot.hpp"

namespace csaw {
namespace {

struct Counters {
  std::atomic<int> complaints{0};
  std::atomic<int> audited{0};
};

struct Fixture {
  std::unique_ptr<Engine> engine;
  std::shared_ptr<Counters> counters = std::make_shared<Counters>();

  explicit Fixture(RuntimeOptions ropts, std::int64_t timeout_ms = 150) {
    patterns::SnapshotOptions opts;
    opts.timeout_ms = timeout_ms;
    auto compiled = compile(patterns::remote_snapshot(opts));
    CSAW_CHECK(compiled.ok()) << compiled.error().to_string();

    HostBindings b;
    auto c = counters;
    b.block("complain", [c](HostCtx&) {
      c->complaints.fetch_add(1);
      return Status::ok_status();
    });
    b.block("H1", [](HostCtx&) { return Status::ok_status(); });
    b.block("H2", [c](HostCtx&) {
      c->audited.fetch_add(1);
      return Status::ok_status();
    });
    b.saver("capture_state", [](HostCtx&) -> Result<SerializedValue> {
      return sv_dyn(DynValue(1));
    });
    b.restorer("ingest_state", [](HostCtx&, const SerializedValue&) {
      return Status::ok_status();
    });

    EngineOptions eopts;
    eopts.runtime = ropts;
    engine = std::make_unique<Engine>(std::move(compiled).value(), std::move(b),
                                      eopts);
    engine->set_state(Symbol("Act"), counters);
    engine->set_state(Symbol("Aud"), counters);
    CSAW_CHECK(engine->run_main().ok());
  }

  Status snapshot_once(int timeout_s = 10) {
    return engine->call("Act", "j",
                        Deadline::after(std::chrono::seconds(timeout_s)));
  }

  // Waits until the auditor has finished with the last round: its Work is
  // retracted, no update waits in its table, and no junction is mid-eval
  // (Aud's in-flight retraction blocks inside its eval). Act's round can
  // end on its 150 ms timeout microseconds before Aud's own 150 ms retry
  // timer fires. Starting the next round inside that window makes its
  // Work meet the retry, so two audits merge into one, and the count
  // would measure which timeout won the race, not the protocol. Needs
  // RuntimeOptions::metrics (the sched_workers_busy gauge).
  void settle(obs::Metrics& metrics) {
    auto& rt = engine->runtime();
    const auto give_up = Deadline::after(std::chrono::seconds(10));
    while (!give_up.expired()) {
      const KvTable& aud = rt.table(Symbol("Aud"), Symbol("j"));
      if (metrics.gauge("sched_workers_busy").value() == 0 &&
          !*aud.prop(Symbol("Work")) && aud.durable_state().pending.empty()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "auditor still busy 10 s after the round";
  }
};

TEST(FaultInjection, LossyLinkStillMakesProgress) {
  // 30% message loss with timeout-based discovery: the architecture's
  // otherwise/Retried logic keeps snapshots flowing, at the cost of
  // complaints for rounds whose retries also failed.
  obs::Metrics metrics;
  RuntimeOptions ropts;
  ropts.nack_when_down = false;
  ropts.default_link.drop_prob = 0.30;
  ropts.seed = 7;
  ropts.metrics = &metrics;
  Fixture fx(ropts);
  constexpr int kRounds = 12;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(fx.snapshot_once(20).ok()) << "round " << i;
    fx.settle(metrics);
  }
  // Despite the losses, a solid majority of rounds audited successfully.
  EXPECT_GE(fx.counters->audited.load(), kRounds / 2);
  // And the runs never wedge: every call() returned.
}

TEST(FaultInjection, PartitionComplainsHealReconnects) {
  RuntimeOptions ropts;
  ropts.nack_when_down = false;  // partitions look like silence
  Fixture fx(ropts, /*timeout_ms=*/120);
  ASSERT_TRUE(fx.snapshot_once().ok());
  EXPECT_EQ(fx.counters->complaints.load(), 0);
  const int audited_before = fx.counters->audited.load();

  fx.engine->runtime().router().set_partition(Symbol("Act"), Symbol("Aud"),
                                              true);
  ASSERT_TRUE(fx.snapshot_once().ok());
  // The write/assert to Aud timed out; Act complained.
  EXPECT_GE(fx.counters->complaints.load(), 1);

  fx.engine->runtime().router().set_partition(Symbol("Act"), Symbol("Aud"),
                                              false);
  ASSERT_TRUE(fx.snapshot_once().ok());
  EXPECT_GT(fx.counters->audited.load(), audited_before);
}

TEST(FaultInjection, RetriedFlagRetriesRemoteRetraction) {
  // Drop exactly the auditor's first retraction: Aud's `retract [Act] Work
  // otherwise[t] ...assert Retried...reconsider` must retry and succeed the
  // second time (Fig 4's annotated behavior / Fig 22's structure).
  obs::Metrics metrics;
  RuntimeOptions ropts;
  ropts.nack_when_down = false;
  ropts.metrics = &metrics;
  Fixture fx(ropts, /*timeout_ms=*/150);

  // Drop Aud->Act traffic only for the retraction window: partition just
  // after the snapshot lands at Aud. Simplest deterministic approximation:
  // a 100%-lossy Aud->Act link for the first attempt, healed before the
  // retry would give a clean two-phase test; instead exercise it
  // statistically with a half-lossy directed link.
  fx.engine->runtime().router().set_link(Symbol("Aud"), Symbol("Act"),
                                         LinkModel{{}, 0.0, 0.5, 0});
  int ok_rounds = 0;
  for (int i = 0; i < 10; ++i) {
    if (fx.snapshot_once(20).ok()) ++ok_rounds;
    fx.settle(metrics);
  }
  EXPECT_EQ(ok_rounds, 10);             // the junction call itself never wedges
  EXPECT_GE(fx.counters->audited.load(), 5);
  const auto& aud_stats = fx.engine->stats(addr("Aud", "j"));
  // The retry path ran at least once across 10 half-lossy rounds.
  EXPECT_GT(aud_stats.runs.load(), 0u);
}

TEST(FaultInjection, TimedOutPushesAreTracedAndCounted) {
  // Partitioned link + silent failure mode: the snapshot's write/assert to
  // Aud expires its deadline. Every such push must surface as a
  // push_timeout event and bump the push_timeout counter.
  obs::Tracer tracer;
  obs::Metrics metrics;
  RuntimeOptions ropts;
  ropts.nack_when_down = false;
  ropts.trace_sink = &tracer;
  ropts.metrics = &metrics;
  Fixture fx(ropts, /*timeout_ms=*/120);
  fx.engine->runtime().router().set_partition(Symbol("Act"), Symbol("Aud"),
                                              true);
  ASSERT_TRUE(fx.snapshot_once().ok());
  EXPECT_GE(fx.counters->complaints.load(), 1);

  EXPECT_GE(metrics.counter("push_timeout").value(), 1u);
  int timeouts = 0, sends = 0;
  for (const auto& e : tracer.drain()) {
    if (e.kind == obs::TraceEvent::Kind::kPushTimeout) {
      ++timeouts;
      EXPECT_EQ(e.instance, Symbol("Act"));  // the sender
      EXPECT_EQ(e.peer, Symbol("Aud"));      // the unreachable target
      EXPECT_GT(e.seq, 0u);                  // ack'd pushes carry a seq
    }
    if (e.kind == obs::TraceEvent::Kind::kPushSent) ++sends;
  }
  EXPECT_GE(timeouts, 1);
  EXPECT_GE(sends, timeouts);  // every timeout had a matching send
}

TEST(FaultInjection, NackedPushesAreTracedAndCounted) {
  // Crash the auditor with nack-when-down enabled: Act's next write is
  // refused immediately (the nack path, not the timeout path) and must be
  // traced as push_nacked.
  obs::Tracer tracer;
  obs::Metrics metrics;
  RuntimeOptions ropts;
  ropts.nack_when_down = true;
  ropts.trace_sink = &tracer;
  ropts.metrics = &metrics;
  Fixture fx(ropts, /*timeout_ms=*/150);
  fx.engine->runtime().crash(Symbol("Aud"));
  ASSERT_TRUE(fx.snapshot_once().ok());
  EXPECT_GE(fx.counters->complaints.load(), 1);

  EXPECT_GE(metrics.counter("push_nacked").value(), 1u);
  EXPECT_EQ(metrics.counter("push_timeout").value(), 0u);
  bool saw_nack = false, saw_crash = false;
  for (const auto& e : tracer.drain()) {
    if (e.kind == obs::TraceEvent::Kind::kPushNacked) {
      saw_nack = true;
      EXPECT_EQ(e.instance, Symbol("Act"));
      EXPECT_EQ(e.peer, Symbol("Aud"));
    }
    if (e.kind == obs::TraceEvent::Kind::kInstanceCrashed) {
      saw_crash = true;
      EXPECT_EQ(e.instance, Symbol("Aud"));
    }
  }
  EXPECT_TRUE(saw_nack);
  EXPECT_TRUE(saw_crash);
}

}  // namespace
}  // namespace csaw
