// The four workloads. Each builds its service through the public
// constructors, preloads the keyspace through request(), drives load,
// verifies every reply, reads the final state back, and reports the
// end-to-end metrics; the traced run adds the per-layer ones.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "layers.hpp"
#include "load.hpp"
#include "patterns/rebalance.hpp"
#include "patterns/sharding.hpp"
#include "report.hpp"

namespace perfbench {

using namespace csaw;
using miniredis::RebalancedService;
using miniredis::ShardedService;

namespace {

constexpr int kSetups = 5;            // set-ups per untraced run
constexpr std::size_t kKeep = 3000;   // traced requests kept for the replay
constexpr std::size_t kShards = 4;    // ShardedService back-ends
constexpr double kLimitUs = 1000;     // max_rps_p99_1ms latency limit
constexpr double kReportRate = 4000;  // open-loop step the JSON reports
constexpr double kLowRate = 2000;     // ... and the one printed beside it

double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
std::int64_t to_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<Caller> make_callers(std::size_t n, const KeyModel& m,
                                 std::uint64_t seed) {
  std::vector<Caller> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<std::uint32_t>(i), m, seed);
  }
  return out;
}

std::vector<Command> preload_of(const std::vector<Caller>& callers) {
  std::vector<Command> out;
  for (const auto& c : callers) {
    auto p = c.preload();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

// Builds and preloads the service `setups` times and keeps the last one;
// setup_s is the lower quartile of the set-up times. Earlier instances are
// torn down outside the timed window.
template <typename S, typename Make>
std::unique_ptr<S> set_up(Report& rep, int setups, const Make& make,
                          std::vector<Caller>& callers, std::size_t ncallers,
                          const KeyModel& model, std::uint64_t seed) {
  std::vector<double> times;
  std::unique_ptr<S> svc;
  for (int i = 0; i < setups; ++i) {
    svc.reset();
    callers = make_callers(ncallers, model, seed);
    const std::int64_t t0 = now_ns();
    svc = make(i, i == setups - 1);
    for (auto& c : callers) {
      for (const auto& cmd : c.preload()) {
        if (c.check(cmd, svc->request(cmd)) != Verdict::kOk) {
          die("preload of " + cmd.key + " failed");
        }
      }
    }
    times.push_back(secs(now_ns() - t0));
  }
  std::printf("# setup: %d set-ups, %zu keys preloaded through the service\n",
              setups, model.keys_per_caller * ncallers);
  rep.add_e2e("setup_s", percentile(times, 25), "s");
  // The service's footprint with its keyspace loaded. Read here, before
  // the load: the samples the benchmark keeps grow with throughput, and
  // would otherwise make a faster service read as a bigger one.
  rep.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return svc;
}

// Latency and throughput over one-second windows of [start, end), reported
// as the better quartile across windows; the whole-span percentiles and
// the highest tail are printed beside them.
// With a non-empty `suffix` the figures are printed under suffixed names
// and stay out of the JSON line.
void latency_metrics(Report& rep, const std::vector<double>& lat,
                     const std::vector<std::int64_t>& done,
                     const std::vector<std::int64_t>& ok_done,
                     std::int64_t start, std::int64_t end, const char* what,
                     const std::string& suffix = "") {
  auto put = [&](const std::string& name, double v, const char* unit) {
    if (suffix.empty()) {
      rep.add_e2e(name, v, unit);
    } else {
      Report::line(name + suffix, v, unit);
    }
  };
  const std::int64_t width =
      std::min<std::int64_t>(1'000'000'000, std::max<std::int64_t>(1, (end - start) / 4));
  const Windowed w = windowed(lat, done, ok_done, start, end, width);
  std::vector<double> sorted = lat;
  std::sort(sorted.begin(), sorted.end());
  const Tail t = highest_tail(sorted);
  std::printf(
      "# latency (%s): %zu samples in %zu windows of %.2f s; whole span "
      "p50=%.1f p99=%.1f us; highest tail p%g = %.1f us with %zu samples "
      "beyond it\n",
      what, sorted.size(), w.count(), secs(width),
      percentile_sorted(sorted, 50), percentile_sorted(sorted, 99), t.pct,
      t.value, t.beyond);
  std::printf("# windows p50/p99 us, correct replies/s:");
  for (std::size_t i = 0; i < w.count(); ++i) {
    std::printf(" %.0f/%.0f/%.0f", w.p50_us[i], w.p99_us[i], w.rps[i]);
  }
  std::printf("\n");
  // The better quartile across windows: what the service sustains while it
  // has the CPU (README.md, "Steadiness").
  put("throughput_rps", percentile(w.rps, 75), "1/s");
  put("latency_p50_us", percentile(w.p50_us, 25), "us");
  // Printed, not part of the JSON line: see README.md ("Why these are not
  // gated").
  Report::line("latency_p99_us" + suffix, percentile(w.p99_us, 25), "us");
}

// Failure accounting. `correct` is the final-state check: every acked write
// read back. Per-request failures (errors, wrong, missing, stale replies)
// are counted in `failed` and fail_frac, never dropped.
void account(Report& rep, std::uint64_t attempted, FailCounts fails,
             std::uint64_t lost, bool replay_ok) {
  fails.lost += lost;
  rep.attempted = std::max<std::uint64_t>(attempted, 1);
  rep.failed = fails.total();
  rep.correct = lost == 0 && replay_ok;
  std::printf(
      "# failures: errors=%llu missing=%llu misattributed=%llu stale=%llu "
      "lost_acked_writes=%llu of %llu attempted\n",
      static_cast<unsigned long long>(fails.errors),
      static_cast<unsigned long long>(fails.missing),
      static_cast<unsigned long long>(fails.misattributed),
      static_cast<unsigned long long>(fails.stale),
      static_cast<unsigned long long>(fails.lost),
      static_cast<unsigned long long>(attempted));
  Report::line("fail_frac",
               static_cast<double>(rep.failed) /
                   static_cast<double>(rep.attempted),
               "ratio");
}

double skew(const std::vector<double>& counts) {
  if (counts.empty()) return 0;
  double sum = 0;
  double mx = 0;
  for (const double c : counts) {
    sum += c;
    mx = std::max(mx, c);
  }
  return sum > 0 ? mx / (sum / static_cast<double>(counts.size())) : 0;
}

double shard_skew(const ShardedService& svc) {
  std::vector<double> c;
  for (const auto n : svc.shard_counts()) c.push_back(static_cast<double>(n));
  return skew(c);
}

// Everything the traced run gathered about one service.
struct Figures {
  obs::CostProfile before;    // profiler snapshot when measuring began
  obs::CostProfile after;     // ... when it ended (service still up)
  obs::CostProfile teardown;  // ... after the service was destroyed
  std::uint64_t measured = 0;  // requests between before and after
  std::uint64_t lifetime = 0;  // every request the service served
  std::vector<double> plain_us;   // untraced segments
  std::vector<double> traced_us;  // traced segments
  std::vector<KeptRequest> kept;
  std::vector<Command> preload;
  ProgramSpec spec;
  Transport transport = Transport::kInProcess;
  double shard_skew = 0;
  std::uint64_t wrong = 0;
  std::uint64_t nacks = 0;
  std::uint64_t retries = 0;
  std::uint64_t aborted = 0;
};

bool layer_metrics(Report& rep, Tracer& tracer, const Figures& f,
                   const RunOptions& o) {
  probe_call_empty(tracer, 2000);
  probe_push_ack(tracer, Transport::kInProcess, "compart.push_ack_inproc", 2000);
  probe_push_ack(tracer, Transport::kTcpLoopback, "compart.push_ack_tcp", 1000);
  probe_compile_launch(tracer, f.spec, f.transport, 5);
  const ReplayTotals replay = replay_layers(tracer, f.kept, f.preload);

  const auto self = tracer.self_times_us();
  auto pct = [&](const char* name, double p) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : percentile(it->second, p);
  };
  auto count_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? std::size_t{0} : it->second.size();
  };
  const bool tcp = f.transport != Transport::kInProcess;
  std::printf(
      "# per-layer: self times from spans; p50 unless named; samples: "
      "request=%zu replay=%zu call_empty=%zu push_ack_inproc=%zu "
      "push_ack_tcp=%zu compile=%zu\n",
      count_of("request"), count_of("replay"), count_of("compart.call_empty"),
      count_of("compart.push_ack_inproc"), count_of("compart.push_ack_tcp"),
      count_of("core.compile"));

  rep.add_layer("compart.call_empty_p50_us", pct("compart.call_empty", 50), "us");
  rep.add_layer("compart.call_empty_p99_us", pct("compart.call_empty", 99), "us");
  rep.add_layer("compart.push_ack_inproc_us", pct("compart.push_ack_inproc", 50), "us");
  rep.add_layer("compart.push_ack_tcp_us", pct("compart.push_ack_tcp", 50), "us");

  const SchedTotals sched = sched_totals(f.after) - sched_totals(f.before);
  const obs::HistSummary qd = queue_delay(f.after);
  const double reqs = static_cast<double>(std::max<std::uint64_t>(f.measured, 1));
  const double body_cpu_us = static_cast<double>(sched.body_cpu_ns) / 1000.0 / reqs;
  std::printf("# sched: queue delay over %llu ready-queue samples; per-junction p50/p99 (us):",
              static_cast<unsigned long long>(qd.count));
  for (const auto& j : f.after.junctions) {
    std::printf(" %s.%s=%.1f/%.1f", j.instance.c_str(), j.junction.c_str(),
                j.queue_delay_ns.p50 / 1000.0, j.queue_delay_ns.p99 / 1000.0);
  }
  std::printf("\n");
  rep.add_layer("sched.queue_delay_p50_us", qd.p50 / 1000.0, "us");
  rep.add_layer("sched.queue_delay_p99_us", qd.p99 / 1000.0, "us");
  rep.add_layer("sched.body_cpu_us", body_cpu_us, "us");
  rep.add_layer("sched.blocked_us_per_req",
                static_cast<double>(sched.blocked_ns) / 1000.0 / reqs, "us");
  rep.add_layer("sched.fires_per_eval",
                sched.evals > 0 ? static_cast<double>(sched.fires) /
                                      static_cast<double>(sched.evals)
                                : 0.0,
                "ratio");

  rep.add_layer("wire.encode_us", pct("wire.encode", 50), "us");
  rep.add_layer("wire.decode_us", pct("wire.decode", 50), "us");
  rep.add_layer("wire.frame_bytes", replay.frame_bytes, "bytes");

  const LinkTotals link = link_totals(f.teardown);
  const double life = static_cast<double>(std::max<std::uint64_t>(f.lifetime, 1));
  rep.add_layer("tcp.frames_per_req", static_cast<double>(link.frames) / life, "count");
  rep.add_layer("tcp.bytes_per_req", static_cast<double>(link.bytes) / life, "bytes");
  rep.add_layer("tcp.send_queue_depth_p99", link.depth_p99, "count");

  const double pack_cmd = pct("serdes.pack_cmd", 50);
  const double unpack_cmd = pct("serdes.unpack_cmd", 50);
  const double pack_resp = pct("serdes.pack_resp", 50);
  const double unpack_resp = pct("serdes.unpack_resp", 50);
  rep.add_layer("serdes.pack_cmd_us", pack_cmd, "us");
  rep.add_layer("serdes.unpack_cmd_us", unpack_cmd, "us");
  rep.add_layer("serdes.pack_resp_us", pack_resp, "us");
  rep.add_layer("serdes.unpack_resp_us", unpack_resp, "us");
  rep.add_layer("serdes.bytes_per_req", replay.serdes_bytes_per_req, "bytes");

  rep.add_layer("core.compile_ms", pct("core.compile", 50) / 1000.0, "ms");
  rep.add_layer("core.launch_ms", pct("core.launch", 50) / 1000.0, "ms");

  // Request p50 split into the layers on its blocking path. Host blocks
  // (the store, serdes) run inside junction bodies, so only the body CPU
  // beyond them is added; the wire codec is on the path only over TCP.
  const double request = pct("request", 50);
  const double store = pct("miniredis.store", 50);
  const double serdes = pack_cmd + unpack_cmd + pack_resp + unpack_resp;
  const double wire =
      tcp ? pct("wire.encode", 50) + pct("wire.decode", 50) +
                pct("wire.encode_resp", 50) + pct("wire.decode_resp", 50)
          : 0.0;
  const double body_other = std::max(0.0, body_cpu_us - store - serdes);
  const double unattributed = request - store - serdes - wire - body_other;
  std::printf(
      "# request p50 %.2f us = store %.2f + serdes %.2f + wire %.2f + other "
      "body CPU %.2f + unattributed %.2f\n",
      request, store, serdes, wire, body_other, unattributed);
  rep.add_layer("miniredis.request_p50_us", request, "us");
  rep.add_layer("miniredis.store_us", store, "us");
  rep.add_layer("miniredis.unattributed_us", unattributed, "us");
  rep.add_layer("miniredis.shard_skew", f.shard_skew, "ratio");
  rep.add_layer("miniredis.wrong_responses", static_cast<double>(f.wrong), "count");

  rep.add_layer("rebalance.wrong_owner_nacks", static_cast<double>(f.nacks), "count");
  rep.add_layer("rebalance.client_retries", static_cast<double>(f.retries), "count");
  rep.add_layer("rebalance.handoffs_aborted", static_cast<double>(f.aborted), "count");
  rep.add_layer("rebalance.useful_frac",
                static_cast<double>(f.measured) /
                    static_cast<double>(f.measured + f.retries),
                "ratio");

  const double plain = median(f.plain_us);
  const double traced = median(f.traced_us);
  std::printf("# obs: traced p50 %.2f us over %zu requests, untraced p50 %.2f us over %zu\n",
              traced, f.traced_us.size(), plain, f.plain_us.size());
  rep.add_layer("obs.trace_overhead_pct",
                plain > 0 ? (traced - plain) / plain * 100.0 : 0.0, "%");

  if (!o.spans_out.empty()) {
    if (!tracer.write_json(o.spans_out)) die("cannot write " + o.spans_out);
    std::printf("# spans written to %s\n", o.spans_out.c_str());
  }
  return replay.ok;
}

patterns::ShardingOptions sharding_options() {
  patterns::ShardingOptions p;
  p.backends = kShards;
  p.timeout_ms = ShardedService::make_default_options().timeout_ms;
  return p;
}

std::unique_ptr<ShardedService> make_sharded(Transport t,
                                             obs::Profiler* profiler) {
  auto so = ShardedService::make_default_options();
  so.shards = kShards;
  so.mode = ShardedService::Mode::kByKeyHash;
  so.transport = t;
  so.profiler = profiler;
  return std::make_unique<ShardedService>(so);
}

// sharded_inproc / sharded_tcp_4k: one closed-loop caller.
Report sharded_closed(const RunOptions& o, Transport transport,
                      const KeyModel& model) {
  Report rep;
  obs::Profiler profiler;
  std::vector<Caller> callers;
  auto svc = set_up<ShardedService>(
      rep, o.trace ? 1 : kSetups,
      [&](int, bool last) {
        return make_sharded(transport, o.trace && last ? &profiler : nullptr);
      },
      callers, 1, model, o.seed);

  Figures f;
  f.before = profiler.snapshot();
  const std::int64_t start = now_ns();
  std::optional<Tracer> tracer;
  if (o.trace) tracer.emplace(start);
  RunSamples rs;
  run_closed(*svc, callers[0], start + to_ns(o.seconds), rs,
             tracer ? &*tracer : nullptr, kKeep);
  const double elapsed = secs(now_ns() - start);
  f.after = profiler.snapshot();
  const std::uint64_t lost = callers[0].readback(*svc);
  f.shard_skew = shard_skew(*svc);
  svc.reset();
  f.teardown = profiler.snapshot();

  std::printf("# closed loop: 1 caller, %.2f s measured\n", elapsed);
  latency_metrics(rep, rs.lat_us, rs.done_ns, rs.ok_done_ns, start,
                  start + to_ns(o.seconds), "request send to reply");
  Report::line("peak_rss_end_mb", peak_rss_mb(), "MB");
  bool replay_ok = true;
  if (o.trace) {
    f.measured = rs.attempted;
    f.lifetime = 2 * model.keys_per_caller + rs.attempted;
    f.plain_us = rs.lat_us;
    f.traced_us = rs.traced_lat_us;
    f.kept = std::move(rs.kept);
    f.preload = preload_of(callers);
    f.spec = patterns::sharding(sharding_options());
    f.transport = transport;
    f.wrong = rs.fails.misattributed + rs.fails.stale + rs.fails.missing;
    replay_ok = layer_metrics(rep, *tracer, f, o);
  }
  account(rep, rs.attempted, rs.fails, lost, replay_ok);
  return rep;
}

// sharded_open: open loop, one seeded arrival schedule per caller thread.
Report sharded_open(const RunOptions& o) {
  Report rep;
  const std::size_t n = std::clamp<std::size_t>(o.nproc, 1, 4);
  KeyModel model;
  model.keys_per_caller = 10000 / n;
  model.value_bytes = 64;
  model.get_fraction = 0.9;
  model.skewed = true;
  obs::Profiler profiler;
  std::vector<Caller> callers;
  auto svc = set_up<ShardedService>(
      rep, o.trace ? 1 : kSetups,
      [&](int, bool last) {
        return make_sharded(Transport::kInProcess,
                            o.trace && last ? &profiler : nullptr);
      },
      callers, n, model, o.seed);

  // The 4 000 req/s step carries the JSON figures and the 2 000 req/s step
  // the printed ones beside them, so they get more of the run; every step
  // is followed by a grace period in which a backlog may drain before the
  // rest is dropped.
  const std::vector<std::pair<double, double>> plan = {
      {2000, 2}, {4000, 3}, {8000, 1}, {16000, 1}, {24000, 1}};
  const double grace = 0.1;
  double shares = 0;
  for (const auto& [rate, share] : plan) shares += share;
  const double unit =
      std::max(0.1, (o.seconds - grace * static_cast<double>(plan.size())) / shares);
  std::vector<Step> steps;
  for (const auto& [rate, share] : plan) steps.push_back({rate, unit * share});
  std::vector<double> offsets;  // where each step starts in the run
  double offset = 0;
  for (const auto& st : steps) {
    offsets.push_back(offset);
    offset += st.seconds + grace;
  }

  Figures f;
  f.before = profiler.snapshot();
  const std::int64_t start = now_ns() + 20'000'000;
  std::optional<Tracer> tracer;
  if (o.trace) tracer.emplace(start);
  std::vector<std::vector<StepResult>> per_caller(n);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        per_caller[i] = run_open(*svc, callers[i], steps, n, start, to_ns(grace),
                                 o.seed, tracer ? &*tracer : nullptr);
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = secs(now_ns() - start);
  f.after = profiler.snapshot();
  std::uint64_t lost = 0;
  for (auto& c : callers) lost += c.readback(*svc);
  f.shard_skew = shard_skew(*svc);
  svc.reset();
  f.teardown = profiler.snapshot();

  std::vector<StepResult> merged(steps.size());
  for (auto& pc : per_caller) {
    for (std::size_t s = 0; s < pc.size(); ++s) merged[s].merge(std::move(pc[s]));
  }
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  FailCounts fails;
  std::printf("# open loop: %zu callers, Poisson arrivals, %.2f s measured\n", n, elapsed);
  for (const auto& s : merged) {
    attempted += s.attempted;
    correct += s.correct;
    fails.add(s.fails);
    const StepVerdict v = judge_step(s, kLimitUs);
    auto lat = s.lat_us;
    std::sort(lat.begin(), lat.end());
    const Tail t = highest_tail(lat);
    std::printf(
        "# step %6.0f req/s: scheduled=%llu sent=%llu dropped=%llu failed=%llu "
        "p50=%.1f us p99(misses=inf)=%.1f us tail p%g=%.1f us (%zu beyond, n=%zu) "
        "lateness p50=%.1f us early/late mean=%.1f/%.1f us%s%s\n",
        s.rate_rps, static_cast<unsigned long long>(s.scheduled),
        static_cast<unsigned long long>(s.attempted),
        static_cast<unsigned long long>(s.dropped),
        static_cast<unsigned long long>(s.fails.total()),
        percentile_sorted(lat, 50), v.p99_us, t.pct, t.value, t.beyond,
        lat.size(), percentile(s.lateness_us, 50), s.early_lateness_us,
        s.late_lateness_us, v.backlog ? " backlog" : "",
        v.meets ? " meets-1ms" : "");
  }
  Report::line("run_throughput_rps", static_cast<double>(correct) / elapsed, "1/s");
  auto step_figures = [&](double rate, const std::string& suffix) {
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].rate_rps != rate) continue;
      const std::int64_t from = start + to_ns(offsets[i]);
      const std::string what =
          std::to_string(static_cast<int>(rate)) + " req/s step, due time to reply";
      latency_metrics(rep, merged[i].lat_us, merged[i].done_ns,
                      merged[i].ok_done_ns, from, from + to_ns(steps[i].seconds),
                      what.c_str(), suffix);
      return &merged[i];
    }
    die("no open-loop step at the reported rate");
  };
  const StepResult* at_rate = step_figures(kReportRate, "");
  step_figures(kLowRate, "_at_2000");
  Report::line("peak_rss_end_mb", peak_rss_mb(), "MB");
  Report::line("max_rps_p99_1ms", max_rate_within(merged, kLimitUs), "1/s");
  bool replay_ok = true;
  if (o.trace) {
    f.measured = attempted;
    f.lifetime = 2 * model.keys_per_caller * n + attempted;
    f.plain_us = at_rate->lat_us;
    f.traced_us = at_rate->traced_lat_us;
    f.preload = preload_of(callers);
    // Replay a sample of the commands the callers issued.
    Caller sample(0, model, o.seed);
    for (std::size_t i = 0; i < kKeep; ++i) {
      f.kept.push_back({tracer->new_id(), 0, sample.next()});
    }
    f.spec = patterns::sharding(sharding_options());
    f.wrong = fails.misattributed + fails.stale + fails.missing;
    replay_ok = layer_metrics(rep, *tracer, f, o);
  }
  account(rep, attempted, fails, lost, replay_ok);
  return rep;
}

// reshard_live: closed-loop callers while the control plane grows 2 -> 8.
Report reshard_live(const RunOptions& o) {
  Report rep;
  const std::size_t n = std::max<unsigned>(1, o.nproc - 1);
  KeyModel model;
  model.keys_per_caller = 2048 / n;
  model.value_bytes = 64;
  model.get_fraction = 0.5;
  obs::Profiler profiler;
  std::vector<Caller> callers;
  const std::filesystem::path journals =
      std::filesystem::path(o.scratch_dir) /
      ("reshard-journal-" + std::to_string(::getpid()));
  std::filesystem::remove_all(journals);
  auto svc = set_up<RebalancedService>(
      rep, o.trace ? 1 : kSetups,
      [&](int i, bool last) {
        auto ro = RebalancedService::make_default_options();
        ro.shards = 2;
        ro.buckets = 16;
        ro.journal_dir = (journals / std::to_string(i)).string();
        std::filesystem::create_directories(ro.journal_dir);
        ro.profiler = o.trace && last ? &profiler : nullptr;
        return std::make_unique<RebalancedService>(ro);
      },
      callers, n, model, o.seed);

  Figures f;
  f.before = profiler.snapshot();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + to_ns(o.seconds);
  std::optional<Tracer> tracer;
  if (o.trace) tracer.emplace(start);
  std::vector<RunSamples> samples(n);
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;  // add+rebalance
  std::vector<double> add_ms;
  std::vector<double> handoff_ms;
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        run_closed(*svc, callers[i], end, samples[i],
                   tracer ? &*tracer : nullptr, kKeep / n);
      });
    }
    // Joins at 1/8 .. 6/8 of the run; each is add_shard() + rebalance().
    for (int k = 1; k <= 6; ++k) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start + to_ns(o.seconds * k / 8.0))));
      const std::uint64_t h0 = svc->handoffs_completed();
      const std::int64_t a = now_ns();
      const Status added = svc->add_shard();
      const std::int64_t b = now_ns();
      const Status moved = svc->rebalance();
      const std::int64_t c = now_ns();
      if (!added.ok() || !moved.ok()) {
        for (auto& t : threads) t.join();
        die("reshard step failed: " +
            (added.ok() ? moved.error() : added.error()).to_string());
      }
      windows.emplace_back(a, c);
      add_ms.push_back(secs(b - a) * 1000);
      const std::uint64_t h = svc->handoffs_completed() - h0;
      if (h > 0) handoff_ms.push_back(secs(c - b) * 1000 / static_cast<double>(h));
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = secs(now_ns() - start);
  f.after = profiler.snapshot();
  RunSamples rs;
  for (auto& s : samples) rs.merge(std::move(s));
  std::uint64_t lost = 0;
  for (auto& c : callers) lost += c.readback(*svc);

  double reshard_s = 0;
  std::uint64_t during = 0;
  for (const auto& [a, c] : windows) {
    reshard_s += secs(c - a);
    during += static_cast<std::uint64_t>(std::count_if(
        rs.ok_done_ns.begin(), rs.ok_done_ns.end(),
        [&](std::int64_t t) { return t >= a && t < c; }));
  }
  std::vector<double> routing;
  for (const auto w : svc->routing_error_windows()) {
    routing.push_back(static_cast<double>(w.count()) / 1e6);
  }
  std::vector<double> owned;
  for (std::size_t i = 0; i < svc->shard_count(); ++i) {
    owned.push_back(static_cast<double>(svc->owned_buckets(i).size()));
  }
  f.shard_skew = skew(owned);
  f.nacks = svc->wrong_owner_nacks();
  f.retries = svc->client_retries();
  f.aborted = svc->handoffs_aborted();
  const std::uint64_t handoffs = svc->handoffs_completed();
  const std::size_t shards = svc->shard_count();
  svc.reset();
  f.teardown = profiler.snapshot();
  std::filesystem::remove_all(journals);

  std::printf(
      "# closed loop: %zu callers, %.2f s measured; 2 -> %zu shards, %llu "
      "handoffs (%llu aborted), %llu kWrongOwner nacks, %llu retries\n",
      n, elapsed, shards, static_cast<unsigned long long>(handoffs),
      static_cast<unsigned long long>(f.aborted),
      static_cast<unsigned long long>(f.nacks),
      static_cast<unsigned long long>(f.retries));
  latency_metrics(rep, rs.lat_us, rs.done_ns, rs.ok_done_ns, start, end,
                  "request send to reply, whole run");
  Report::line("peak_rss_end_mb", peak_rss_mb(), "MB");
  Report::line("reshard_s", reshard_s, "s");
  Report::line("handoff_rps", reshard_s > 0 ? static_cast<double>(during) / reshard_s : 0, "1/s");
  std::sort(routing.begin(), routing.end());
  std::printf("# routing-error windows: n=%zu\n", routing.size());
  Report::line("routing_window_p99_ms", percentile_sorted(routing, 99), "ms");
  std::printf("# rebalance: add_shard p50/p99 over %zu joins; handoff = rebalance() / handoffs it ran, over %zu joins\n",
              add_ms.size(), handoff_ms.size());
  Report::line("rebalance.add_shard_ms", median(add_ms), "ms");
  Report::line("rebalance.handoff_p50_ms", percentile(handoff_ms, 50), "ms");
  Report::line("rebalance.handoff_p99_ms", percentile(handoff_ms, 99), "ms");
  bool replay_ok = true;
  if (o.trace) {
    f.measured = rs.attempted;
    f.lifetime = 2 * model.keys_per_caller * n + rs.attempted;
    f.plain_us = rs.lat_us;
    f.traced_us = rs.traced_lat_us;
    f.kept = std::move(rs.kept);
    f.preload = preload_of(callers);
    patterns::RebalanceOptions ropts;
    ropts.shards = 2;
    ropts.timeout_ms = RebalancedService::make_default_options().timeout_ms;
    f.spec = patterns::rebalance(ropts);
    f.wrong = rs.fails.misattributed + rs.fails.stale + rs.fails.missing;
    replay_ok = layer_metrics(rep, *tracer, f, o);
  }
  account(rep, rs.attempted, rs.fails, lost, replay_ok);
  return rep;
}

}  // namespace

Report run_workload(const RunOptions& o) {
  if (o.workload == "sharded_inproc") {
    KeyModel m;
    m.keys_per_caller = 10000;
    m.value_bytes = 64;
    m.get_fraction = 0.9;
    return sharded_closed(o, Transport::kInProcess, m);
  }
  if (o.workload == "sharded_tcp_4k") {
    KeyModel m;
    m.keys_per_caller = 2000;
    m.value_bytes = 4096;
    m.get_fraction = 0.5;
    return sharded_closed(o, Transport::kTcpLoopback, m);
  }
  if (o.workload == "sharded_open") return sharded_open(o);
  if (o.workload == "reshard_live") return reshard_live(o);
  die("unknown workload '" + o.workload + "'");
}

}  // namespace perfbench
