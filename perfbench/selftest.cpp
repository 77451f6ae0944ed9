// Self-tests of the benchmark's own machinery against fake Services: a
// fake with a known fixed delay checks the percentiles, due-time latency,
// generator lateness and max_rps step selection; a fake that hands each
// caller the previous request's reply must raise fail_frac.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "load.hpp"
#include "spans.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ++g_failures;                                                     \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
    }                                                                   \
  } while (0)

void spin_for(std::int64_t ns) {
  const std::int64_t end = now_ns() + ns;
  while (now_ns() < end) {
  }
}

// A correct, thread-safe store whose every request takes `delay_ns`.
class FixedDelayService : public Service {
 public:
  explicit FixedDelayService(std::int64_t delay_ns) : delay_ns_(delay_ns) {}
  csaw::Result<Response> request(const Command& c) override {
    spin_for(delay_ns_);
    std::scoped_lock lock(mu_);
    if (c.op == Command::Op::kSet) {
      map_[c.key] = c.value;
      return Response{true, ""};
    }
    const auto it = map_.find(c.key);
    if (it == map_.end()) return Response{false, ""};
    return Response{true, it->second};
  }
  [[nodiscard]] std::string name() const override { return "fixed-delay"; }

 private:
  std::int64_t delay_ns_;
  std::mutex mu_;
  std::map<std::string, std::string> map_;
};

// Computes the right reply, but returns whichever reply was computed just
// before it (from any caller) -- FIFO correlation gone wrong.
class SwappingService : public Service {
 public:
  csaw::Result<Response> request(const Command& c) override {
    auto right = inner_.request(c);
    std::scoped_lock lock(mu_);
    Response out = last_;
    last_ = *right;
    return out;
  }
  [[nodiscard]] std::string name() const override { return "swapping"; }
  Service& inner() { return inner_; }

 private:
  FixedDelayService inner_{20'000};
  std::mutex mu_;
  Response last_{true, ""};
};

void preload(Service& svc, Caller& c) {
  for (const auto& cmd : c.preload()) {
    EXPECT(c.check(cmd, svc.request(cmd)) == Verdict::kOk);
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT(percentile_sorted(v, 50) == 500);
  EXPECT(percentile_sorted(v, 99) == 990);
  const Tail t = highest_tail(v);
  EXPECT(t.pct == 99.0);  // 10 samples beyond p99, only 1 beyond p99.9
  EXPECT(t.beyond == 10);
  EXPECT(t.value == 990);
}

void test_self_times() {
  // root [0,100) with children [10,30) and [20,50) (overlapping) and a
  // child [90,120) clipped to the root: covered = [10,50) + [90,100) = 50.
  std::vector<Span> s = {{1, 0, 7, "root", 0, 100},
                         {2, 1, 7, "a", 10, 30},
                         {3, 1, 7, "b", 20, 50},
                         {4, 1, 7, "c", 90, 120},
                         {5, 2, 7, "a.x", 12, 14}};
  const auto self = self_times_ns(s);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 18);
  EXPECT(self[2] == 30);
  EXPECT(self[4] == 2);
}

void test_verdicts() {
  KeyModel m;
  m.keys_per_caller = 4;
  m.value_bytes = 32;
  Caller c(3, m, 1);
  Command get;
  get.op = Command::Op::kGet;
  get.key = key_name(3, 1);
  EXPECT(c.check(get, Response{true, make_value(3, 1, 0, 32)}) == Verdict::kOk);
  EXPECT(c.check(get, Response{true, make_value(3, 2, 0, 32)}) ==
         Verdict::kMisattributed);
  EXPECT(c.check(get, Response{true, make_value(0, 1, 0, 32)}) ==
         Verdict::kMisattributed);
  EXPECT(c.check(get, Response{true, ""}) == Verdict::kMisattributed);
  EXPECT(c.check(get, Response{false, ""}) == Verdict::kMissing);
  EXPECT(c.check(get, csaw::make_error(csaw::Errc::kTimeout, "t")) ==
         Verdict::kError);
}

void test_fixed_delay_closed() {
  FixedDelayService svc(200'000);
  KeyModel m;
  m.keys_per_caller = 50;
  Caller c(0, m, 5);
  preload(svc, c);
  RunSamples rs;
  run_closed(svc, c, now_ns() + 200'000'000, rs, nullptr, 0);
  const double p50 = median(rs.lat_us);
  EXPECT(rs.attempted > 100);
  EXPECT(rs.fails.total() == 0);
  EXPECT(p50 >= 200 && p50 < 400);
  EXPECT(c.readback(svc) == 0);
}

void test_fixed_delay_open() {
  // 2 ms per request and one caller: capacity 500 req/s. 100 req/s keeps
  // up; 2000 req/s builds a backlog that due-time latency must show.
  FixedDelayService svc(2'000'000);
  KeyModel m;
  m.keys_per_caller = 50;
  Caller c(0, m, 9);
  preload(svc, c);
  const std::vector<Step> steps = {{100, 0.6}, {2000, 0.3}};
  auto r = run_open(svc, c, steps, 1, now_ns() + 1'000'000, 50'000'000, 3,
                    nullptr);
  EXPECT(r.size() == 2);
  const StepResult& slow = r[0];
  const StepResult& fast = r[1];
  EXPECT(slow.attempted > 30 && slow.fails.total() == 0 && slow.dropped == 0);
  EXPECT(median(slow.lat_us) >= 2000);
  EXPECT(median(slow.lateness_us) < 1000);
  // Due-time latency = lateness + service time for every request.
  EXPECT(percentile(fast.lat_us, 99) > 20'000);
  EXPECT(fast.late_lateness_us > fast.early_lateness_us + 1000);
  EXPECT(fast.dropped > 0);
  // A 20 ms limit leaves room for Poisson queueing behind a 2 ms service.
  EXPECT(!judge_step(fast, 20'000).meets);
  EXPECT(judge_step(slow, 20'000).meets);
  EXPECT(!judge_step(slow, 1000).meets);  // 2 ms service > 1 ms limit
  EXPECT(max_rate_within(r, 20'000) == 100);
  EXPECT(max_rate_within(r, 1000) == 0);
}

void test_step_selection_counts_failures() {
  StepResult ok;
  ok.rate_rps = 4000;
  for (int i = 0; i < 1000; ++i) ok.correct_lat_us.push_back(100);
  StepResult failing = ok;
  failing.rate_rps = 8000;
  failing.fails.misattributed = 11;  // > 1% of 1011 -> p99 is a miss
  StepResult backlog = ok;
  backlog.rate_rps = 16000;
  backlog.late_lateness_us = 900;
  EXPECT(judge_step(ok, 1000).meets);
  EXPECT(!judge_step(failing, 1000).meets);
  EXPECT(judge_step(backlog, 1000).backlog);
  EXPECT(max_rate_within({ok, failing, backlog}, 1000) == 4000);
}

void test_swapping_raises_fail_frac() {
  SwappingService svc;
  KeyModel m;
  m.keys_per_caller = 100;
  m.get_fraction = 0.9;
  std::vector<Caller> callers;
  for (std::uint32_t i = 0; i < 2; ++i) {
    callers.emplace_back(i, m, 11);
    preload(svc.inner(), callers.back());  // the swap would fail the preload
  }
  RunSamples total;
  std::vector<RunSamples> rs(callers.size());
  const std::int64_t end = now_ns() + 200'000'000;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < callers.size(); ++i) {
    threads.emplace_back(
        [&, i] { run_closed(svc, callers[i], end, rs[i], nullptr, 0); });
  }
  for (auto& t : threads) t.join();
  for (auto& r : rs) total.merge(std::move(r));
  const double fail_frac = static_cast<double>(total.fails.total()) /
                           static_cast<double>(total.attempted);
  EXPECT(total.attempted > 100);
  EXPECT(fail_frac > 0.5);
  EXPECT(total.fails.misattributed > 0);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_times();
  test_verdicts();
  test_fixed_delay_closed();
  test_fixed_delay_open();
  test_step_selection_counts_failures();
  test_swapping_raises_fail_frac();
  if (g_failures == 0) std::printf("perfbench self-tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
