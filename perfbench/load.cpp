#include "load.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

namespace perfbench {

std::string key_name(std::uint32_t caller, std::size_t key) {
  return "c" + std::to_string(caller) + ":k" + std::to_string(key);
}

std::string make_value(std::uint32_t caller, std::size_t key,
                       std::uint64_t version, std::size_t bytes) {
  std::string v = key_name(caller, key) + ":v" + std::to_string(version) + "|";
  v.resize(std::max(bytes, v.size()),
           static_cast<char>('a' + (key + version) % 26));
  return v;
}

Caller::Caller(std::uint32_t id, const KeyModel& model, std::uint64_t seed)
    : id_(id),
      model_(model),
      rng_(seed * 0x9E3779B97F4A7C15ULL + id),
      acked_(model.keys_per_caller, 0),
      maybe_(model.keys_per_caller, 0),
      issued_(model.keys_per_caller, 0) {}

std::size_t Caller::pick_key() {
  const std::size_t n = model_.keys_per_caller;
  if (!model_.skewed) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  const std::size_t hot = std::max<std::size_t>(1, n / 10);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(rng_) < 0.9 || hot == n) {
    return std::uniform_int_distribution<std::size_t>(0, hot - 1)(rng_);
  }
  return std::uniform_int_distribution<std::size_t>(hot, n - 1)(rng_);
}

Command Caller::next() {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const bool get = coin(rng_) < model_.get_fraction;
  const std::size_t k = pick_key();
  Command c;
  c.key = key_name(id_, k);
  if (get) {
    c.op = Command::Op::kGet;
  } else {
    c.op = Command::Op::kSet;
    c.value = make_value(id_, k, ++issued_[k], model_.value_bytes);
  }
  return c;
}

std::size_t Caller::key_of(const Command& c) const {
  // "c<id>:k<key>"
  const auto pos = c.key.find(":k");
  return static_cast<std::size_t>(std::stoull(c.key.substr(pos + 2)));
}

namespace {

// Version encoded in `value` when it belongs to `key`; nullopt otherwise.
std::optional<std::uint64_t> version_for(const std::string& key,
                                         const std::string& value) {
  if (value.size() <= key.size() + 2 || value.compare(0, key.size(), key) != 0 ||
      value.compare(key.size(), 2, ":v") != 0) {
    return std::nullopt;
  }
  const auto bar = value.find('|', key.size() + 2);
  if (bar == std::string::npos) return std::nullopt;
  try {
    return std::stoull(value.substr(key.size() + 2, bar - key.size() - 2));
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

Verdict Caller::check(const Command& command,
                      const csaw::Result<Response>& response) {
  const std::size_t k = key_of(command);
  if (command.op == Command::Op::kSet) {
    const std::uint64_t ver = issued_[k];
    if (!response.ok()) {
      maybe_[k] = ver;
      return Verdict::kError;
    }
    if (!response->found || !response->value.empty()) {
      // Someone else's reply: this SET's own fate is unknown.
      maybe_[k] = ver;
      return Verdict::kMisattributed;
    }
    acked_[k] = ver;
    maybe_[k] = 0;
    return Verdict::kOk;
  }
  if (!response.ok()) return Verdict::kError;
  if (!response->found) return Verdict::kMissing;
  const auto& v = response->value;
  if (v == make_value(id_, k, acked_[k], model_.value_bytes)) {
    return Verdict::kOk;
  }
  if (maybe_[k] != 0 &&
      v == make_value(id_, k, maybe_[k], model_.value_bytes)) {
    acked_[k] = maybe_[k];
    maybe_[k] = 0;
    return Verdict::kOk;
  }
  const auto ver = version_for(command.key, v);
  if (ver && *ver < acked_[k] &&
      v == make_value(id_, k, *ver, model_.value_bytes)) {
    return Verdict::kStale;
  }
  return Verdict::kMisattributed;
}

std::vector<Command> Caller::preload() const {
  std::vector<Command> out;
  out.reserve(model_.keys_per_caller);
  for (std::size_t k = 0; k < model_.keys_per_caller; ++k) {
    Command c;
    c.op = Command::Op::kSet;
    c.key = key_name(id_, k);
    c.value = make_value(id_, k, 0, model_.value_bytes);
    out.push_back(std::move(c));
  }
  return out;
}

std::uint64_t Caller::readback(Service& svc) {
  std::uint64_t lost = 0;
  for (std::size_t k = 0; k < model_.keys_per_caller; ++k) {
    Command c;
    c.op = Command::Op::kGet;
    c.key = key_name(id_, k);
    if (check(c, svc.request(c)) != Verdict::kOk) ++lost;
  }
  return lost;
}

void count(FailCounts& f, Verdict v) {
  switch (v) {
    case Verdict::kOk:
      break;
    case Verdict::kError:
      ++f.errors;
      break;
    case Verdict::kMissing:
      ++f.missing;
      break;
    case Verdict::kMisattributed:
      ++f.misattributed;
      break;
    case Verdict::kStale:
      ++f.stale;
      break;
  }
}

namespace {

template <typename T>
void append(std::vector<T>& to, std::vector<T>&& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

}  // namespace

void RunSamples::merge(RunSamples&& o) {
  append(lat_us, std::move(o.lat_us));
  append(done_ns, std::move(o.done_ns));
  append(traced_lat_us, std::move(o.traced_lat_us));
  append(ok_done_ns, std::move(o.ok_done_ns));
  append(kept, std::move(o.kept));
  attempted += o.attempted;
  correct += o.correct;
  fails.add(o.fails);
}

void run_closed(Service& svc, Caller& caller, std::int64_t end_ns,
                RunSamples& out, Tracer* tracer, std::size_t keep) {
  SpanBuffer* buf = tracer != nullptr ? &tracer->buffer() : nullptr;
  // Room for 16k requests/s up front, so sample vectors do not reallocate
  // (and double the process's peak RSS) mid-run.
  const auto room = static_cast<std::size_t>(
      std::max<std::int64_t>(0, end_ns - now_ns()) / 1'000'000'000 * 16384);
  for (auto* v : {&out.lat_us, &out.traced_lat_us}) v->reserve(room);
  for (auto* v : {&out.done_ns, &out.ok_done_ns}) v->reserve(room);
  for (std::int64_t t0 = now_ns(); t0 < end_ns; t0 = now_ns()) {
    const Command cmd = caller.next();
    const bool traced = tracer != nullptr && tracer->traced_segment(t0);
    std::uint64_t request = 0;
    std::uint64_t span = 0;
    csaw::Result<Response> resp = csaw::make_error(csaw::Errc::kTimeout, "");
    std::int64_t start = 0;
    std::int64_t done = 0;
    {
      if (traced) request = tracer->new_id();
      ScopedSpan s(traced ? buf : nullptr, tracer, "request", request, 0);
      span = s.id();
      start = now_ns();
      resp = svc.request(cmd);
      done = now_ns();
    }
    const double us = static_cast<double>(done - start) / 1000.0;
    if (traced) {
      out.traced_lat_us.push_back(us);
    } else {
      out.lat_us.push_back(us);
      out.done_ns.push_back(done);
    }
    ++out.attempted;
    const Verdict v = caller.check(cmd, resp);
    count(out.fails, v);
    if (v == Verdict::kOk) {
      ++out.correct;
      out.ok_done_ns.push_back(done);
    }
    if (traced && out.kept.size() < keep) {
      out.kept.push_back({request, span, cmd});
    }
  }
}

// --- open loop -------------------------------------------------------------------

void StepResult::merge(StepResult&& o) {
  rate_rps = o.rate_rps;
  append(lat_us, std::move(o.lat_us));
  append(done_ns, std::move(o.done_ns));
  append(ok_done_ns, std::move(o.ok_done_ns));
  append(correct_lat_us, std::move(o.correct_lat_us));
  append(lateness_us, std::move(o.lateness_us));
  append(traced_lat_us, std::move(o.traced_lat_us));
  scheduled += o.scheduled;
  attempted += o.attempted;
  correct += o.correct;
  dropped += o.dropped;
  fails.add(o.fails);
  // The worst caller's lateness: a backlog on any caller counts.
  early_lateness_us = std::max(early_lateness_us, o.early_lateness_us);
  late_lateness_us = std::max(late_lateness_us, o.late_lateness_us);
}

std::vector<StepResult> run_open(Service& svc, Caller& caller,
                                 const std::vector<Step>& steps,
                                 std::size_t callers, std::int64_t start_ns,
                                 std::int64_t grace_ns, std::uint64_t seed,
                                 Tracer* tracer) {
  // Sleep overshoot is generator lateness; keep the kernel's timer slack
  // from adding its default 50 us to every due time.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  SpanBuffer* buf = tracer != nullptr ? &tracer->buffer() : nullptr;
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ULL + caller.id());
  std::vector<StepResult> out;
  std::int64_t window = start_ns;
  for (const Step& step : steps) {
    StepResult r;
    r.rate_rps = step.rate_rps;
    const auto len = static_cast<std::int64_t>(step.seconds * 1e9);
    const double per_caller = step.rate_rps / static_cast<double>(callers);
    std::exponential_distribution<double> gap(per_caller / 1e9);
    std::vector<std::int64_t> due;
    for (double t = gap(rng); t < static_cast<double>(len); t += gap(rng)) {
      due.push_back(window + static_cast<std::int64_t>(t));
    }
    r.scheduled = due.size();
    for (auto* v : {&r.lat_us, &r.traced_lat_us, &r.correct_lat_us,
                    &r.lateness_us}) {
      v->reserve(due.size());
    }
    for (auto* v : {&r.done_ns, &r.ok_done_ns}) v->reserve(due.size());
    for (const std::int64_t d : due) {
      if (now_ns() > window + len + grace_ns) {
        ++r.dropped;
        continue;
      }
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(d)));
      const Command cmd = caller.next();
      const std::int64_t sent = now_ns();
      const bool traced = tracer != nullptr && tracer->traced_segment(sent);
      const std::uint64_t request = traced ? tracer->new_id() : 0;
      csaw::Result<Response> resp = csaw::make_error(csaw::Errc::kTimeout, "");
      {
        ScopedSpan s(traced ? buf : nullptr, tracer, "request", request, 0);
        resp = svc.request(cmd);
      }
      const std::int64_t done = now_ns();
      r.lateness_us.push_back(static_cast<double>(sent - d) / 1000.0);
      const double us = static_cast<double>(done - d) / 1000.0;
      if (traced) {
        r.traced_lat_us.push_back(us);
      } else {
        r.lat_us.push_back(us);
        r.done_ns.push_back(done);
      }
      ++r.attempted;
      const Verdict v = caller.check(cmd, resp);
      count(r.fails, v);
      if (v == Verdict::kOk) {
        ++r.correct;
        r.correct_lat_us.push_back(us);
        r.ok_done_ns.push_back(done);
      }
    }
    const std::size_t q = r.lateness_us.size() / 4;
    if (q > 0) {
      double early = 0;
      double late = 0;
      for (std::size_t i = 0; i < q; ++i) {
        early += r.lateness_us[i];
        late += r.lateness_us[r.lateness_us.size() - 1 - i];
      }
      r.early_lateness_us = early / static_cast<double>(q);
      r.late_lateness_us = late / static_cast<double>(q);
    }
    out.push_back(std::move(r));
    window += len + grace_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(window)));
  }
  return out;
}

StepVerdict judge_step(const StepResult& s, double limit_us) {
  StepVerdict v;
  // Correct replies keep their latency; wrong replies, errors and drops are
  // misses (+inf).
  std::vector<double> lat = s.correct_lat_us;
  lat.insert(lat.end(), static_cast<std::size_t>(s.fails.total() + s.dropped),
             std::numeric_limits<double>::infinity());
  std::sort(lat.begin(), lat.end());
  v.p99_us = percentile_sorted(lat, 99);
  v.backlog = s.dropped > 0 ||
              s.late_lateness_us - s.early_lateness_us > 0.25 * limit_us;
  v.meets = !lat.empty() && v.p99_us <= limit_us && !v.backlog;
  return v;
}

double max_rate_within(const std::vector<StepResult>& steps, double limit_us) {
  double best = 0;
  for (const auto& s : steps) {
    if (judge_step(s, limit_us).meets) best = std::max(best, s.rate_rps);
  }
  return best;
}

}  // namespace perfbench
