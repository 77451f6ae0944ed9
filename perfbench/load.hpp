// Load generation and response verification over any miniredis::Service.
//
// Every caller owns a disjoint slice of the keyspace, so the value a GET
// must return is known exactly: the last version this caller wrote to that
// key. A response that carries another key's value is misattributed, an
// older version of the right key is stale, and a SET must come back as a
// bare ack. Values encode their key and version ("c<caller>:k<key>:v<ver>|"
// then filler up to the value size), which is what makes a wrong answer
// classifiable.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "apps/miniredis/services.hpp"
#include "spans.hpp"

namespace perfbench {

using csaw::miniredis::Command;
using csaw::miniredis::Response;
using csaw::miniredis::Service;

struct KeyModel {
  std::size_t keys_per_caller = 1000;
  std::size_t value_bytes = 64;
  double get_fraction = 0.9;
  // false: uniform over the caller's keys; true: 90% of operations on the
  // hottest 10% of them.
  bool skewed = false;
};

struct FailCounts {
  std::uint64_t errors = 0;         // request() returned an error
  std::uint64_t missing = 0;        // GET found nothing for a preloaded key
  std::uint64_t misattributed = 0;  // another key's value, or a GET's value
                                    // on a SET
  std::uint64_t stale = 0;          // an older version of the right key
  std::uint64_t lost = 0;           // acked write absent at final readback

  [[nodiscard]] std::uint64_t total() const {
    return errors + missing + misattributed + stale + lost;
  }
  void add(const FailCounts& o) {
    errors += o.errors;
    missing += o.missing;
    misattributed += o.misattributed;
    stale += o.stale;
    lost += o.lost;
  }
};

enum class Verdict { kOk, kError, kMissing, kMisattributed, kStale };

std::string key_name(std::uint32_t caller, std::size_t key);
std::string make_value(std::uint32_t caller, std::size_t key,
                       std::uint64_t version, std::size_t bytes);

// One caller's key slice, operation stream and expected values.
class Caller {
 public:
  Caller(std::uint32_t id, const KeyModel& model, std::uint64_t seed);

  // The next command of this caller's stream (SETs carry a fresh version).
  Command next();
  // Judges `response` to `command` and advances the expected state.
  Verdict check(const Command& command,
                const csaw::Result<Response>& response);
  // SET of every key at version 0.
  [[nodiscard]] std::vector<Command> preload() const;
  // GETs every key once through `svc` (single-threaded, after the load
  // stopped) and counts keys whose value is not the last acked version.
  std::uint64_t readback(Service& svc);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const KeyModel& model() const { return model_; }

 private:
  std::size_t pick_key();
  [[nodiscard]] std::size_t key_of(const Command& c) const;

  std::uint32_t id_;
  KeyModel model_;
  std::mt19937_64 rng_;
  std::vector<std::uint64_t> acked_;  // last acked version per key
  // Version of a SET whose outcome is unknown (error or malformed ack);
  // a later read may see it or the acked one. 0 = none.
  std::vector<std::uint64_t> maybe_;
  std::vector<std::uint64_t> issued_;  // versions handed out per key
};

void count(FailCounts& f, Verdict v);

// A request kept from a traced segment for the layer replay.
struct KeptRequest {
  std::uint64_t request = 0;
  std::uint64_t span = 0;
  Command command;
};

struct RunSamples {
  std::vector<double> lat_us;         // untraced requests (all, untraced run)
  std::vector<std::int64_t> done_ns;  // completion time of each lat_us entry
  std::vector<double> traced_lat_us;  // requests inside traced segments
  std::vector<std::int64_t> ok_done_ns;  // completion times of correct replies
  std::vector<KeptRequest> kept;
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  FailCounts fails;

  void merge(RunSamples&& o);
};

// Closed loop: one request at a time until `end_ns`. With a tracer, every
// request in a traced segment is a "request" span (id = a fresh request id)
// and up to `keep` such requests are kept for the layer replay.
void run_closed(Service& svc, Caller& caller, std::int64_t end_ns,
                RunSamples& out, Tracer* tracer, std::size_t keep);

// --- open loop ----------------------------------------------------------------

struct Step {
  double rate_rps = 0;  // offered rate, all callers together
  double seconds = 0;
};

struct StepResult {
  double rate_rps = 0;
  std::vector<double> lat_us;  // due time -> reply, untraced segments (all
                               // replies in an untraced run)
  std::vector<std::int64_t> done_ns;    // completion time of each lat_us
  std::vector<std::int64_t> ok_done_ns;  // completion times, correct replies
  std::vector<double> traced_lat_us;   // the same, traced segments
  std::vector<double> correct_lat_us;  // the same, correct replies only
  std::vector<double> lateness_us;     // due time -> send
  std::uint64_t scheduled = 0;
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  std::uint64_t dropped = 0;  // due but still unsent when the step's grace
                              // period ended (a backlog)
  FailCounts fails;
  // Mean generator lateness over the first and last quarter of the step's
  // sends; a backlog makes the second grow.
  double early_lateness_us = 0;
  double late_lateness_us = 0;

  void merge(StepResult&& o);
};

// One caller's share of every step: Poisson arrivals at rate/callers from a
// seeded schedule, each request timed from its due time. A caller that
// falls behind keeps sending late requests until `grace_ns` past the
// step's end, then drops the rest. Steps start at fixed offsets from
// `start_ns` (each step's seconds plus the grace period).
std::vector<StepResult> run_open(Service& svc, Caller& caller,
                                 const std::vector<Step>& steps,
                                 std::size_t callers, std::int64_t start_ns,
                                 std::int64_t grace_ns, std::uint64_t seed,
                                 Tracer* tracer);

struct StepVerdict {
  double p99_us = 0;  // failed and dropped requests count as misses (+inf)
  bool backlog = false;
  bool meets = false;
};
StepVerdict judge_step(const StepResult& s, double limit_us);
// The highest offered rate whose step meets `limit_us` at p99 with no
// growing backlog; 0 when none does.
double max_rate_within(const std::vector<StepResult>& steps, double limit_us);

}  // namespace perfbench
