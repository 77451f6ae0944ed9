// Per-layer measurements, each taken from outside the layer by timing calls
// into its public API: floor probes for the compart runtime, a replay of
// the workload's own commands through serdes, the wire codec and the bare
// store, compile/launch of the workload's program, and the scheduler and
// link figures the obs::Profiler collected inside the service.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compart/runtime.hpp"
#include "core/program.hpp"
#include "load.hpp"
#include "obs/profile.hpp"
#include "spans.hpp"

namespace perfbench {

// compart.call_empty: Engine::call on a one-junction program whose body is
// a no-op host block. Spans "compart.call_empty".
void probe_call_empty(Tracer& tracer, std::size_t calls);

// compart.push_ack: Runtime::push + ack between two hand-assembled
// instances over `transport`. Spans named `span_name` (a literal).
void probe_push_ack(Tracer& tracer, csaw::Transport transport,
                    const char* span_name, std::size_t pushes);

// core.compile / core.launch: compile(spec) and Engine construction +
// run_main (no host bindings are needed to start the instances), then
// teardown. Spans "core.compile" and "core.launch".
void probe_compile_launch(Tracer& tracer, const csaw::ProgramSpec& spec,
                          csaw::Transport transport, std::size_t reps);

struct ReplayTotals {
  double serdes_bytes_per_req = 0;  // packed command + packed response
  double frame_bytes = 0;           // encoded command envelope
  bool ok = true;                   // every round trip reproduced its input
};

// Replays each kept request through the layers the real path crosses:
// serdes pack/unpack of the command and the response, the envelope wire
// codec, and a BaselineService preloaded with `preload` for the store.
// Spans are children of a "replay" span parented on the request's own span,
// with the request's id.
ReplayTotals replay_layers(Tracer& tracer,
                           const std::vector<KeptRequest>& kept,
                           const std::vector<Command>& preload);

// --- obs::Profiler readouts ------------------------------------------------------

struct SchedTotals {
  std::uint64_t evals = 0;
  std::uint64_t fires = 0;
  std::uint64_t body_cpu_ns = 0;
  std::uint64_t blocked_ns = 0;
};
SchedTotals sched_totals(const csaw::obs::CostProfile& p);
SchedTotals operator-(const SchedTotals& a, const SchedTotals& b);
// Ready-queue delay over every junction (count-weighted merge).
csaw::obs::HistSummary queue_delay(const csaw::obs::CostProfile& p);

struct LinkTotals {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  double depth_p99 = 0;
};
LinkTotals link_totals(const csaw::obs::CostProfile& p);

}  // namespace perfbench
