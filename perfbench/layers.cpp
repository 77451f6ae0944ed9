#include "layers.hpp"

#include <algorithm>

#include "compart/wire.hpp"
#include "core/builder.hpp"
#include "core/compile.hpp"
#include "core/interp.hpp"
#include "report.hpp"
#include "serdes/registry.hpp"

namespace perfbench {

using namespace csaw;

namespace {

void must(const Status& st, const char* what) {
  if (!st.ok()) die(std::string(what) + ": " + st.error().to_string());
}

}  // namespace

void probe_call_empty(Tracer& tracer, std::size_t calls) {
  ProgramBuilder p("call_empty");
  p.type("tau").junction("j").body(e_host("noop"));
  p.instance("P", "tau");
  p.main_body(e_start(inst("P")));
  auto compiled = compile(p.build());
  if (!compiled.ok()) die("call_empty: " + compiled.error().to_string());
  HostBindings b;
  b.block("noop", [](HostCtx&) { return Status::ok_status(); });
  Engine engine(std::move(compiled).value(), std::move(b));
  must(engine.run_main(), "call_empty launch");
  SpanBuffer& buf = tracer.buffer();
  const std::size_t warmup = calls / 10;
  for (std::size_t i = 0; i < warmup + calls; ++i) {
    const bool rec = i >= warmup;
    const std::uint64_t req = rec ? tracer.new_id() : 0;
    ScopedSpan s(rec ? &buf : nullptr, &tracer, "compart.call_empty", req, 0);
    must(engine.call("P", "j", Deadline::after(std::chrono::seconds(5))),
         "call_empty");
  }
}

void probe_push_ack(Tracer& tracer, Transport transport, const char* span_name,
                    std::size_t pushes) {
  const Symbol kFlag("Flag");
  auto instance = [&](std::string_view name) {
    JunctionDesc j;
    j.name = Symbol("j");
    j.table_spec.props = {{kFlag, false}};
    j.body = [](JunctionEnv&) {};
    InstanceDesc d;
    d.name = Symbol(name);
    d.type = Symbol("probe");
    d.junctions.push_back(std::move(j));
    return d;
  };
  RuntimeOptions opts;
  opts.transport = transport;
  Runtime rt(opts);
  rt.add_instance(instance("a"));
  rt.add_instance(instance("b"));
  must(rt.start(Symbol("a")), "push_ack start a");
  must(rt.start(Symbol("b")), "push_ack start b");
  SpanBuffer& buf = tracer.buffer();
  const std::size_t warmup = pushes / 10;
  for (std::size_t i = 0; i < warmup + pushes; ++i) {
    const bool rec = i >= warmup;
    const std::uint64_t req = rec ? tracer.new_id() : 0;
    const Update u = i % 2 == 0 ? Update::assert_prop(kFlag)
                                : Update::retract_prop(kFlag);
    ScopedSpan s(rec ? &buf : nullptr, &tracer, span_name, req, 0);
    must(rt.push({.to = {Symbol("b"), Symbol("j")},
                  .update = u,
                  .deadline = Deadline::after(std::chrono::seconds(5)),
                  .from = Symbol("a")}),
         span_name);
  }
  rt.shutdown();
}

void probe_compile_launch(Tracer& tracer, const ProgramSpec& spec,
                          Transport transport, std::size_t reps) {
  SpanBuffer& buf = tracer.buffer();
  for (std::size_t i = 0; i < reps; ++i) {
    const std::uint64_t req = tracer.new_id();
    std::optional<CompiledProgram> program;
    {
      ScopedSpan s(&buf, &tracer, "core.compile", req, 0);
      auto compiled = compile(spec);
      if (!compiled.ok()) die("compile: " + compiled.error().to_string());
      program = std::move(compiled).value();
    }
    EngineOptions eopts;
    eopts.runtime.transport = transport;
    std::unique_ptr<Engine> engine;
    {
      ScopedSpan s(&buf, &tracer, "core.launch", req, 0);
      engine = std::make_unique<Engine>(std::move(*program), HostBindings{},
                                        eopts);
      must(engine->run_main(), "launch");
    }
  }
}

ReplayTotals replay_layers(Tracer& tracer, const std::vector<KeptRequest>& kept,
                           const std::vector<Command>& preload) {
  ReplayTotals totals;
  miniredis::BaselineService store;
  for (const auto& c : preload) (void)store.request(c);
  SpanBuffer& buf = tracer.buffer();
  const Symbol front("Fnt");
  const JunctionAddr back{Symbol("Bck1"), Symbol("j")};
  double serdes_bytes = 0;
  double frame_bytes = 0;
  std::uint64_t seq = 0;
  auto envelope = [&](Symbol from, JunctionAddr to, Symbol key,
                      SerializedValue sv) {
    Envelope env;
    env.seq = ++seq;
    env.from_instance = from;
    env.to = to;
    env.update = Update::write_data(key, std::move(sv));
    return env;
  };
  for (const auto& k : kept) {
    ScopedSpan replay(&buf, &tracer, "replay", k.request, k.span);
    const std::uint64_t p = replay.id();
    SerializedValue cmd_sv;
    {
      ScopedSpan s(&buf, &tracer, "serdes.pack_cmd", k.request, p);
      cmd_sv = pack("miniredis.Command", k.command);
    }
    Bytes frame;
    {
      const Envelope env = envelope(front, back, Symbol("n"), cmd_sv);
      ScopedSpan s(&buf, &tracer, "wire.encode", k.request, p);
      frame = encode_envelope(env);
    }
    Result<Envelope> got = make_error(Errc::kTimeout, "");
    {
      ScopedSpan s(&buf, &tracer, "wire.decode", k.request, p);
      got = decode_envelope(frame);
    }
    if (!got.ok()) die("wire.decode: " + got.error().to_string());
    Result<Command> cmd = make_error(Errc::kTimeout, "");
    {
      ScopedSpan s(&buf, &tracer, "serdes.unpack_cmd", k.request, p);
      cmd = unpack<Command>("miniredis.Command", got->update.value);
    }
    totals.ok = totals.ok && cmd.ok() &&
                cmd->key == k.command.key && cmd->value == k.command.value;
    Result<Response> resp = make_error(Errc::kTimeout, "");
    {
      ScopedSpan s(&buf, &tracer, "miniredis.store", k.request, p);
      resp = store.request(k.command);
    }
    if (!resp.ok()) die("store: " + resp.error().to_string());
    SerializedValue resp_sv;
    {
      ScopedSpan s(&buf, &tracer, "serdes.pack_resp", k.request, p);
      resp_sv = pack("miniredis.Response", *resp);
    }
    Bytes resp_frame;
    {
      const Envelope env =
          envelope(back.instance, {front, Symbol("j")}, Symbol("m"), resp_sv);
      ScopedSpan s(&buf, &tracer, "wire.encode_resp", k.request, p);
      resp_frame = encode_envelope(env);
    }
    {
      ScopedSpan s(&buf, &tracer, "wire.decode_resp", k.request, p);
      got = decode_envelope(resp_frame);
    }
    if (!got.ok()) die("wire.decode: " + got.error().to_string());
    Result<Response> back_resp = make_error(Errc::kTimeout, "");
    {
      ScopedSpan s(&buf, &tracer, "serdes.unpack_resp", k.request, p);
      back_resp = unpack<Response>("miniredis.Response", got->update.value);
    }
    totals.ok = totals.ok && back_resp.ok() &&
                back_resp->value == resp->value;
    serdes_bytes += static_cast<double>(cmd_sv.size() + resp_sv.size());
    frame_bytes += static_cast<double>(frame.size());
  }
  if (!kept.empty()) {
    totals.serdes_bytes_per_req = serdes_bytes / static_cast<double>(kept.size());
    totals.frame_bytes = frame_bytes / static_cast<double>(kept.size());
  }
  return totals;
}

SchedTotals sched_totals(const obs::CostProfile& p) {
  SchedTotals t;
  for (const auto& j : p.junctions) {
    t.evals += j.evals;
    t.fires += j.fires;
    t.body_cpu_ns += j.body_cpu_ns;
    t.blocked_ns += j.blocked_ns;
  }
  return t;
}

SchedTotals operator-(const SchedTotals& a, const SchedTotals& b) {
  return {a.evals - b.evals, a.fires - b.fires, a.body_cpu_ns - b.body_cpu_ns,
          a.blocked_ns - b.blocked_ns};
}

obs::HistSummary queue_delay(const obs::CostProfile& p) {
  obs::HistSummary h;
  for (const auto& j : p.junctions) h = obs::merge_summaries(h, j.queue_delay_ns);
  return h;
}

LinkTotals link_totals(const obs::CostProfile& p) {
  LinkTotals t;
  for (const auto& l : p.links) {
    t.frames += l.frames_sent;
    t.bytes += l.bytes_sent;
    t.depth_p99 = std::max(t.depth_p99, l.send_queue_depth.p99);
  }
  return t;
}

}  // namespace perfbench
