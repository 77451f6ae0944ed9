// csaw-perfbench: one run of one workload of the end-to-end benchmark.
//
//   csaw-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--scratch <dir>] [--spans-out <file>]
//
// Prints readable lines ("# ..." notes and "  name value unit" figures),
// then one JSON line: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// perfbench/run.py builds this binary and forwards its arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "csaw-perfbench: %s\nusage: csaw-perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--spans-out <file>]\n",
               why);
  std::exit(2);
}

const char* transport_of(const std::string& workload) {
  return workload == "sharded_tcp_4k" ? "tcp-loopback" : "in-process";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.scratch_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--scratch") {
      o.scratch_dir = v;
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  o.nproc = std::max(1U, std::thread::hardware_concurrency());

  std::printf(
      "# workload=%s seed=%llu seconds=%g trace=%d nproc=%u build=%s "
      "transport=%s\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.nproc, PERFBENCH_BUILD_TYPE,
      transport_of(o.workload));
  std::fflush(stdout);

  const perfbench::Report rep = perfbench::run_workload(o);
  const auto& metrics = o.trace ? rep.layers : rep.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
