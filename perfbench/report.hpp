// What one benchmark run reports: human-readable lines as it goes, and the
// metrics that main() prints as the final JSON line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned nproc = 1;
  std::string scratch_dir;  // temporary files (the handoff journal)
  std::string spans_out;    // where the traced run writes its spans
};

struct Report {
  // End-to-end metrics (the untraced run's JSON) and per-layer metrics (the
  // traced run's JSON). Both are also printed as readable lines.
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add_e2e(std::string name, double value, std::string unit) {
    line(name, value, unit);
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    line(name, value, unit);
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  // A figure printed for the reader but not part of the JSON line.
  static void line(const std::string& name, double value,
                   const std::string& unit) {
    std::printf("  %-32s %14.4f %s\n", name.c_str(), value, unit.c_str());
    std::fflush(stdout);
  }
};

Report run_workload(const RunOptions& options);

// A run that cannot complete prints why and exits non-zero, without a
// result line.
[[noreturn]] inline void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

}  // namespace perfbench
