// Sample statistics shared by csaw-perfbench and its self-tests.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (p in [0, 100]) of an ascending sample; 0 when
// empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, p);
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

// The highest of the usual reporting percentiles that still has at least
// ten samples beyond it, so the tail figure is never a single outlier.
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t beyond = 0;  // samples strictly above the percentile's rank
};

inline Tail highest_tail(const std::vector<double>& sorted) {
  Tail t;
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    const std::size_t beyond = sorted.size() - std::min(rank, sorted.size());
    if (beyond >= 10 || p == 50.0) {
      t.pct = p;
      t.value = percentile_sorted(sorted, p);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

// Latency and throughput per fixed-width window of a run. Summarised
// across windows by a quartile, they shrug off interference that covers
// only part of a run (a noisy neighbour stealing CPU for a few seconds).
struct Windowed {
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> rps;  // correct replies per second
  [[nodiscard]] std::size_t count() const { return p50_us.size(); }
};

// `lat_us[i]` completed at `done_ns[i]`; `ok_done_ns` are the completion
// times of the correct replies. Windows without a sample are skipped.
inline Windowed windowed(const std::vector<double>& lat_us,
                         const std::vector<std::int64_t>& done_ns,
                         const std::vector<std::int64_t>& ok_done_ns,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::int64_t width_ns) {
  const auto n = static_cast<std::size_t>(
      std::max<std::int64_t>(1, (end_ns - start_ns) / width_ns));
  std::vector<std::vector<double>> lat(n);
  std::vector<std::size_t> ok(n, 0);
  auto slot = [&](std::int64_t t) -> std::size_t {
    if (t < start_ns) return n;
    return static_cast<std::size_t>((t - start_ns) / width_ns);
  };
  for (std::size_t i = 0; i < lat_us.size(); ++i) {
    const std::size_t w = slot(done_ns[i]);
    if (w < n) lat[w].push_back(lat_us[i]);
  }
  for (const std::int64_t t : ok_done_ns) {
    const std::size_t w = slot(t);
    if (w < n) ++ok[w];
  }
  Windowed out;
  for (std::size_t w = 0; w < n; ++w) {
    if (lat[w].empty()) continue;
    std::sort(lat[w].begin(), lat[w].end());
    out.p50_us.push_back(percentile_sorted(lat[w], 50));
    out.p99_us.push_back(percentile_sorted(lat[w], 99));
    out.rps.push_back(static_cast<double>(ok[w]) * 1e9 /
                      static_cast<double>(width_ns));
  }
  return out;
}

}  // namespace perfbench
