#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

SpanBuffer& Tracer::buffer() {
  std::scoped_lock lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>());
  return *buffers_.back();
}

std::vector<Span> Tracer::spans() const {
  std::scoped_lock lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans().begin(), b->spans().end());
  }
  return out;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Children's intervals, clipped to the parent, per parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const auto& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) covered[it->second].emplace_back(a, b);
  }

  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) union_ns += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) union_ns += cur_b - cur_a;
    out[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - union_ns);
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::self_times_us() const {
  const auto all = spans();
  const auto self = self_times_ns(all);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[all[i].name].push_back(self[i] / 1000.0);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  bool first = true;
  for (const auto& s : spans()) {
    std::fprintf(f,
                 "%s\n {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                 first ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
