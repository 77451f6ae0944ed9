// In-memory spans recorded by the benchmark around its calls into each
// layer's public API (nothing inside src/ is instrumented).
//
// A span has a name, a start and end (steady clock, ns), the span that
// caused it, and the id of the request it belongs to; spans of one request
// share that id. Each recording thread appends to its own buffer, so the
// hot path takes no lock; the buffers are merged and written out once, when
// the run ends. A layer's self time is its span's duration minus the part
// of that interval its child spans cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  const char* name = "";  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanBuffer {
 public:
  void add(const Span& s) { spans_.push_back(s); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class Tracer {
 public:
  // Requests alternate between untraced and traced segments of
  // `segment_ns` each, so the traced and untraced latencies come from the
  // same service under the same conditions.
  explicit Tracer(std::int64_t start_ns, std::int64_t segment_ns = 250'000'000)
      : start_ns_(start_ns), segment_ns_(segment_ns) {}

  [[nodiscard]] bool traced_segment(std::int64_t now) const {
    return now >= start_ns_ && ((now - start_ns_) / segment_ns_) % 2 == 1;
  }

  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }

  // A buffer owned by the tracer for one recording thread.
  SpanBuffer& buffer();

  [[nodiscard]] std::vector<Span> spans() const;
  // Self time (us) of every span, grouped by span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_times_us() const;
  bool write_json(const std::string& path) const;

 private:
  std::int64_t start_ns_;
  std::int64_t segment_ns_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// Self time per span: duration minus the union of its children's intervals
// clipped to it. Exposed for the self-tests.
std::vector<double> self_times_ns(const std::vector<Span>& spans);

// Records one span around a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, Tracer* tracer, const char* name,
             std::uint64_t request, std::uint64_t parent)
      : buf_(buf) {
    if (buf_ == nullptr) return;
    span_.id = tracer->new_id();
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    span_.end_ns = now_ns();
    buf_->add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanBuffer* buf_;
  Span span_;
};

}  // namespace perfbench
