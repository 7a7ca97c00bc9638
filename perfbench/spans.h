// In-memory span recording for the traced run, plus the order statistics
// both runs report. A span is one timed call into a layer: name, start,
// end, the span it ran inside, and the request it belongs to. Spans are
// appended to a per-thread buffer (no locking on the hot path) and merged
// and written out once the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `values`; NaN when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[lo]) || std::isinf(values[hi])) return values[hi];
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = a root span.
  std::uint64_t request = 0;  ///< Spans of one request share this id.
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;

  double ms() const { return SecondsBetween(start, end) * 1e3; }
};

/// Collects spans from any number of threads. Each thread records into its
/// own buffer; Take() merges them after the recording threads joined.
class SpanRecorder {
 public:
  /// RAII span: starts on construction, ends on destruction, and is the
  /// parent of every span the same thread opens meanwhile.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t request)
        : recorder_(recorder) {
      Buffer& buffer = recorder_.Local();
      span_.id = recorder_.next_id_.fetch_add(1) + 1;
      span_.parent = buffer.open.empty() ? 0 : buffer.open.back();
      span_.request = request;
      span_.name = name;
      buffer.open.push_back(span_.id);
      span_.start = Clock::now();
    }
    ~Scope() {
      span_.end = Clock::now();
      Buffer& buffer = recorder_.Local();
      buffer.open.pop_back();
      buffer.spans.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Duration so far (the whole span once it closed).
    double ms() const { return SecondsBetween(span_.start, Clock::now()) * 1e3; }

   private:
    SpanRecorder& recorder_;
    Span span_;
  };

  /// Every span recorded so far, ordered by id. Call after the recording
  /// threads joined.
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (Buffer& buffer : buffers_) {
      all.insert(all.end(), buffer.spans.begin(), buffer.spans.end());
      buffer.spans.clear();
    }
    std::sort(all.begin(), all.end(),
              [](const Span& a, const Span& b) { return a.id < b.id; });
    return all;
  }

 private:
  struct Buffer {
    std::vector<std::uint64_t> open;
    std::vector<Span> spans;
  };

  /// This thread's buffer, created on its first span. A deque never moves
  /// its elements, so the cached pointer stays valid while other threads
  /// add theirs.
  Buffer& Local() {
    thread_local std::uint64_t owner = 0;
    thread_local Buffer* buffer = nullptr;
    if (owner != serial_) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffer = &buffers_.emplace_back();
      owner = serial_;
    }
    return *buffer;
  }

  static std::uint64_t NextSerial() {
    static std::atomic<std::uint64_t> serial{0};
    return serial.fetch_add(1) + 1;
  }

  const std::uint64_t serial_ = NextSerial();
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::deque<Buffer> buffers_;  // Grows under mutex_.
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
