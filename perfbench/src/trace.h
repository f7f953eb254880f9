// In-memory span recorder and the arithmetic the benchmark reports from
// it: interval unions, self time, and percentiles with a sample-support
// rule. Spans are recorded only around calls into the library's public
// functions from the benchmark's own code; nothing here reaches into the
// library.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 = root); spans of one operation share `request_id`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string request_id;
  double start = 0.0;
  double end = 0.0;

  double Duration() const { return end - start; }
};

/// Thread-safe, append-only span store. A disabled recorder records
/// nothing, so untraced runs pay one branch per span site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Stores a finished span and returns its id (0 when disabled).
  uint64_t Record(std::string name, double start, double end,
                  uint64_t parent = 0, std::string request_id = "") {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = std::move(name);
    s.request_id = std::move(request_id);
    s.start = start;
    s.end = end;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Reserves an id for a span whose end is not known yet (so children
  /// can name it as parent); Finish() stores it.
  uint64_t Open(std::string name, uint64_t parent = 0,
                std::string request_id = "") {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = std::move(name);
    s.request_id = std::move(request_id);
    s.start = Now();
    s.end = s.start;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void Finish(uint64_t id) {
    if (!enabled_ || id == 0) return;
    const double end = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = end;
  }

  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes one JSON object per span; returns false when the file could
  /// not be written.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"request_id\":\"%s\",\"start\":%.9f,\"end\":%.9f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name.c_str(),
                   s.request_id.c_str(), s.start, s.end);
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, finishes on destruction. A null or
/// disabled recorder makes it a no-op with id() == 0.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, uint64_t parent = 0,
             std::string request_id = "")
      : rec_(rec != nullptr && rec->enabled() ? rec : nullptr),
        id_(rec_ != nullptr
                ? rec_->Open(std::move(name), parent, std::move(request_id))
                : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Finish(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint64_t id_;
};

/// Total length of the union of `intervals` clipped to [lo, hi]:
/// overlapping intervals count once.
inline double UnionLength(std::vector<std::pair<double, double>> intervals,
                          double lo, double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (!open || a > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// A span's self time: its duration minus the part of its interval that
/// the union of its direct children covers.
inline double SelfTime(const Span& span, const std::vector<Span>& all) {
  std::vector<std::pair<double, double>> children;
  for (const Span& s : all) {
    if (s.parent == span.id && span.id != 0) {
      children.emplace_back(s.start, s.end);
    }
  }
  return span.Duration() - UnionLength(std::move(children), span.start,
                                       span.end);
}

/// Linear-interpolated quantile of `values` at `percent` in [0, 100];
/// nullopt when empty.
inline std::optional<double> Quantile(std::vector<double> values,
                                      int percent) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double pos =
      static_cast<double>(values.size() - 1) * percent / 100.0;
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Samples strictly beyond the `percent` rank of n samples: n minus
/// ceil(percent * n / 100), in integer arithmetic.
inline size_t SamplesBeyond(size_t n, int percent) {
  const size_t p = static_cast<size_t>(percent);
  return n - (p * n + 99) / 100;
}

/// A tail percentile is reported only when at least `min_beyond` samples
/// lie beyond it (ten by default: p90 needs 100 samples).
inline std::optional<double> SupportedQuantile(
    const std::vector<double>& values, int percent, size_t min_beyond = 10) {
  if (SamplesBeyond(values.size(), percent) < min_beyond) return std::nullopt;
  return Quantile(values, percent);
}

inline std::optional<double> Median(const std::vector<double>& values) {
  return Quantile(values, 50);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
