// trace.hpp — the benchmark's span recorder. Spans are taken from the
// benchmark's own code, around calls into the library's public functions:
// name, start, end, parent span and run id. They stay in memory and are
// written out once the run ends. With tracing off, Tracer::time() still
// returns each call's wall time (the metrics need it) but records nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "crawler.crawl"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into Tracer::spans(); -1 = root
  std::uint32_t run = 0;     // iteration of the workload the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  /// Runs `fn` inside a span named `name`; returns its wall time in seconds.
  template <typename Fn>
  double time(const char* name, Fn&& fn) {
    const std::int32_t index = open(name);
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    close(index, t0, t1);
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  /// Records an already-finished span under the currently open one (for
  /// intervals measured elsewhere, e.g. one request's round trip).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back(Span{name, start_ns, end_ns, current_, run_});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Index of the first span that does not lie inside its parent, or -1.
  std::int64_t first_misnested() const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < s.start_ns) return static_cast<std::int64_t>(i);
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.run != p.run) {
        return static_cast<std::int64_t>(i);
      }
    }
    return -1;
  }

  /// Per span: the part of its interval that no child span covers.
  std::vector<double> self_seconds() const {
    const auto kids = child_intervals();
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                    union_ns(kids[i])) * 1e-9;
    }
    return self;
  }

  /// Share of the root spans' wall time covered by their children.
  double root_coverage() const {
    const auto kids = child_intervals();
    std::int64_t total = 0, covered = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) continue;
      total += spans_[i].end_ns - spans_[i].start_ns;
      covered += union_ns(kids[i]);
    }
    return total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                     : 0.0;
  }

  /// One JSON object per line; times relative to the first span.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"run\": %u}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns - base),
                   static_cast<long long>(s.end_ns - base), s.parent, s.run);
    }
    return std::fclose(f) == 0;
  }

  static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

 private:
  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, 0, 0, current_, run_});
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    current_ = index;
    return index;
  }

  void close(std::int32_t index, std::int64_t t0, std::int64_t t1) {
    if (index < 0) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.start_ns = t0;
    s.end_ns = t1;
    current_ = s.parent;
  }

  using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;

  /// Per span: the [start, end) intervals of its direct children.
  std::vector<Intervals> child_intervals() const {
    std::vector<Intervals> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    return kids;
  }

  static std::int64_t union_ns(Intervals iv) {
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, lo = 0, hi = 0;
    bool open = false;
    for (const auto& [s, e] : iv) {
      if (!open || s > hi) {
        if (open) covered += hi - lo;
        lo = s;
        hi = e;
        open = true;
      } else {
        hi = std::max(hi, e);
      }
    }
    if (open) covered += hi - lo;
    return covered;
  }

  bool enabled_;
  std::uint32_t run_ = 0;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench
