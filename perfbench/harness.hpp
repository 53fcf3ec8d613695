// harness.hpp — what every workload shares: the options it runs with, the
// report it fills, order statistics over raw samples and the FNV-1a digest
// the correctness checks compare.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  // nproc
  /// Directory for the run's files (snapshots, the span dump).
  std::string work_dir = ".bench_build/work";
  /// Self-test hook: flip one byte of the snapshot the timed part opens,
  /// so the correctness checks must fail the run.
  bool corrupt_snapshot = false;
};

/// What a workload hands back to the parent process. Metric values are
/// keyed by the names BENCHMARK.json declares; main.cpp owns the units.
struct Report {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks

  void set(const std::string& name, double value) { values[name] = value; }
  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Checks that every span of `tracer` nests inside its parent and writes
/// them to <work_dir>/trace-<label>-<seed>.jsonl.
inline void dump_spans(const Tracer& tracer, const Options& options,
                       const std::string& label, Report& report) {
  const std::int64_t bad = tracer.first_misnested();
  report.check(bad < 0, label + ": span " + std::to_string(bad) +
                            " lies outside its parent");
  const std::string path = options.work_dir + "/trace-" + label + "-" +
                           std::to_string(options.seed) + ".jsonl";
  report.check(tracer.write_jsonl(path), "cannot write " + path);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact order statistic (nearest rank) over raw samples; sorts in place.
template <typename T>
double percentile(std::vector<T>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return static_cast<double>(samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1]);
}

/// FNV-1a over result fields. Unordered sets fold through an
/// order-independent XOR so the digest never depends on bucket layout.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  template <typename Set, typename Fn>
  void unordered(const Set& set, Fn&& element_hash) {
    std::uint64_t x = 0;
    for (const auto& e : set) x ^= element_hash(e);
    u64(set.size());
    u64(x);
  }
};

/// splitmix64 finaliser: the benchmark's own bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};
CpuTimes cpu_times(const struct rusage& usage);
/// Process CPU seconds (user + sys) so far, from getrusage.
double process_cpu_seconds();

}  // namespace perfbench
