// perfbench — the repository's benchmark harness. One workload per
// invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--corrupt-snapshot]
//   perfbench --list-metrics
//   perfbench --capacity --seed N --seconds S
//
// Each workload runs in forked children: peak RSS and CPU come from wait4
// rusage. With --trace 0 the last stdout line is the JSON result with the
// end-to-end metrics; with --trace 1, with the per-layer metrics, and the
// spans are written to DIR/trace-<workload>-<seed>.jsonl. A failed
// correctness check prints correct=false and exits 1.
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch.hpp"
#include "harness.hpp"
#include "serve.hpp"

namespace perfbench {

CpuTimes cpu_times(const rusage& u) {
  return CpuTimes{
      static_cast<double>(u.ru_utime.tv_sec) + static_cast<double>(u.ru_utime.tv_usec) * 1e-6,
      static_cast<double>(u.ru_stime.tv_sec) + static_cast<double>(u.ru_stime.tv_usec) * 1e-6};
}

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return cpu_times(u).total();
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

// Must match BENCHMARK.json; perfbench/selftest.py checks that it does.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"run_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"announce_p50_us", "us", "lower"},
    {"announces_per_cpu_s", "1/s", "higher"},
    {"announce_ok_frac", "frac", "higher"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.build_s", "s", "lower"},
    {"core.build.prepare_s", "s", "lower"},
    {"core.build.serial_s", "s", "lower"},
    {"torrent.pieces", "count", "lower"},
    {"torrent.prepare_us_per_piece", "us", "lower"},
    {"crawler.crawl_s", "s", "lower"},
    {"crawler.announces", "count", "lower"},
    {"crawler.us_per_announce", "us", "lower"},
    {"crawler.publisher_identified_frac", "frac", "higher"},
    {"tracker.rejected_frac", "frac", "lower"},
    {"snapshot.compact_s", "s", "lower"},
    {"snapshot.save_s", "s", "lower"},
    {"snapshot.bytes", "bytes", "lower"},
    {"snapshot.open_s", "s", "lower"},
    {"analysis.identity_s", "s", "lower"},
    {"analysis.classify_s", "s", "lower"},
    {"analysis.seeding_s", "s", "lower"},
    {"analysis.demographics_s", "s", "lower"},
    {"analysis.consumption_s", "s", "lower"},
    {"analysis.distinct_ips_s", "s", "lower"},
    {"dht.overlay_s", "s", "lower"},
    {"dht.crawl_s", "s", "lower"},
    {"dht.lookups", "count", "lower"},
    {"dht.us_per_lookup", "us", "lower"},
    {"dht.hops_per_lookup", "count", "lower"},
    {"dht.messages_per_lookup", "count", "lower"},
    {"dht.timeout_frac", "frac", "lower"},
    {"crosscheck.s", "s", "lower"},
    {"crosscheck.recall", "frac", "higher"},
    {"netio.server_user_us_per_announce", "us", "lower"},
    {"netio.server_sys_us_per_announce", "us", "lower"},
    {"netio.send_failures", "count", "lower"},
    {"netio.malformed", "count", "lower"},
    {"loadgen.late_max_ms", "ms", "lower"},
    {"loadgen.samples", "count", "higher"},
    {"loadgen.p90_us", "us", "lower"},
    {"loadgen.p99_us", "us", "lower"},
    {"loadgen.p99_pooled_us", "us", "lower"},
    {"loadgen.timeouts", "count", "lower"},
    {"loadgen.retransmits", "count", "lower"},
    {"loadgen.error_replies", "count", "lower"},
    {"loadgen.undecodable", "count", "lower"},
    {"self.bench_s", "s", "lower"},
    {"self.core_s", "s", "lower"},
    {"self.crawler_s", "s", "lower"},
    {"self.snapshot_s", "s", "lower"},
    {"self.analysis_s", "s", "lower"},
    {"self.dht_s", "s", "lower"},
    {"self.crosscheck_s", "s", "lower"},
    {"self.netio_s", "s", "lower"},
    {"trace.overhead_frac", "frac", "lower"},
    {"trace.coverage_frac", "frac", "higher"},
    {"trace.spans", "count", "higher"},
};

const char* const kWorkloads[] = {"pipeline_signature", "dht_crosscheck",
                                  "analysis_scale", "tracker_serve"};

/// Open-loop offered load of tracker_serve (requests/s). On a 4-vCPU x86
/// VM, `perfbench --capacity` measured one shard's closed-loop capacity
/// under this mix at 166K-193K requests/s over five runs, so this is 21-24%
/// of it. Requests that arrive one at a time cost the daemon 10-12 us of
/// CPU each, about twice a closed loop's back-to-back batches, so the
/// daemon is about half busy. At 80K/s it was three quarters busy, and
/// when the shared host took CPU away it fell behind for long enough that
/// its socket buffer overflowed and tens of thousands of requests were
/// dropped in a run.
constexpr double kServeRate = 40'000;
/// tracker_serve starts the daemon this many times; setup_s is the median.
constexpr int kServerSetups = 15;
/// Length of the announce pass that follows each batch workload.
constexpr double kAnnouncePassSeconds = 3.0;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--corrupt-snapshot] "
               "| --list-metrics | --capacity --seed N --seconds S\n",
               why);
  std::exit(2);
}

// ------------------------------------------------------- child processes

struct Child {
  Report report;
  rusage usage{};
};

std::string serialize(const Report& r) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [name, value] : r.values) out << "V " << name << ' ' << value << '\n';
  out << "A " << r.attempted << "\nF " << r.failed << '\n';
  for (std::string e : r.errors) {
    std::replace(e.begin(), e.end(), '\n', ' ');
    out << "E " << e << '\n';
  }
  return out.str();
}

Report deserialize(const std::string& text) {
  Report r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    std::istringstream fields(line.substr(2));
    switch (line[0]) {
      case 'V': {
        std::string name;
        double value = 0;
        fields >> name >> value;
        r.values[name] = value;
        break;
      }
      case 'A': fields >> r.attempted; break;
      case 'F': fields >> r.failed; break;
      case 'E': r.errors.push_back(line.substr(2)); break;
    }
  }
  return r;
}

/// Per traced run: each layer's self time, and the share of the root span
/// its children cover; medians over runs.
void add_trace_metrics(const Tracer& tracer, Report& report) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.self_seconds();
  std::map<std::uint32_t, std::map<std::string, double>> by_run;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_run[spans[i].run][Tracer::layer_of(spans[i].name)] += self[i];
  }
  for (const char* layer : {"bench", "core", "crawler", "snapshot", "analysis",
                            "dht", "crosscheck", "netio"}) {
    std::vector<double> xs;
    for (auto& [run, layers] : by_run) xs.push_back(layers[layer]);
    report.set(std::string("self.") + layer + "_s", median(xs));
  }
  report.set("trace.coverage_frac", tracer.root_coverage());
  report.set("trace.spans", static_cast<double>(spans.size()));
}

/// Forks; the child runs `body` with its own tracer, dumps the spans when
/// tracing, and ships the report back over a pipe. wait4 gives its rusage.
Child run_child(const Options& options, const std::string& label,
                const std::function<void(Tracer&, Report&)>& body) {
  int fds[2];
  if (pipe(fds) != 0) usage("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) usage("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Report report;
    Tracer tracer(options.trace);
    try {
      body(tracer, report);
      if (options.trace && !tracer.spans().empty()) {
        add_trace_metrics(tracer, report);
        dump_spans(tracer, options, label, report);
      }
    } catch (const std::exception& e) {
      report.check(false, label + ": " + e.what());
    }
    const std::string text = serialize(report);
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t w = write(fds[1], text.data() + off, text.size() - off);
      if (w <= 0) _exit(3);
      off += static_cast<std::size_t>(w);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  Child child;
  int status = 0;
  while (wait4(pid, &status, 0, &child.usage) < 0 && errno == EINTR) {
  }
  child.report = deserialize(text);
  child.report.check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                     label + " child died");
  return child;
}

double peak_mb(const rusage& u) { return static_cast<double>(u.ru_maxrss) / 1024.0; }

/// Folds a child's report into the run's.
void absorb(Report& into, const Report& from) {
  for (const auto& [name, value] : from.values) into.values[name] = value;
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.errors.insert(into.errors.end(), from.errors.begin(), from.errors.end());
}

/// tracker_serve: forks the daemon until it serves `setups` times (keeping
/// the last), drives it from a client child and folds in the daemon's
/// counters and wait4 rusage.
Report serve(const Options& options, int setups) {
  Report out;
  std::vector<double> setup_s;
  ServerHandle server;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) stop_server(server);
    server = spawn_server(options);
    setup_s.push_back(server.setup_s);
  }
  out.set("setup_s", median(setup_s));
  const std::uint16_t port = server.port;
  const Child c = run_child(options, "tracker_serve", [&](Tracer& t, Report& r) {
    serve_client(options, port, kServeRate, t, r);
  });
  absorb(out, c.report);
  const ServerExit exit = stop_server(server);
  out.check(exit.ok, "tracker daemon did not exit cleanly");
  // CPU the daemon spent before it served (world build) is set-up.
  const CpuTimes total = cpu_times(exit.usage);
  const double user = total.user - server.cpu_ready.user;
  const double sys = total.sys - server.cpu_ready.sys;
  const double announces = static_cast<double>(exit.stats.announces);
  out.set("peak_rss_mb", peak_mb(exit.usage));
  out.set("announces_per_cpu_s", announces / (user + sys));
  out.set("netio.server_user_us_per_announce", user * 1e6 / announces);
  out.set("netio.server_sys_us_per_announce", sys * 1e6 / announces);
  out.set("netio.send_failures", static_cast<double>(exit.stats.send_failures));
  out.set("netio.malformed", static_cast<double>(exit.stats.malformed));
  out.check(exit.stats.malformed == 0 && exit.stats.send_failures == 0,
            "daemon saw malformed datagrams or failed sends");
  return out;
}

/// The batch workloads carry the announce metrics too: a short untraced
/// tracker_serve pass after the batch part, at the same offered rate.
void announce_pass(const Options& options, Report& out) {
  Options pass = options;
  pass.trace = false;
  pass.seconds = kAnnouncePassSeconds;
  const Report r = serve(pass, 1);
  for (const char* name :
       {"announce_p50_us", "announces_per_cpu_s", "announce_ok_frac"}) {
    if (const auto it = r.values.find(name); it != r.values.end()) {
      out.set(name, it->second);
    }
  }
  out.attempted += r.attempted;
  out.failed += r.failed;
  out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
}

Report run_workload(const Options& options) {
  Report out;
  const std::string& w = options.workload;
  if (w == "tracker_serve") return serve(options, kServerSetups);
  if (w == "analysis_scale") {
    const Child setup = run_child(options, w + "-setup", [&](Tracer& t, Report& r) {
      analysis_setup(options, t, r);
    });
    absorb(out, setup.report);
    if (!setup.report.errors.empty()) return out;
    const Child c = run_child(options, w, [&](Tracer& t, Report& r) {
      analysis_run(options, setup.report, t, r);
    });
    absorb(out, c.report);
    out.set("peak_rss_mb", peak_mb(c.usage));
  } else {
    const Child c = run_child(options, w, [&](Tracer& t, Report& r) {
      (w == "pipeline_signature" ? pipeline_signature : dht_crosscheck)(options, t, r);
    });
    absorb(out, c.report);
    out.set("peak_rss_mb", peak_mb(c.usage));
  }
  announce_pass(options, out);
  return out;
}

/// --capacity: one shard's closed-loop capacity under tracker_serve's
/// request mix, and the share of it that kServeRate offers. Prints one JSON
/// line; exits 1 when a reply fails the checks or the daemon fails.
int capacity(const Options& options) {
  ServerHandle server = spawn_server(options);
  const std::int64_t t0 = now_ns();
  const Capacity c = closed_loop_capacity(options, server.port);
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  const ServerExit exit = stop_server(server);
  const double cpu = cpu_times(exit.usage).total() - server.cpu_ready.total();
  std::printf("{\"requests_per_s\": %.0f, \"offered_rate\": %.0f, "
              "\"offered_share\": %.3f, \"server_cpu_share\": %.3f, "
              "\"answered\": %llu, \"lost\": %llu, \"wrong\": %llu}\n",
              c.requests_per_s, kServeRate, kServeRate / c.requests_per_s,
              cpu / wall, static_cast<unsigned long long>(c.answered),
              static_cast<unsigned long long>(c.lost),
              static_cast<unsigned long long>(c.wrong));
  return exit.ok && c.wrong == 0 && c.answered > 0 ? 0 : 1;
}

void print_result(const Options& options, const Report& r) {
  std::ostringstream json;
  json.precision(10);
  json << "{\"correct\": " << (r.errors.empty() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(r.attempted, 1)
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& m, double value) {
    json << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << value
         << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    // Layers a workload does not reach read 0.
    for (const MetricSpec& m : kPerLayer) {
      const auto it = r.values.find(m.name);
      emit(m, it == r.values.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = r.values.find(m.name);
      emit(m, it == r.values.end() ? 0.0 : it->second);
    }
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
}

std::string env_line(const Options& options) {
  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "# env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"nproc\": %zu, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"loadavg_1m\": %.2f}",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0, options.threads, PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, load[0]);
  return buf;
}

int run(int argc, char** argv) {
  Options options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  bool have_seed = false, have_seconds = false, have_trace = false,
       probe_capacity = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = std::stoull(next());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(next());
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      options.work_dir = next();
    } else if (arg == "--capacity") {
      probe_capacity = true;
    } else if (arg == "--corrupt-snapshot") {
      options.corrupt_snapshot = true;
    } else if (arg == "--list-metrics") {
      for (const MetricSpec& m : kEndToEnd) std::printf("end_to_end %s %s %s\n", m.name, m.unit, m.better);
      for (const MetricSpec& m : kPerLayer) std::printf("per_layer %s %s %s\n", m.name, m.unit, m.better);
      return 0;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0) usage("--seconds must be > 0");
  if (probe_capacity) {
    if (!have_seed || !have_seconds) usage("missing arguments");
    std::printf("%s\n", env_line(options).c_str());
    return capacity(options);
  }
  if (!have_seed || !have_seconds || !have_trace) usage("missing arguments");
  bool known = false;
  for (const char* w : kWorkloads) known = known || options.workload == w;
  if (!known) usage(("unknown workload '" + options.workload + "'").c_str());
  mkdir(options.work_dir.c_str(), 0755);

  std::printf("%s\n", env_line(options).c_str());
  std::fflush(stdout);
  Report report = run_workload(options);
  for (const MetricSpec& m : options.trace ? std::span<const MetricSpec>(kPerLayer)
                                           : std::span<const MetricSpec>(kEndToEnd)) {
    if (options.trace && std::strncmp(m.name, "self.", 5) != 0 &&
        std::strncmp(m.name, "trace.", 6) != 0) {
      continue;  // layers a workload does not reach read 0
    }
    report.check(report.values.count(m.name) == 1,
                 std::string("metric ") + m.name + " was not measured");
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  if (options.trace) {
    std::printf("# traces in %s/trace-%s*-%llu.jsonl\n", options.work_dir.c_str(),
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed));
  }
  print_result(options, report);
  return report.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
