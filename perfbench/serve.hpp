// serve.hpp — the tracker_serve workload: a forked netio::ServeDaemon on
// loopback, driven open-loop by the benchmark's own BEP 15 client.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>

#include "harness.hpp"
#include "netio/serve.hpp"

namespace perfbench {

/// The served world (netio::build_serve_world): kSwarms swarms of kPeers
/// sessions; peer i of swarm s is 10.s.(i>>8).(i&255) and seeds when
/// i % 7 == 0. The clock is frozen past every completion, so each swarm
/// always reports these counts.
inline constexpr std::size_t kSwarms = 64;
inline constexpr std::size_t kPeers = 2000;
inline constexpr std::uint32_t kNumwant = 50;
inline constexpr std::uint32_t kSeeders = (kPeers + 6) / 7;
inline constexpr std::uint32_t kLeechers = kPeers - kSeeders;

struct ServerHandle {
  pid_t pid = -1;
  int fd = -1;  // child → parent: ready message, then the exit stats
  std::uint16_t port = 0;
  double setup_s = 0.0;      // fork → bound and world built
  CpuTimes cpu_ready;        // the server's CPU at that point
};

struct ServerExit {
  bool ok = false;
  btpub::netio::ServeStats stats;
  rusage usage{};
};

/// Forks a one-shard daemon and waits until it serves. Throws on failure.
ServerHandle spawn_server(const Options& options);
/// SIGTERMs the daemon, collects its counters and wait4 rusage.
ServerExit stop_server(ServerHandle& server);

/// Drives the daemon at `port` open-loop at `rate` requests/s for
/// options.seconds; fills the announce and loadgen metrics.
void serve_client(const Options& options, std::uint16_t port, double rate,
                  Tracer& tracer, Report& report);

/// Closed-loop capacity of one shard under tracker_serve's request mix:
/// one client thread keeps a fixed number of requests outstanding for
/// options.seconds after a warm-up and counts correct replies. Saturated
/// throughput is not a metric (it spreads too widely to bound); this probe
/// shows what share of capacity the workload's fixed offered rate is.
struct Capacity {
  double requests_per_s = 0.0;
  std::uint64_t answered = 0;
  std::uint64_t lost = 0;   // requests replaced after a receive timeout
  std::uint64_t wrong = 0;  // replies that fail the reply checks
};
Capacity closed_loop_capacity(const Options& options, std::uint16_t port);

}  // namespace perfbench
