#include "serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "wire.hpp"

namespace perfbench {
namespace {

using namespace btpub;

constexpr SimTime kServeClock = hours(4);  // past every completion
constexpr std::size_t kScrapeWidth = 4;
constexpr double kWarmupSeconds = 0.5;
/// BEP 15 clients retransmit a request that gets no reply, doubling the
/// wait each time (15 * 2^n s on the internet). On loopback a reply takes
/// tens of microseconds, so the wait after the first send here is 100 ms.
/// After send k a request waits kRetryNs * 2^(k-1): retransmits go out
/// 0.1, 0.3 and 0.7 s after the first send, and the request times out
/// 1.5 s after it, after kMaxSends sends. A datagram dropped while the
/// shared host stalls the daemon (its socket buffer overflows) then costs
/// that request latency, as it would a real client, instead of failing it.
constexpr std::int64_t kRetryNs = 100'000'000;
constexpr unsigned kMaxSends = 4;
constexpr std::int64_t wait_after_send(unsigned k) {
  return kRetryNs << (k - 1);
}
constexpr double kTimeoutSeconds = 1.5;
static_assert(kRetryNs * ((1 << kMaxSends) - 1) == 1'500'000'000);
/// Requests the closed-loop capacity probe keeps outstanding.
constexpr std::uint32_t kCapacityInFlight = 32;
/// Announces per group for the latency percentiles: 10 samples beyond p99.
constexpr std::size_t kGroup = 1000;

// ---------------------------------------------------------------- server

netio::ServeDaemon* g_daemon = nullptr;
void on_term(int) {
  if (g_daemon != nullptr) g_daemon->request_stop();
}

struct Ready {
  std::uint16_t port = 0;
  CpuTimes cpu;
};

bool write_all(int fd, const void* p, std::size_t n) {
  const auto* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t w = write(fd, c, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    c += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* p, std::size_t n) {
  auto* c = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t r = read(fd, c, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    c += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

// ---------------------------------------------------------------- requests

/// Request i of a window: every tenth a scrape of kScrapeWidth swarms, the
/// rest announces; the swarm is a pure function of (seed, i). The 9:1 mix
/// and the scrape width are assumptions, not taken from any measured
/// tracker; they make the scrape path a small, fixed share of the load.
struct Request {
  bool scrape = false;
  std::size_t swarm = 0;
};

Request request_of(std::uint64_t seed, std::uint64_t i) {
  return Request{i % 10 == 9, static_cast<std::size_t>(
                                  mix64(seed * 0x9e3779b97f4a7c15ull + i) %
                                  kSwarms)};
}

using Infohashes = std::vector<std::array<unsigned char, 20>>;

Infohashes served_infohashes(std::uint64_t seed) {
  Infohashes out(kSwarms);
  for (std::size_t s = 0; s < kSwarms; ++s) {
    const Sha1Digest h = netio::serve_swarm_infohash(seed, s);
    std::memcpy(out[s].data(), h.bytes.data(), 20);
  }
  return out;
}

std::size_t encode(unsigned char* out, std::uint64_t cid, std::uint32_t tid,
                   const Request& r, const Infohashes& hashes) {
  if (!r.scrape) {
    return wire::announce_request(out, cid, tid, hashes[r.swarm].data(),
                                  tid * 2654435761u, kNumwant, 6881);
  }
  unsigned char batch[kScrapeWidth][20];
  for (std::size_t k = 0; k < kScrapeWidth; ++k) {
    std::memcpy(batch[k], hashes[(r.swarm + k) % kSwarms].data(), 20);
  }
  return wire::scrape_request(out, cid, tid, batch, kScrapeWidth);
}

enum Status : std::uint8_t { kPending = 0, kOk, kErrorReply, kBadReply };

/// Checks a reply against the served world's known counts and address
/// blocks (see serve.hpp), not against the tracker's own encoder.
Status check_reply(std::string_view d, const Request& r) {
  wire::Header h;
  if (!wire::header(d, h)) return kBadReply;
  if (h.action == wire::kError) return kErrorReply;
  const auto* p = reinterpret_cast<const unsigned char*>(d.data());
  if (!r.scrape) {
    if (h.action != wire::kAnnounce || d.size() < 20 || (d.size() - 20) % 6 != 0) {
      return kBadReply;
    }
    if (wire::get32(p + 12) != kLeechers || wire::get32(p + 16) != kSeeders) {
      return kBadReply;
    }
    const std::size_t peers = (d.size() - 20) / 6;
    if (peers != kNumwant) return kBadReply;
    const std::uint32_t block = 0x0A00u + static_cast<std::uint32_t>(r.swarm);
    for (std::size_t i = 0; i < peers; ++i) {
      if ((wire::get32(p + 20 + 6 * i) >> 16) != block) return kBadReply;
    }
    return kOk;
  }
  if (h.action != wire::kScrape || d.size() != 8 + 12 * kScrapeWidth) {
    return kBadReply;
  }
  for (std::size_t k = 0; k < kScrapeWidth; ++k) {
    const unsigned char* e = p + 8 + 12 * k;
    if (wire::get32(e) != kSeeders || wire::get32(e + 4) != kPeers ||
        wire::get32(e + 8) != kLeechers) {
      return kBadReply;
    }
  }
  return kOk;
}

// ---------------------------------------------------------------- client

struct Window {
  explicit Window(std::size_t count = 0)
      : rx_ns(count, 0), status(count), resent(count) {}
  std::vector<std::int64_t> rx_ns;  // reply time per request, 0 = none
  std::vector<std::atomic<Status>> status;         // set by the receiver
  std::vector<std::atomic<std::uint8_t>> resent;  // set by the sender
  std::int64_t t0 = 0;
  double period_ns = 0;
  std::int64_t late_max_ns = 0;
  std::uint64_t stray = 0;  // replies that match no request sent
  std::uint64_t send_errors = 0;
  std::uint64_t retransmits = 0;
  std::int64_t due(std::size_t i) const {
    return t0 + static_cast<std::int64_t>(period_ns * static_cast<double>(i));
  }
};

void wait_until(std::int64_t due) {
  for (;;) {
    const std::int64_t left = due - now_ns();
    if (left <= 0) return;
    if (left > 200'000) {
      const timespec ts{0, left - 100'000};
      nanosleep(&ts, nullptr);
    }
  }
}

/// One open-loop window of `count` requests on a connected socket. The
/// transaction id carries the window tag in its top bits, so a straggler
/// from an earlier window is never taken for a reply. Unanswered requests
/// are retransmitted on the schedule of kRetryNs and kMaxSends, timed from
/// when each was sent, so a stalled sender does not burst retransmits.
Window run_window(int fd, std::uint64_t cid, std::uint64_t seed, double rate,
                  std::size_t count, std::uint32_t tag,
                  const Infohashes& hashes) {
  Window w(count);
  w.period_ns = 1e9 / rate;
  w.t0 = now_ns() + 1'000'000;
  std::atomic<bool> sent_all{false};
  std::atomic<bool> received_all{false};
  std::atomic<std::int64_t> give_up_ns{0};  // set before sent_all

  std::thread receiver([&] {
    std::array<unsigned char, 2048> buf;
    std::size_t answered = 0;
    for (;;) {
      const ssize_t n = recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
        if (answered == count) break;
        if (sent_all.load(std::memory_order_acquire) &&
            now_ns() > give_up_ns.load(std::memory_order_relaxed)) {
          break;
        }
        // Busy-poll: sleeping in poll() would add the receiver's own
        // wake-up latency to every sample.
        continue;
      }
      const std::int64_t t = now_ns();
      const std::string_view d(reinterpret_cast<const char*>(buf.data()),
                               static_cast<std::size_t>(n));
      wire::Header h;
      if (!wire::header(d, h)) {
        ++w.stray;
        continue;
      }
      if ((h.tid >> 28) < tag) continue;  // late reply to an earlier window
      const std::size_t i = h.tid & 0x0FFFFFFFu;
      if ((h.tid >> 28) != tag || i >= count) {
        ++w.stray;
        continue;
      }
      const Status status = check_reply(d, request_of(seed, i));
      if (w.status[i].load(std::memory_order_relaxed) != kPending) {
        // A retransmitted request may be answered twice; no other may.
        if (w.resent[i].load(std::memory_order_acquire) == 0 || status != kOk) {
          ++w.stray;
        }
        continue;
      }
      w.rx_ns[i] = t;
      w.status[i].store(status, std::memory_order_release);
      ++answered;
    }
    received_all.store(true, std::memory_order_release);
  });

  std::array<unsigned char, 16 + 20 * kScrapeWidth + 98> out;
  std::int64_t last_send_ns = 0;
  auto send_request = [&](std::size_t i) {
    const std::size_t len =
        encode(out.data(), cid, (tag << 28) | static_cast<std::uint32_t>(i),
               request_of(seed, i), hashes);
    if (send(fd, out.data(), len, 0) != static_cast<ssize_t>(len)) {
      ++w.send_errors;
    }
    last_send_ns = now_ns();
    return last_send_ns;
  };
  // Requests sent once are walked in send order by a cursor over
  // first_send_ns; those sent k >= 2 times wait in again[k], also in send
  // order, with the time of their last send.
  struct Resent {
    std::uint32_t index;
    std::int64_t sent_ns;
  };
  std::vector<std::int64_t> first_send_ns(count);
  std::size_t first_unchecked = 0;
  std::array<std::vector<Resent>, kMaxSends> again;
  std::array<std::size_t, kMaxSends> again_pos{};
  auto resend_if_pending = [&](std::size_t i, unsigned sends) {
    if (w.status[i].load(std::memory_order_acquire) != kPending) return;
    w.resent[i].fetch_add(1, std::memory_order_release);
    const std::int64_t t = send_request(i);
    ++w.retransmits;
    if (sends + 1 < kMaxSends) {
      again[sends + 1].push_back({static_cast<std::uint32_t>(i), t});
    }
  };
  auto retransmit = [&](std::size_t sent, std::int64_t now) {
    for (; first_unchecked < sent &&
           first_send_ns[first_unchecked] + wait_after_send(1) <= now;
         ++first_unchecked) {
      resend_if_pending(first_unchecked, 1);
    }
    for (unsigned k = 2; k < kMaxSends; ++k) {
      for (std::size_t& p = again_pos[k];
           p < again[k].size() && again[k][p].sent_ns + wait_after_send(k) <= now;
           ++p) {
        resend_if_pending(again[k][p].index, k);
      }
    }
  };
  auto all_checked = [&] {
    for (unsigned k = 2; k < kMaxSends; ++k) {
      if (again_pos[k] < again[k].size()) return false;
    }
    return first_unchecked == count;
  };

  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t due = w.due(i);
    wait_until(due);
    const std::int64_t now = send_request(i);
    first_send_ns[i] = now;
    w.late_max_ns = std::max(w.late_max_ns, now - due);
    retransmit(i + 1, now);
  }
  while (!received_all.load(std::memory_order_acquire) && !all_checked()) {
    retransmit(count, now_ns());
    const timespec ts{0, 1'000'000};
    nanosleep(&ts, nullptr);
  }
  // A request last sent at last_send_ns has had its final wait after that.
  give_up_ns.store(last_send_ns + wait_after_send(kMaxSends),
                   std::memory_order_relaxed);
  sent_all.store(true, std::memory_order_release);
  receiver.join();
  return w;
}

std::uint64_t handshake(int fd) {
  unsigned char req[16];
  std::array<unsigned char, 64> buf;
  for (std::uint32_t attempt = 1; attempt <= 20; ++attempt) {
    const std::uint32_t tid = 0x7000'0000u | attempt;
    wire::connect_request(req, tid);
    if (send(fd, req, sizeof req, 0) != static_cast<ssize_t>(sizeof req)) continue;
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, 200) <= 0) continue;
    const ssize_t n = recv(fd, buf.data(), buf.size(), 0);
    if (n == 16 && wire::get32(buf.data()) == wire::kConnect &&
        wire::get32(buf.data() + 4) == tid) {
      return wire::get64(buf.data() + 8);
    }
  }
  throw std::runtime_error("no connect reply from the tracker");
}

/// A UDP socket connected to the daemon on loopback.
int client_socket(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  const int rcvbuf = 8 << 20;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw std::runtime_error("connect failed");
  }
  return fd;
}

/// Announce latencies in µs in due order, a failed announce as the
/// timeout (it misses any latency limit), cut into consecutive groups of
/// kGroup. Each
/// quantile is the median over groups of that group's quantile: a stall
/// of the box inflates the tail of the groups it touches, and the median
/// group is the typical one.
struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0;
};

Percentiles grouped_percentiles(const std::vector<double>& latencies) {
  std::vector<double> p50, p90, p99;
  for (std::size_t g = 0; g + kGroup <= latencies.size(); g += kGroup) {
    std::vector<double> group(latencies.begin() + static_cast<std::ptrdiff_t>(g),
                              latencies.begin() + static_cast<std::ptrdiff_t>(g + kGroup));
    p50.push_back(percentile(group, 0.50));
    p90.push_back(percentile(group, 0.90));
    p99.push_back(percentile(group, 0.99));
  }
  return {median(p50), median(p90), median(p99)};
}

}  // namespace

ServerHandle spawn_server(const Options& options) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const std::int64_t t0 = now_ns();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    try {
      netio::ServeConfig config;
      config.shards = 1;
      config.enable_http = false;
      config.swarms = kSwarms;
      config.peers_per_swarm = kPeers;
      config.seed = options.seed;
      config.fixed_time = kServeClock;
      config.duration_seconds = 150.0;  // backstop if never stopped
      netio::ServeDaemon daemon(config);
      g_daemon = &daemon;
      signal(SIGTERM, on_term);
      rusage self{};
      getrusage(RUSAGE_SELF, &self);
      const Ready ready{daemon.udp_port(), cpu_times(self)};
      if (!write_all(fds[1], &ready, sizeof ready)) _exit(3);
      daemon.run();
      const netio::ServeStats stats = daemon.stats();
      _exit(write_all(fds[1], &stats, sizeof stats) ? 0 : 3);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: server: %s\n", e.what());
      _exit(3);
    }
  }
  close(fds[1]);
  ServerHandle handle;
  handle.pid = pid;
  handle.fd = fds[0];
  Ready ready;
  if (!read_all(fds[0], &ready, sizeof ready)) {
    close(fds[0]);
    waitpid(pid, nullptr, 0);
    throw std::runtime_error("tracker daemon died before serving");
  }
  handle.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  handle.port = ready.port;
  handle.cpu_ready = ready.cpu;
  return handle;
}

ServerExit stop_server(ServerHandle& server) {
  ServerExit out;
  if (server.pid < 0) return out;
  kill(server.pid, SIGTERM);
  const bool got = read_all(server.fd, &out.stats, sizeof out.stats);
  close(server.fd);
  int status = 0;
  while (wait4(server.pid, &status, 0, &out.usage) < 0 && errno == EINTR) {
  }
  server.pid = -1;
  out.ok = got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return out;
}

void serve_client(const Options& options, std::uint16_t port, double rate,
                  Tracer& tracer, Report& report) {
  const int fd = client_socket(port);
  const std::uint64_t cid = handshake(fd);
  const Infohashes hashes = served_infohashes(options.seed);

  // Warm-up, then the measured window(s). A traced run measures the same
  // schedule twice, untraced then traced, so the two run_s compare.
  run_window(fd, cid, options.seed ^ 0x3a3a, rate,
             static_cast<std::size_t>(rate * kWarmupSeconds), 1, hashes);
  const int windows = options.trace ? 2 : 1;
  const auto count = static_cast<std::size_t>(rate * options.seconds / windows);

  std::vector<double> latencies;  // announces, in due order
  std::uint64_t announces = 0, ok_announces = 0, timeouts = 0, errors = 0,
                bad = 0, stray = 0, send_errors = 0, retransmits = 0;
  std::int64_t late_max = 0;
  std::vector<double> run_s;  // per window
  for (int wi = 0; wi < windows; ++wi) {
    const bool traced = options.trace && wi == 1;
    tracer.set_enabled(traced);
    tracer.set_run(static_cast<std::uint32_t>(wi));
    Window w;
    const double wall = tracer.time("bench.run", [&] {
      w = run_window(fd, cid, options.seed + static_cast<std::uint64_t>(wi),
                     rate, count, static_cast<std::uint32_t>(2 + wi), hashes);
      if (!traced) return;
      const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(wi);
      for (std::size_t i = 0; i < count; ++i) {
        if (w.rx_ns[i] == 0) continue;
        tracer.record(request_of(seed, i).scrape ? "netio.scrape" : "netio.announce",
                      w.due(i), w.rx_ns[i]);
      }
    });
    run_s.push_back(wall);
    late_max = std::max(late_max, w.late_max_ns);
    stray += w.stray;
    send_errors += w.send_errors;
    retransmits += w.retransmits;
    const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(wi);
    for (std::size_t i = 0; i < count; ++i) {
      const bool is_announce = !request_of(seed, i).scrape;
      switch (w.status[i]) {
        case kPending: ++timeouts; break;
        case kErrorReply: ++errors; break;
        case kBadReply: ++bad; break;
        case kOk: break;
      }
      if (!is_announce) continue;
      ++announces;
      if (w.status[i] != kOk) {
        latencies.push_back(kTimeoutSeconds * 1e6);
        continue;
      }
      ++ok_announces;
      latencies.push_back(static_cast<double>(w.rx_ns[i] - w.due(i)) * 1e-3);
    }
  }
  tracer.set_enabled(options.trace);
  close(fd);

  const Percentiles grouped = grouped_percentiles(latencies);
  report.set("run_s", run_s.front());
  report.set("announce_p50_us", grouped.p50);
  report.set("loadgen.p90_us", grouped.p90);
  report.set("loadgen.p99_us", grouped.p99);
  report.set("announce_ok_frac", announces ? static_cast<double>(ok_announces) / static_cast<double>(announces) : 0.0);
  report.set("loadgen.samples", static_cast<double>(ok_announces));
  report.set("loadgen.p99_pooled_us", percentile(latencies, 0.99));
  report.set("loadgen.timeouts", static_cast<double>(timeouts));
  report.set("loadgen.retransmits", static_cast<double>(retransmits));
  report.set("loadgen.error_replies", static_cast<double>(errors));
  report.set("loadgen.undecodable", static_cast<double>(bad + stray));
  report.set("loadgen.late_max_ms", static_cast<double>(late_max) * 1e-6);
  if (options.trace) {
    report.set("trace.overhead_frac", run_s[1] / run_s[0] - 1.0);
  }
  report.attempted += count * static_cast<std::size_t>(windows);
  report.failed += timeouts + errors + bad + send_errors;
  report.check(errors == 0, "tracker answered " + std::to_string(errors) +
                                " valid requests with BEP 15 errors");
  report.check(bad == 0 && stray == 0,
               std::to_string(bad + stray) +
                   " replies disagree with the served world or match no request");
  report.check(send_errors == 0, std::to_string(send_errors) + " sends failed");
  report.check(latencies.size() >= kGroup, "too few announce samples");
}

Capacity closed_loop_capacity(const Options& options, std::uint16_t port) {
  const int fd = client_socket(port);
  const timeval timeout{0, 200'000};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const std::uint64_t cid = handshake(fd);
  const Infohashes hashes = served_infohashes(options.seed);

  std::array<unsigned char, 16 + 20 * kScrapeWidth + 98> out;
  std::array<unsigned char, 2048> buf;
  std::uint32_t next = 0;  // index of the next request; its transaction id
  Capacity c;
  auto send_next = [&] {
    const std::size_t len =
        encode(out.data(), cid, next, request_of(options.seed, next), hashes);
    if (send(fd, out.data(), len, 0) != static_cast<ssize_t>(len)) ++c.lost;
    ++next;
  };
  for (std::uint32_t k = 0; k < kCapacityInFlight; ++k) send_next();

  const std::int64_t start = now_ns();
  const auto warm_end = start + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const auto end = warm_end + static_cast<std::int64_t>(options.seconds * 1e9);
  std::uint64_t answered_at_warm_end = 0;
  bool warm = false;
  for (std::int64_t t = start; t < end; t = now_ns()) {
    if (!warm && t >= warm_end) {
      warm = true;
      answered_at_warm_end = c.answered;
    }
    const ssize_t n = recv(fd, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
      ++c.lost;  // a request or its reply was dropped: replace it
      send_next();
      continue;
    }
    const std::string_view d(reinterpret_cast<const char*>(buf.data()),
                             static_cast<std::size_t>(n));
    wire::Header h;
    if (wire::header(d, h) && h.tid < next &&
        check_reply(d, request_of(options.seed, h.tid)) == kOk) {
      ++c.answered;
    } else {
      ++c.wrong;
    }
    send_next();
  }
  close(fd);
  c.requests_per_s = static_cast<double>(c.answered - answered_at_warm_end) /
                     (static_cast<double>(now_ns() - warm_end) * 1e-9);
  return c;
}

}  // namespace perfbench
