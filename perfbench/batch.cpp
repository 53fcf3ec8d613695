#include "batch.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ecosystem.hpp"
#include "crawler/compact_dataset.hpp"
#include "crawler/crawler.hpp"
#include "crawler/cross_check.hpp"
#include "crawler/dataset_mmap.hpp"
#include "crawler/dht_crawler.hpp"
#include "passes.hpp"
#include "publisher/profile.hpp"
#include "synth_world.hpp"

namespace perfbench {
namespace {

using namespace btpub;

using Values = std::map<std::string, double>;

/// Set-up work is timed this many times per run and reported as a median.
constexpr int kSetupRepeats = 7;
/// pipeline_signature's set-up, the Ecosystem constructor, takes under a
/// millisecond, and a shared host slows such short calls by up to 1.5x in
/// spells of a second or more. So each iteration times this many
/// constructions back to back and reports their mean; setup_s is the
/// median of those means over the run's iterations, seconds apart.
constexpr int kConstructorRepeats = 100;

/// The simulated worlds of the two ecosystem workloads are pinned to one
/// generator seed. Over generator seeds 1-10 the quartile spread of a
/// signature world's listed bytes is 18% of their median (top publishers'
/// rates are log-normal), which would swamp every bound; --seed instead
/// drives the crawlers' and the analysis passes' own randomness.
constexpr std::uint64_t kWorldSeed = 42;

/// A tracker-vantage crawl of `eco` whose randomness comes from `seed`
/// (Ecosystem::crawl() would key it off the world's seed).
Dataset crawl(Ecosystem& eco, const ScenarioConfig& config, std::uint64_t seed) {
  eco.tracker().reset_state(derive_seed(seed, 0x7214CB));
  Crawler crawler(eco.portal(), eco.tracker(), eco.network(), eco.geo(),
                  config.crawler, derive_seed(seed, 0xC4A37E5));
  return crawler.crawl_window(0, config.window);
}

template <typename Fn>
double seconds_of(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Repeats `iteration()` until options.seconds have passed and at
/// least two iterations ran. A traced run alternates untraced and traced
/// iterations, so both run_s medians come from the same process.
template <typename Iteration>
void batch_loop(const Options& options, Tracer& tracer, Report& report,
                Iteration&& iteration) {
  std::vector<Values> untraced, traced;
  const std::int64_t t0 = now_ns();
  for (std::uint32_t i = 0;; ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    tracer.set_enabled(trace_this);
    tracer.set_run(i);
    const std::size_t errors_before = report.errors.size();
    Values v = iteration();
    (trace_this ? traced : untraced).push_back(std::move(v));
    ++report.attempted;
    if (report.errors.size() > errors_before) ++report.failed;
    const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
    if (elapsed >= options.seconds && i >= 1) break;
  }
  tracer.set_enabled(options.trace);

  // Names reported by any iteration, medians over the relevant set.
  const std::vector<Values>& layers = options.trace ? traced : untraced;
  auto med = [](const std::vector<Values>& set, const std::string& name) {
    std::vector<double> xs;
    for (const Values& v : set) {
      if (auto it = v.find(name); it != v.end()) xs.push_back(it->second);
    }
    return median(xs);
  };
  for (const auto& [name, unused] : layers.front()) {
    report.set(name, med(layers, name));
  }
  std::vector<Values> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  if (all.front().count("setup_s")) report.set("setup_s", med(all, "setup_s"));
  report.set("run_s", med(untraced, "run_s"));
  if (options.trace) {
    report.set("trace.overhead_frac",
               med(traced, "run_s") / med(untraced, "run_s") - 1.0);
  }
}

/// Self-test hook: flips the first byte of a downloader entry in the middle
/// of the snapshot's PeerBlob section (section table per dataset_mmap.hpp:
/// a 64-byte header, then {u32 id, u32 reserved, u64 offset, u64 size}).
void corrupt_peer_blob(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  char header[64];
  f.read(header, sizeof header);
  std::uint32_t count = 0;
  std::memcpy(&count, header + 12, 4);
  for (std::uint32_t i = 0; i < count && f; ++i) {
    char entry[24];
    f.seekg(64 + 24 * static_cast<std::streamoff>(i));
    f.read(entry, sizeof entry);
    std::uint32_t id = 0;
    std::uint64_t offset = 0, size = 0;
    std::memcpy(&id, entry, 4);
    std::memcpy(&offset, entry + 8, 8);
    std::memcpy(&size, entry + 16, 8);
    if (id != 5 || size < 6) continue;  // 5 = PeerBlob
    const auto at = static_cast<std::streamoff>(offset + (size / 12) * 6);
    char byte = 0;
    f.seekg(at);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(at);
    f.write(&byte, 1);
    return;
  }
  throw std::runtime_error("no PeerBlob section in " + path);
}

template <typename T>
bool same_span(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Byte equality of the in-memory compact arrays and a mapped snapshot.
bool same_arrays(const CompactDatasetView& a, const CompactDatasetView& b) {
  auto chars = [](std::string_view s) {
    return std::span<const char>(s.data(), s.size());
  };
  return a.name == b.name && a.style == b.style &&
         a.window_start == b.window_start && a.window_end == b.window_end &&
         same_span(a.torrents, b.torrents) &&
         same_span(chars(a.text), chars(b.text)) &&
         same_span(a.filename_refs, b.filename_refs) &&
         same_span(chars(a.peer_blob), chars(b.peer_blob)) &&
         same_span(a.sightings, b.sightings) &&
         same_span(a.user_pages, b.user_pages) &&
         same_span(a.user_publish_times, b.user_publish_times);
}

void put_passes(Values& v, const PassResult& p) {
  v["analysis.identity_s"] = p.identity_s;
  v["analysis.classify_s"] = p.classify_s;
  v["analysis.seeding_s"] = p.seeding_s;
  v["analysis.demographics_s"] = p.demographics_s;
  v["analysis.consumption_s"] = p.consumption_s;
  v["analysis.distinct_ips_s"] = p.distinct_ips_s;
}

/// The build and tracker-crawl layer metrics of one built world and its
/// crawl; v["crawler.crawl_s"] must already hold the crawl's wall time.
void put_build_and_crawl(Values& v, Ecosystem& eco, const Dataset& crawled) {
  const BuildStats& build = eco.build_stats();
  v["core.build.prepare_s"] = build.seconds_prepare;
  v["core.build.serial_s"] =
      build.seconds_population + build.seconds_backfill + build.seconds_commit;
  double pieces = 0, announces = 0, identified = 0;
  for (const TorrentRecord& r : crawled.torrents) {
    pieces += static_cast<double>(r.piece_count);
    announces += r.query_count;
    identified += r.publisher_ip.has_value();
  }
  v["torrent.pieces"] = pieces;
  v["torrent.prepare_us_per_piece"] = build.seconds_prepare * 1e6 / pieces;
  v["crawler.announces"] = announces;
  v["crawler.us_per_announce"] = v["crawler.crawl_s"] * 1e6 / announces;
  v["crawler.publisher_identified_frac"] =
      identified / static_cast<double>(crawled.torrents.size());
  const Tracker::Stats ts = eco.tracker().stats();
  v["tracker.rejected_frac"] =
      static_cast<double>(ts.rejected_rate + ts.rejected_blacklist +
                          ts.rejected_unknown) /
      static_cast<double>(ts.queries);
}

/// Per name, the median over `set`.
Values medians(const std::vector<Values>& set) {
  std::map<std::string, std::vector<double>> xs;
  for (const Values& v : set) {
    for (const auto& [name, x] : v) xs[name].push_back(x);
  }
  Values out;
  for (const auto& [name, list] : xs) out[name] = median(list);
  return out;
}

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

/// analysis_scale's world: bench/synth_world.hpp's model at this many
/// downloader sessions, over sessions/20 torrents.
constexpr std::uint64_t kScaleSessions = 2'000'000;

}  // namespace

// ------------------------------------------------------ pipeline_signature

void pipeline_signature(const Options& options, Tracer& tracer, Report& report) {
  const std::string path = options.work_dir + "/pipeline.mmap";
  std::optional<std::uint64_t> first_digest;
  Tracer quiet(false);
  ScenarioConfig config = ScenarioConfig::signature(kWorldSeed);
  config.threads = options.threads;
  config.crawler.threads = options.threads;

  batch_loop(options, tracer, report, [&] {
    Values v;
    std::optional<Ecosystem> constructed;
    v["setup_s"] = seconds_of([&] {
      for (int i = 0; i < kConstructorRepeats; ++i) {
        constructed.reset();
        constructed.emplace(config);
      }
    }) / kConstructorRepeats;
    Ecosystem& eco = *constructed;

    Dataset crawled;
    CompactDataset compact;
    std::optional<MappedDataset> mapped;
    PassResult passes;
    v["run_s"] = tracer.time("bench.run", [&] {
      v["core.build_s"] = tracer.time("core.build", [&] { eco.build(); });
      v["crawler.crawl_s"] = tracer.time("crawler.crawl", [&] {
        crawled = crawl(eco, config, options.seed);
      });
      v["snapshot.compact_s"] =
          tracer.time("snapshot.compact", [&] { compact = compact_dataset(crawled); });
      v["snapshot.save_s"] =
          tracer.time("snapshot.save", [&] { save_mmap_snapshot(compact, path); });
      if (options.corrupt_snapshot) corrupt_peer_blob(path);
      v["snapshot.open_s"] = tracer.time("snapshot.open", [&] { mapped.emplace(path); });
      passes = run_passes(mapped->view(), eco.geo(), eco.websites(),
                          options.threads, options.seed, tracer);
    });
    put_passes(v, passes);
    put_build_and_crawl(v, eco, crawled);
    v["snapshot.bytes"] = static_cast<double>(mapped->mapped_bytes());

    // Checks against facts the code under test does not produce itself.
    report.check(!crawled.torrents.empty() && v["crawler.announces"] > 0,
                 "the crawl saw no torrents");
    // A cross-posted torrent was first seeded elsewhere, so its lone
    // early seeder need not be the portal publisher (the paper's caveat);
    // every other identification must name the generator's publisher.
    std::size_t wrong_publisher = 0;
    for (const TorrentRecord& r : crawled.torrents) {
      const TorrentTruth& truth = eco.truth(r.portal_id);
      if (r.publisher_ip && !truth.cross_posted && *r.publisher_ip != truth.publisher_ip) {
        ++wrong_publisher;
      }
    }
    report.check(wrong_publisher == 0,
                 std::to_string(wrong_publisher) +
                     " identified publisher IPs differ from the generator's");
    std::vector<std::uint32_t> ips;
    for (const auto& list : crawled.downloaders) {
      for (IpAddress ip : list) ips.push_back(ip.value());
    }
    std::sort(ips.begin(), ips.end());
    const auto distinct =
        static_cast<std::size_t>(std::unique(ips.begin(), ips.end()) - ips.begin());
    report.check(passes.distinct_ips == distinct,
                 "distinct_ips_global over the snapshot != the crawl's own count");
    report.check(same_arrays(compact.view(), mapped->view()),
                 "mmap snapshot differs from the in-memory compact arrays");
    const PassResult serial =
        run_passes(mapped->view(), eco.geo(), eco.websites(), 1, options.seed, quiet);
    report.check(serial.digest == passes.digest,
                 "analysis digest at 1 thread " + hex(serial.digest) + " != at " +
                     std::to_string(options.threads) + " threads " + hex(passes.digest));
    const PassResult in_memory = run_passes(compact.view(), eco.geo(), eco.websites(),
                                            options.threads, options.seed, quiet);
    report.check(in_memory.digest == passes.digest,
                 "analysis digest over the in-memory dataset != over the snapshot");
    if (!first_digest) first_digest = passes.digest;
    report.check(*first_digest == passes.digest,
                 "repeated identical pipeline runs disagree");
    return v;
  });
}

// ------------------------------------------------------ dht_crosscheck

void dht_crosscheck(const Options& options, Tracer& tracer, Report& report) {
  ScenarioConfig config = ScenarioConfig::spoofed(kWorldSeed);
  config.window = days(1);
  config.threads = options.threads;
  config.crawler.threads = options.threads;

  // Set-up: the world and its tracker-vantage crawl, timed kSetupRepeats
  // times; the last one is kept. A traced run records the set-up's spans in
  // a tracer of their own, written beside the timed part's, so the build
  // and crawl layers that make up setup_s show.
  std::optional<Ecosystem> eco;
  Dataset tracker_view;
  std::vector<Values> setups;
  Tracer setup_tracer(options.trace);
  for (int i = 0; i < kSetupRepeats; ++i) {
    eco.reset();
    setup_tracer.set_run(static_cast<std::uint32_t>(i));
    Values v;
    v["setup_s"] = setup_tracer.time("bench.setup", [&] {
      eco.emplace(config);
      v["core.build_s"] = setup_tracer.time("core.build", [&] { eco->build(); });
      v["crawler.crawl_s"] = setup_tracer.time("crawler.crawl", [&] {
        tracker_view = crawl(*eco, config, options.seed);
      });
    });
    put_build_and_crawl(v, *eco, tracker_view);
    setups.push_back(std::move(v));
  }
  if (options.trace) dump_spans(setup_tracer, options, "dht_crosscheck-setup", report);

  std::optional<std::uint64_t> first_digest;
  batch_loop(options, tracer, report, [&] {
    Values v;
    std::unique_ptr<dht::DhtOverlay> overlay;
    Dataset dht_view;
    DhtCrawlTotals totals;
    CrossCheckReport checked;
    v["run_s"] = tracer.time("bench.run", [&] {
      v["dht.overlay_s"] = tracer.time("dht.overlay", [&] {
        overlay = eco->build_dht_overlay(config.window + config.dht_crawler.grace);
      });
      v["dht.crawl_s"] = tracer.time("dht.crawl", [&] {
        DhtCrawler crawler(eco->portal(), *overlay, config.dht_crawler,
                           derive_seed(options.seed, 0xDC13));
        dht_view = crawler.crawl_window(0, config.window);
        totals = crawler.totals();
      });
      v["crosscheck.s"] = tracer.time("crosscheck.compare", [&] {
        checked = cross_check(tracker_view, dht_view);
      });
    });
    const double lookups = static_cast<double>(totals.lookups);
    v["dht.lookups"] = lookups;
    v["dht.us_per_lookup"] = v["dht.crawl_s"] * 1e6 / lookups;
    v["dht.hops_per_lookup"] = static_cast<double>(totals.hops) / lookups;
    v["dht.messages_per_lookup"] = static_cast<double>(totals.messages) / lookups;
    v["dht.timeout_frac"] =
        static_cast<double>(totals.timeouts) / static_cast<double>(totals.messages);

    // Ground truth: the generator knows which torrents fake farms published.
    std::size_t fakes = 0, fakes_flagged = 0, genuine_flagged = 0;
    Digest d;
    for (const TorrentCrossCheck& c : checked.torrents) {
      const bool fake = is_fake(eco->truth(c.portal_id).publisher_class);
      fakes += fake;
      fakes_flagged += fake && c.flagged;
      genuine_flagged += !fake && c.flagged;
      d.u64(c.portal_id);
      d.u64(c.flagged);
      d.u64(c.tracker_peers);
      d.u64(c.dht_peers);
      d.u64(c.common);
    }
    const double recall =
        fakes ? static_cast<double>(fakes_flagged) / static_cast<double>(fakes) : 0.0;
    v["crosscheck.recall"] = recall;
    report.check(lookups > 0 && fakes > 0, "no lookups or no fake torrents to judge");
    report.check(recall >= 0.8, "cross-check recall over fake-farm torrents " +
                                    std::to_string(recall) + " < 0.8");
    report.check(genuine_flagged == 0, std::to_string(genuine_flagged) +
                                           " genuine torrents flagged as fakes");
    if (!first_digest) first_digest = d.h;
    report.check(*first_digest == d.h, "repeated identical DHT crawls disagree");
    return v;
  });
  for (const auto& [name, value] : medians(setups)) report.set(name, value);
}

// ------------------------------------------------------ analysis_scale

std::string analysis_snapshot_path(const Options& options) {
  return options.work_dir + "/analysis_scale.mmap";
}

void analysis_setup(const Options& options, Tracer& tracer, Report& report) {
  const Dataset world = bench::synth_dataset(kScaleSessions, options.seed);
  // Ground truth straight from the generator's output.
  std::vector<std::uint32_t> ips;
  ips.reserve(kScaleSessions);
  for (const auto& list : world.downloaders) {
    for (IpAddress ip : list) ips.push_back(ip.value());
  }
  std::sort(ips.begin(), ips.end());
  const auto distinct = static_cast<double>(
      std::unique(ips.begin(), ips.end()) - ips.begin());

  const std::string path = analysis_snapshot_path(options);
  std::vector<double> setups, compacts, saves;
  CompactDataset compact;
  for (int i = 0; i < kSetupRepeats; ++i) {
    tracer.set_run(static_cast<std::uint32_t>(i));
    double compact_s = 0, save_s = 0;
    setups.push_back(tracer.time("bench.setup", [&] {
      compact_s = tracer.time("snapshot.compact", [&] { compact = compact_dataset(world); });
      save_s = tracer.time("snapshot.save", [&] { save_mmap_snapshot(compact, path); });
    }));
    compacts.push_back(compact_s);
    saves.push_back(save_s);
  }
  if (options.corrupt_snapshot) corrupt_peer_blob(path);
  const MappedDataset mapped(path);
  const bool same = same_arrays(compact.view(), mapped.view());
  report.check(same, "mmap snapshot differs from the in-memory compact arrays");
  ++report.attempted;
  report.failed += !same;
  report.set("setup_s", median(setups));
  report.set("snapshot.compact_s", median(compacts));
  report.set("snapshot.save_s", median(saves));
  report.set("snapshot.bytes", static_cast<double>(mapped.mapped_bytes()));
  report.set("fact.distinct_ips", distinct);
  report.set("fact.sessions", static_cast<double>(ips.size()));
}

void analysis_run(const Options& options, const Report& facts, Tracer& tracer,
                  Report& report) {
  const std::string path = analysis_snapshot_path(options);
  const IspCatalog catalog = IspCatalog::standard();
  const WebsiteDirectory websites;  // synthetic world: no promoted sites
  const auto distinct = static_cast<std::size_t>(facts.values.at("fact.distinct_ips"));
  const auto sessions = static_cast<std::size_t>(facts.values.at("fact.sessions"));
  std::optional<std::uint64_t> first_digest;

  batch_loop(options, tracer, report, [&] {
    Values v;
    std::optional<MappedDataset> mapped;
    PassResult passes;
    v["run_s"] = tracer.time("bench.run", [&] {
      v["snapshot.open_s"] = tracer.time("snapshot.open", [&] { mapped.emplace(path); });
      passes = run_passes(mapped->view(), catalog.db(), websites, options.threads,
                          options.seed, tracer);
    });
    put_passes(v, passes);
    report.check(mapped->view().ip_observations_total() == sessions,
                 "snapshot holds a different number of downloader entries");
    report.check(passes.distinct_ips == distinct,
                 "distinct_ips_global " + std::to_string(passes.distinct_ips) +
                     " != generator's " + std::to_string(distinct));
    report.check(passes.demographics_distinct_ips == distinct,
                 "demographics counted " +
                     std::to_string(passes.demographics_distinct_ips) +
                     " distinct IPs, generator " + std::to_string(distinct));
    if (!first_digest) first_digest = passes.digest;
    report.check(*first_digest == passes.digest, "repeated analysis runs disagree");
    return v;
  });
}

}  // namespace perfbench
