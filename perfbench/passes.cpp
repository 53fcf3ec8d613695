#include "passes.hpp"

#include <optional>

#include "analysis/classify.hpp"
#include "analysis/contribution.hpp"
#include "analysis/demographics.hpp"
#include "analysis/groups.hpp"
#include "analysis/session.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace btpub;

constexpr std::size_t kTopN = 100;

std::uint64_t str_hash(std::string_view s) {
  Digest d;
  d.str(s);
  return d.h;
}

void digest_identity(Digest& d, const IdentityAnalysis& identity) {
  d.u64(identity.usernames().size());
  for (const UsernameStats& u : identity.usernames()) {
    d.str(u.username);
    d.u64(u.content_count);
    d.u64(u.download_count);
    d.u64(u.banned ? 1 : 0);
    for (std::size_t t : u.torrents) d.u64(t);
    for (IpAddress ip : u.ips) d.u64(ip.value());
  }
  d.u64(identity.ips().size());
  for (const IpStats& s : identity.ips()) {
    d.u64(s.ip.value());
    d.u64(s.content_count);
    d.u64(s.banned_usernames);
    for (std::size_t t : s.torrents) d.u64(t);
    for (const std::string& n : s.usernames) d.str(n);
  }
  for (const std::string& n : identity.top()) d.str(n);
  d.u64(identity.compromised_in_top());
  d.unordered(identity.fake_usernames(), str_hash);
  d.unordered(identity.fake_ips(),
              [](IpAddress ip) { return perfbench::mix64(ip.value()); });
  for (TargetGroup g : {TargetGroup::All, TargetGroup::Fake, TargetGroup::Top,
                        TargetGroup::TopHP, TargetGroup::TopCI}) {
    const auto share = identity.share_of(g);
    d.f64(share.content);
    d.f64(share.downloads);
  }
  d.u64(identity.total_content());
  d.u64(identity.total_downloads());
}

void digest_classes(Digest& d, const ClassificationResult& classified) {
  d.u64(classified.profiles.size());
  for (const PublisherProfile& p : classified.profiles) {
    d.str(p.username);
    d.u64(static_cast<std::uint64_t>(p.cls));
    d.str(p.domain);
    d.u64((p.in_textbox ? 1 : 0) | (p.in_filename ? 2 : 0) |
          (p.in_payload ? 4 : 0) | (p.ads ? 8 : 0) | (p.donations ? 16 : 0) |
          (p.vip ? 32 : 0) | (p.signup ? 64 : 0) |
          (p.private_tracker ? 128 : 0));
    for (const std::string& n : p.ad_networks) d.str(n);
    d.u64(p.content_count);
    d.u64(p.download_count);
  }
}

void digest_panel(Digest& d, const std::vector<SeedingBox>& panel) {
  d.u64(panel.size());
  for (const SeedingBox& box : panel) {
    d.u64(static_cast<std::uint64_t>(box.group));
    d.u64(box.publishers);
    for (const BoxStats* s : {&box.seeding_time_hours, &box.parallel_torrents,
                              &box.aggregated_session_hours}) {
      d.f64(s->min);
      d.f64(s->p25);
      d.f64(s->median);
      d.f64(s->p75);
      d.f64(s->max);
      d.u64(s->count);
    }
  }
}

void digest_demographics(Digest& d, const DownloaderDemographics& demo) {
  d.u64(demo.total_distinct_ips);
  d.u64(demo.located_ips);
  for (const auto* rows : {&demo.by_country, &demo.by_isp}) {
    d.u64(rows->size());
    for (const DemographicRow& row : *rows) {
      d.str(row.label);
      d.u64(row.downloaders);
      d.f64(row.share);
    }
  }
}

}  // namespace

PassResult run_passes(const CompactDatasetView& view, const GeoDb& geo,
                      const WebsiteDirectory& websites, std::size_t threads,
                      std::uint64_t seed, Tracer& tracer) {
  PassResult r;
  Digest d;
  std::optional<IdentityAnalysis> identity;
  r.identity_s = tracer.time("analysis.identity", [&] {
    identity.emplace(view, geo, kTopN, FakeDetectionConfig{}, threads);
  });
  digest_identity(d, *identity);

  std::optional<ClassificationResult> classes;
  r.classify_s = tracer.time("analysis.classify", [&] {
    Rng rng(derive_seed(seed, 0xc1a5));
    classes.emplace(
        classify_top_publishers(view, *identity, websites, 0, rng, threads));
  });
  digest_classes(d, *classes);

  std::vector<SeedingBox> panel;
  r.seeding_s = tracer.time("analysis.seeding", [&] {
    Rng rng(derive_seed(seed, 0x5e55));
    panel = seeding_panel(view, *identity, 400, rng, hours(4), threads);
  });
  digest_panel(d, panel);

  std::optional<DownloaderDemographics> demo;
  r.demographics_s = tracer.time("analysis.demographics", [&] {
    demo.emplace(downloader_demographics(view, geo, 10, threads));
  });
  r.demographics_distinct_ips = demo->total_distinct_ips;
  digest_demographics(d, *demo);

  TopConsumptionStats consumption;
  r.consumption_s = tracer.time("analysis.consumption", [&] {
    consumption = top_publisher_consumption(view, *identity, kTopN, threads);
  });
  d.u64(consumption.considered);
  d.u64(consumption.zero_downloads);
  d.u64(consumption.under_five_downloads);
  r.distinct_ips_s = tracer.time("analysis.distinct_ips", [&] {
    r.distinct_ips = view.distinct_ips_global();
  });
  d.u64(r.distinct_ips);
  r.digest = d.h;
  return r;
}

}  // namespace perfbench
