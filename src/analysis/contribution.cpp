#include "analysis/contribution.hpp"

#include <algorithm>
#include <bitset>

#include "util/parallel.hpp"

namespace btpub {

ContributionCurve contribution_curve(const IdentityAnalysis& identity,
                                     std::span<const double> top_percents) {
  ContributionCurve curve;
  std::vector<double> contributions;
  if (!identity.usernames().empty()) {
    contributions.reserve(identity.usernames().size());
    for (const UsernameStats& stats : identity.usernames()) {
      contributions.push_back(static_cast<double>(stats.content_count));
    }
  } else {
    // mn08: publishers are identified by IP address only.
    contributions.reserve(identity.ips().size());
    for (const IpStats& stats : identity.ips()) {
      contributions.push_back(static_cast<double>(stats.content_count));
    }
  }
  curve.publishers = contributions.size();
  curve.contents = identity.total_content();
  curve.points = top_share_curve(contributions, top_percents);
  curve.gini = gini(contributions);
  return curve;
}

TopConsumptionStats top_publisher_consumption(const CompactDatasetView& view,
                                              const IdentityAnalysis& identity,
                                              std::size_t top_n,
                                              std::size_t threads) {
  // Count how often each top publisher IP shows up as a downloader of
  // *other* torrents. The top IPs are distinct, so their sorted positions
  // are dense slots; workers count into shard-local slots and the merge is
  // a commutative sum, so the totals equal the serial scan's exactly.
  TopConsumptionStats stats;
  stats.considered = std::min(top_n, identity.ips().size());
  std::vector<std::uint32_t> top_ips(stats.considered);
  std::transform(identity.ips().begin(), identity.ips().begin() + top_ips.size(),
                 top_ips.begin(), [](const IpStats& s) { return s.ip.value(); });
  std::sort(top_ips.begin(), top_ips.end());
  // Nearly every downloader shares no /16 with a top IP; one bit test on
  // its top 16 bits skips the search for those.
  std::bitset<std::size_t{1} << 16> top_prefixes;
  for (const std::uint32_t ip : top_ips) top_prefixes.set(ip >> 16);
  const auto shards = sharded_scan(
      view.torrents.size(), threads, [&](std::size_t begin, std::size_t end) {
        std::vector<std::size_t> local(top_ips.size(), 0);
        for (std::size_t t = begin; t < end; ++t) {
          const TorrentRecordPod& pod = view.torrents[t];
          const std::uint32_t n = view.downloader_count(pod);
          for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t ip = view.downloader_ip(pod, i).value();
            if (!top_prefixes[ip >> 16]) continue;
            const auto it = std::lower_bound(top_ips.begin(), top_ips.end(), ip);
            if (it != top_ips.end() && *it == ip) ++local[it - top_ips.begin()];
          }
        }
        return local;
      });
  for (std::size_t k = 0; k < top_ips.size(); ++k) {
    std::size_t count = 0;
    for (const auto& shard : shards) count += shard[k];
    if (count == 0) ++stats.zero_downloads;
    if (count < 5) ++stats.under_five_downloads;
  }
  return stats;
}

}  // namespace btpub
