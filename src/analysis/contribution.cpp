#include "analysis/contribution.hpp"

#include <unordered_map>

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
  // *other* torrents. Workers only read the shared `downloads` keys and
  // accumulate shard-local counts; the merge is a commutative sum, so the
  // totals equal the serial scan's exactly.
  TopConsumptionStats stats;
  stats.considered = std::min(top_n, identity.ips().size());

  std::unordered_map<IpAddress, std::size_t> downloads;
  for (std::size_t i = 0; i < stats.considered; ++i) {
    downloads.emplace(identity.ips()[i].ip, 0);
  }
  const auto shards = sharded_scan(
      view.torrents.size(), threads,
      [&](std::size_t begin, std::size_t end) {
        std::unordered_map<IpAddress, std::size_t> local;
        for (std::size_t t = begin; t < end; ++t) {
          const TorrentRecordPod& pod = view.torrents[t];
          const std::uint32_t n = view.downloader_count(pod);
          for (std::uint32_t i = 0; i < n; ++i) {
            const IpAddress ip = view.downloader_ip(pod, i);
            if (downloads.find(ip) != downloads.end()) ++local[ip];
          }
        }
        return local;
      });
  for (const auto& shard : shards) {
    for (const auto& [ip, count] : shard) downloads[ip] += count;
  }

  for (std::size_t i = 0; i < stats.considered; ++i) {
    const std::size_t count = downloads[identity.ips()[i].ip];
    if (count == 0) ++stats.zero_downloads;
    if (count < 5) ++stats.under_five_downloads;
  }
  return stats;
}

}  // namespace btpub
