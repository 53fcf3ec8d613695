#include "analysis/demographics.hpp"

#include <algorithm>
#include <map>

#include "util/parallel.hpp"

namespace btpub {
namespace {

/// Folds per-ISP tallies (indexed by IspId) into rows labelled by each
/// ISP's `label` field: ISPs sharing a label sum into one row. Rows come
/// out by count descending, ties by label ascending; `share` is count /
/// total.
std::vector<DemographicRow> to_rows(const GeoDb& geo,
                                    const std::vector<std::size_t>& by_isp,
                                    std::string IspInfo::*label,
                                    std::size_t total, std::size_t top_k) {
  std::map<std::string_view, std::size_t> counts;
  for (IspId id = 0; id < by_isp.size(); ++id) {
    if (by_isp[id] != 0) counts[geo.isp(id).*label] += by_isp[id];
  }
  std::vector<DemographicRow> rows;
  rows.reserve(counts.size());
  for (const auto& [label, count] : counts) {
    DemographicRow row;
    row.label = std::string(label);
    row.downloaders = count;
    row.share = total ? static_cast<double>(count) / static_cast<double>(total)
                      : 0.0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const DemographicRow& a, const DemographicRow& b) {
              if (a.downloaders != b.downloaders) {
                return a.downloaders > b.downloaders;
              }
              return a.label < b.label;
            });
  if (top_k > 0 && rows.size() > top_k) rows.resize(top_k);
  return rows;
}

}  // namespace

/// The geo lookups fan out over slices of the ascending distinct IP list,
/// each tallying hits into a dense per-IspId array; the shard arrays merge
/// by commutative sums, so the breakdown is byte-identical to serial at
/// any thread count.
DownloaderDemographics downloader_demographics(const CompactDatasetView& view,
                                               const GeoDb& geo,
                                               std::size_t top_k,
                                               std::size_t threads) {
  const std::vector<std::uint32_t> distinct = view.distinct_downloader_ips(threads);
  DownloaderDemographics demo;
  demo.total_distinct_ips = distinct.size();

  auto shards = sharded_scan(
      distinct.size(), threads, [&](std::size_t begin, std::size_t end) {
        std::vector<std::size_t> by_isp(geo.isp_count(), 0);
        for (std::size_t i = begin; i < end; ++i) {
          if (const auto loc = geo.lookup(IpAddress(distinct[i]))) ++by_isp[loc->isp];
        }
        return by_isp;
      });
  std::vector<std::size_t> by_isp(geo.isp_count(), 0);
  for (const auto& shard : shards) {
    for (IspId id = 0; id < by_isp.size(); ++id) by_isp[id] += shard[id];
  }
  for (const std::size_t count : by_isp) demo.located_ips += count;
  demo.by_country = to_rows(geo, by_isp, &IspInfo::country, demo.located_ips, top_k);
  demo.by_isp = to_rows(geo, by_isp, &IspInfo::name, demo.located_ips, top_k);
  return demo;
}

std::vector<DemographicRow> publisher_countries(const CompactDatasetView& view,
                                                const GeoDb& geo,
                                                std::size_t top_k) {
  std::vector<std::size_t> by_isp(geo.isp_count(), 0);
  std::size_t total = 0;
  for (const TorrentRecordPod& pod : view.torrents) {
    if ((pod.flags & TorrentRecordPod::kHasPublisherIp) == 0) continue;
    const auto loc = geo.lookup(IpAddress(pod.publisher_ip));
    if (!loc) continue;
    ++by_isp[loc->isp];
    ++total;
  }
  return to_rows(geo, by_isp, &IspInfo::country, total, top_k);
}

}  // namespace btpub
