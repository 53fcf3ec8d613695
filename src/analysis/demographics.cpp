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

/// The demographics core over the ascending distinct downloader IPs. The
/// geo lookups fan out over slices of that list, each tallying hits into a
/// dense per-IspId array; the shard arrays merge by commutative sums, so
/// the breakdown is byte-identical to serial at any thread count.
DownloaderDemographics demographics_impl(const std::vector<std::uint32_t>& distinct,
                                         const GeoDb& geo, std::size_t top_k,
                                         std::size_t threads) {
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

}  // namespace

DownloaderDemographics downloader_demographics(const Dataset& dataset,
                                               const GeoDb& geo,
                                               std::size_t top_k,
                                               std::size_t threads) {
  return demographics_impl(dataset.distinct_downloader_ips(threads), geo, top_k,
                           threads);
}

DownloaderDemographics downloader_demographics(const CompactDatasetView& view,
                                               const GeoDb& geo,
                                               std::size_t top_k,
                                               std::size_t threads) {
  return demographics_impl(view.distinct_downloader_ips(threads), geo, top_k,
                           threads);
}

namespace {

template <typename RowOf>
std::vector<DemographicRow> publisher_countries_impl(std::size_t torrent_count,
                                                     const GeoDb& geo,
                                                     std::size_t top_k,
                                                     RowOf&& publisher_ip_of) {
  std::vector<std::size_t> by_isp(geo.isp_count(), 0);
  std::size_t total = 0;
  for (std::size_t t = 0; t < torrent_count; ++t) {
    const std::optional<IpAddress> ip = publisher_ip_of(t);
    if (!ip) continue;
    const auto loc = geo.lookup(*ip);
    if (!loc) continue;
    ++by_isp[loc->isp];
    ++total;
  }
  return to_rows(geo, by_isp, &IspInfo::country, total, top_k);
}

}  // namespace

std::vector<DemographicRow> publisher_countries(const Dataset& dataset,
                                                const GeoDb& geo,
                                                std::size_t top_k) {
  return publisher_countries_impl(
      dataset.torrents.size(), geo, top_k, [&dataset](std::size_t t) {
        return dataset.torrents[t].publisher_ip;
      });
}

std::vector<DemographicRow> publisher_countries(const CompactDatasetView& view,
                                                const GeoDb& geo,
                                                std::size_t top_k) {
  return publisher_countries_impl(
      view.torrents.size(), geo, top_k,
      [&view](std::size_t t) -> std::optional<IpAddress> {
        const TorrentRecordPod& pod = view.torrents[t];
        if ((pod.flags & TorrentRecordPod::kHasPublisherIp) == 0) {
          return std::nullopt;
        }
        return IpAddress(pod.publisher_ip);
      });
}

}  // namespace btpub
