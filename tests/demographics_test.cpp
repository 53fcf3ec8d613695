// Downloader/publisher demographics aggregation.
#include "analysis/demographics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/rng.hpp"

namespace btpub {
namespace {

class DemographicsTest : public ::testing::Test {
 protected:
  DemographicsTest() {
    const IspId fr = geo_.add_isp("HostFR", IspType::HostingProvider, "FR");
    const IspId us = geo_.add_isp("EyeballUS", IspType::CommercialIsp, "US");
    const IspId de = geo_.add_isp("EyeballDE", IspType::CommercialIsp, "DE");
    geo_.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 8), fr, "Paris");
    geo_.add_block(CidrBlock(IpAddress(20, 0, 0, 0), 8), us, "Denver");
    geo_.add_block(CidrBlock(IpAddress(30, 0, 0, 0), 8), de, "Berlin");
    dataset_.style = DatasetStyle::Pb10;
  }

  void add_torrent(std::optional<IpAddress> publisher,
                   std::vector<IpAddress> downloaders) {
    TorrentRecord record;
    record.portal_id = static_cast<TorrentId>(dataset_.torrents.size());
    record.username = "u" + std::to_string(record.portal_id);
    record.publisher_ip = publisher;
    dataset_.torrents.push_back(std::move(record));
    dataset_.downloaders.push_back(std::move(downloaders));
    dataset_.publisher_sightings.emplace_back();
  }

  /// The dataset built so far in the compact form the analysis reads; the
  /// view borrows compact_ and stays valid until the next call.
  CompactDatasetView view() {
    compact_ = compact_dataset(dataset_);
    return compact_.view();
  }

  GeoDb geo_;
  Dataset dataset_;
  CompactDataset compact_;
};

TEST_F(DemographicsTest, CountsDistinctDownloadersByCountryAndIsp) {
  add_torrent(IpAddress(10, 0, 0, 1),
              {IpAddress(20, 0, 0, 1), IpAddress(20, 0, 0, 2),
               IpAddress(30, 0, 0, 1)});
  // Repeat downloader across torrents counted once.
  add_torrent(IpAddress(10, 0, 0, 1),
              {IpAddress(20, 0, 0, 1), IpAddress(99, 0, 0, 1)});  // 99.* unmapped
  const auto demo = downloader_demographics(view(), geo_, 10);
  EXPECT_EQ(demo.total_distinct_ips, 4u);
  EXPECT_EQ(demo.located_ips, 3u);
  ASSERT_EQ(demo.by_country.size(), 2u);
  EXPECT_EQ(demo.by_country[0].label, "US");
  EXPECT_EQ(demo.by_country[0].downloaders, 2u);
  EXPECT_NEAR(demo.by_country[0].share, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(demo.by_country[1].label, "DE");
  ASSERT_EQ(demo.by_isp.size(), 2u);
  EXPECT_EQ(demo.by_isp[0].label, "EyeballUS");
}

TEST_F(DemographicsTest, TopKTruncates) {
  add_torrent(std::nullopt, {IpAddress(20, 0, 0, 1), IpAddress(30, 0, 0, 1)});
  const auto demo = downloader_demographics(view(), geo_, 1);
  EXPECT_EQ(demo.by_country.size(), 1u);
  EXPECT_EQ(demo.by_isp.size(), 1u);
}

TEST_F(DemographicsTest, PublisherCountriesWeightedByTorrents) {
  add_torrent(IpAddress(10, 0, 0, 1), {});
  add_torrent(IpAddress(10, 0, 0, 2), {});
  add_torrent(IpAddress(20, 0, 0, 9), {});
  add_torrent(std::nullopt, {});
  const auto rows = publisher_countries(view(), geo_, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "FR");
  EXPECT_EQ(rows[0].downloaders, 2u);
  EXPECT_NEAR(rows[0].share, 2.0 / 3.0, 1e-9);
}

TEST_F(DemographicsTest, EmptyDatasetIsZero) {
  const auto demo = downloader_demographics(view(), geo_, 10);
  EXPECT_EQ(demo.total_distinct_ips, 0u);
  EXPECT_TRUE(demo.by_country.empty());
  EXPECT_TRUE(publisher_countries(view(), geo_, 10).empty());
}

TEST_F(DemographicsTest, IspsOfOneCountrySumIntoOneCountryRow) {
  const IspId us2 = geo_.add_isp("HostUS", IspType::HostingProvider, "US");
  geo_.add_block(CidrBlock(IpAddress(40, 0, 0, 0), 8), us2, "Ashburn");
  add_torrent(std::nullopt, {IpAddress(20, 0, 0, 1), IpAddress(40, 0, 0, 1),
                             IpAddress(40, 0, 0, 2), IpAddress(30, 0, 0, 1)});
  const auto demo = downloader_demographics(view(), geo_, 0);
  ASSERT_EQ(demo.by_country.size(), 2u);
  EXPECT_EQ(demo.by_country[0].label, "US");
  EXPECT_EQ(demo.by_country[0].downloaders, 3u);
  EXPECT_EQ(demo.by_country[0].share, 3.0 / 4.0);
  EXPECT_EQ(demo.by_country[1].label, "DE");
  ASSERT_EQ(demo.by_isp.size(), 3u);
  EXPECT_EQ(demo.by_isp[0].label, "HostUS");
  EXPECT_EQ(demo.by_isp[0].downloaders, 2u);

  add_torrent(IpAddress(40, 0, 0, 9), {});
  add_torrent(IpAddress(20, 0, 0, 9), {});
  const auto publishers = publisher_countries(view(), geo_, 0);
  ASSERT_EQ(publishers.size(), 1u);
  EXPECT_EQ(publishers[0].label, "US");
  EXPECT_EQ(publishers[0].downloaders, 2u);
}

TEST_F(DemographicsTest, NestedBlockCountsForTheLongerPrefix) {
  const IspId nested = geo_.add_isp("NestedNL", IspType::HostingProvider, "NL");
  geo_.add_block(CidrBlock(IpAddress(20, 1, 2, 0), 24), nested, "Amsterdam");
  add_torrent(std::nullopt, {IpAddress(20, 1, 2, 3), IpAddress(20, 1, 2, 4),
                             IpAddress(20, 1, 3, 3)});
  const auto demo = downloader_demographics(view(), geo_, 0);
  ASSERT_EQ(demo.by_isp.size(), 2u);
  EXPECT_EQ(demo.by_isp[0].label, "NestedNL");
  EXPECT_EQ(demo.by_isp[0].downloaders, 2u);
  EXPECT_EQ(demo.by_isp[1].label, "EyeballUS");
  EXPECT_EQ(demo.by_isp[1].downloaders, 1u);
  ASSERT_EQ(demo.by_country.size(), 2u);
  EXPECT_EQ(demo.by_country[0].label, "NL");
}

TEST_F(DemographicsTest, DuplicatesWithinAndAcrossTorrentsCountOnce) {
  const IpAddress a(20, 0, 0, 1);
  const IpAddress b(30, 0, 0, 1);
  add_torrent(std::nullopt, {a, a, b, a});
  add_torrent(std::nullopt, {b, a});
  add_torrent(std::nullopt, {});
  add_torrent(std::nullopt, {a});
  for (const std::size_t threads : {1u, 3u}) {
    const auto demo = downloader_demographics(view(), geo_, 0, threads);
    EXPECT_EQ(demo.total_distinct_ips, 2u);
    EXPECT_EQ(demo.located_ips, 2u);
    ASSERT_EQ(demo.by_isp.size(), 2u);
    EXPECT_EQ(demo.by_isp[0].downloaders, 1u);
    EXPECT_EQ(demo.by_isp[1].downloaders, 1u);
  }
  EXPECT_EQ(dataset_.distinct_ips_global(), 2u);
  const CompactDataset compact = compact_dataset(dataset_);
  EXPECT_EQ(compact.view().distinct_ips_global(), 2u);
}

TEST_F(DemographicsTest, ExtremeAddressesAreDistinctAndLocated) {
  const IspId edges = geo_.add_isp("Edges", IspType::CommercialIsp, "ZZ");
  geo_.add_block(CidrBlock(IpAddress(0, 0, 0, 0), 8), edges, "Low");
  geo_.add_block(CidrBlock(IpAddress(255, 255, 255, 0), 24), edges, "High");
  add_torrent(std::nullopt, {IpAddress(0, 0, 0, 0), IpAddress(255, 255, 255, 255)});
  add_torrent(std::nullopt, {IpAddress(255, 255, 255, 255), IpAddress(0, 0, 0, 0)});
  const CompactDataset compact = compact_dataset(dataset_);
  const auto demo = downloader_demographics(compact.view(), geo_, 0);
  EXPECT_EQ(demo.total_distinct_ips, 2u);
  EXPECT_EQ(demo.located_ips, 2u);
  ASSERT_EQ(demo.by_isp.size(), 1u);
  EXPECT_EQ(demo.by_isp[0].label, "Edges");
  EXPECT_EQ(demo.by_isp[0].downloaders, 2u);
  EXPECT_EQ(demo.by_isp[0].share, 1.0);
}

TEST_F(DemographicsTest, EqualCountsOrderByLabel) {
  // ISP ids run FR, US, DE; rows must follow the labels, not the ids.
  add_torrent(std::nullopt, {IpAddress(20, 0, 0, 1), IpAddress(10, 0, 0, 1),
                             IpAddress(30, 0, 0, 1)});
  const auto demo = downloader_demographics(view(), geo_, 0);
  ASSERT_EQ(demo.by_country.size(), 3u);
  EXPECT_EQ(demo.by_country[0].label, "DE");
  EXPECT_EQ(demo.by_country[1].label, "FR");
  EXPECT_EQ(demo.by_country[2].label, "US");
  ASSERT_EQ(demo.by_isp.size(), 3u);
  EXPECT_EQ(demo.by_isp[0].label, "EyeballDE");
  EXPECT_EQ(demo.by_isp[1].label, "EyeballUS");
  EXPECT_EQ(demo.by_isp[2].label, "HostFR");

  const auto top2 = downloader_demographics(view(), geo_, 2);
  ASSERT_EQ(top2.by_country.size(), 2u);
  EXPECT_EQ(top2.by_country[1].label, "FR");
}

/// Reference breakdown: std::sort + std::unique for the distinct set and
/// string-keyed tallies, independent of the code under test.
DownloaderDemographics reference_demographics(const Dataset& dataset,
                                              const GeoDb& geo) {
  std::vector<std::uint32_t> ips;
  for (const auto& torrent_ips : dataset.downloaders) {
    for (const IpAddress& ip : torrent_ips) ips.push_back(ip.value());
  }
  std::sort(ips.begin(), ips.end());
  ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
  std::map<std::string, std::size_t> by_country;
  std::map<std::string, std::size_t> by_isp;
  DownloaderDemographics demo;
  demo.total_distinct_ips = ips.size();
  for (const std::uint32_t ip : ips) {
    const auto loc = geo.lookup(IpAddress(ip));
    if (!loc) continue;
    ++demo.located_ips;
    ++by_country[std::string(loc->country)];
    ++by_isp[std::string(loc->isp_name)];
  }
  const auto rows = [&](const std::map<std::string, std::size_t>& counts) {
    std::vector<DemographicRow> out;
    for (const auto& [label, count] : counts) {
      out.push_back({label, count,
                     static_cast<double>(count) /
                         static_cast<double>(demo.located_ips)});
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.downloaders > b.downloaders;
    });
    return out;
  };
  demo.by_country = rows(by_country);
  demo.by_isp = rows(by_isp);
  return demo;
}

void expect_same(const DownloaderDemographics& a, const DownloaderDemographics& b,
                 const std::string& what) {
  EXPECT_EQ(a.total_distinct_ips, b.total_distinct_ips) << what;
  EXPECT_EQ(a.located_ips, b.located_ips) << what;
  const auto same_rows = [&](const std::vector<DemographicRow>& x,
                             const std::vector<DemographicRow>& y) {
    ASSERT_EQ(x.size(), y.size()) << what;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].label, y[i].label) << what << " row " << i;
      EXPECT_EQ(x[i].downloaders, y[i].downloaders) << what << " row " << i;
      EXPECT_EQ(x[i].share, y[i].share) << what << " row " << i;
    }
  };
  same_rows(a.by_country, b.by_country);
  same_rows(a.by_isp, b.by_isp);
}

TEST_F(DemographicsTest, CompactViewMatchesSortUniqueReference) {
  const IspId us2 = geo_.add_isp("HostUS", IspType::HostingProvider, "US");
  geo_.add_block(CidrBlock(IpAddress(40, 0, 0, 0), 8), us2, "Ashburn");
  const IspId nested = geo_.add_isp("NestedNL", IspType::HostingProvider, "NL");
  geo_.add_block(CidrBlock(IpAddress(20, 0, 1, 0), 24), nested, "Amsterdam");
  // A small pool drawn with replacement: duplicates within and across
  // torrents, some addresses unmapped (50.*), one nested /24.
  Rng rng(13);
  for (int t = 0; t < 300; ++t) {
    std::vector<IpAddress> ips(rng.uniform_int(0, 40));
    for (IpAddress& ip : ips) {
      ip = IpAddress(static_cast<std::uint8_t>(10 * rng.uniform_int(1, 5)), 0,
                     static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
                     static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    add_torrent(std::nullopt, std::move(ips));
  }
  const DownloaderDemographics reference = reference_demographics(dataset_, geo_);
  ASSERT_GT(reference.total_distinct_ips, reference.located_ips);
  const CompactDataset compact = compact_dataset(dataset_);
  EXPECT_EQ(dataset_.distinct_ips_global(), reference.total_distinct_ips);
  EXPECT_EQ(compact.view().distinct_ips_global(), reference.total_distinct_ips);
  for (const std::size_t threads : {1u, 4u}) {
    expect_same(downloader_demographics(compact.view(), geo_, 0, threads),
                reference, "compact view @" + std::to_string(threads));
  }
}

TEST_F(DemographicsTest, DownloaderSpanPastPeerBlobThrows) {
  add_torrent(std::nullopt, {IpAddress(20, 0, 0, 1), IpAddress(30, 0, 0, 1)});
  add_torrent(std::nullopt, {IpAddress(20, 0, 0, 2)});
  CompactDataset compact = compact_dataset(dataset_);
  compact.torrents[0].downloaders.end =
      static_cast<std::uint32_t>(compact.peer_blob.size() / 6 + 1);
  EXPECT_THROW(compact.view().distinct_ips_global(), std::runtime_error);
  EXPECT_THROW(downloader_demographics(compact.view(), geo_, 10),
               std::runtime_error);
  EXPECT_THROW(downloader_demographics(compact.view(), geo_, 10, 4),
               std::runtime_error);

  compact.torrents[0].downloaders = Span32{2, 1};  // begin past end
  EXPECT_THROW(compact.view().distinct_ips_global(), std::runtime_error);
}

}  // namespace
}  // namespace btpub
