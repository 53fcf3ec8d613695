// Zero-copy mmap snapshot: round trips, validation, consumer identity.
#include "crawler/dataset_mmap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/contribution.hpp"
#include "analysis/demographics.hpp"
#include "analysis/groups.hpp"
#include "analysis/isp.hpp"
#include "analysis/longitudinal.hpp"
#include "analysis/session.hpp"
#include "crawler/compact_dataset.hpp"
#include "crawler/dataset_io.hpp"

namespace btpub {
namespace {

/// Canonical bytes of a dataset: the stream serializer is deterministic
/// (sorted user pages), so byte equality here is full structural equality.
std::string canonical_bytes(const Dataset& d) {
  std::ostringstream out(std::ios::binary);
  save_dataset(d, out);
  return out.str();
}

Dataset sample_dataset(DatasetStyle style) {
  Dataset d;
  d.name = "sample";
  d.style = style;
  d.window_start = hours(2);
  d.window_end = days(40);

  for (int i = 0; i < 40; ++i) {
    TorrentRecord r;
    r.portal_id = static_cast<TorrentId>(i);
    r.infohash = Sha1::hash("torrent" + std::to_string(i));
    r.title = "Content." + std::to_string(i) + ".DVDRip-divxatope.com";
    r.category = static_cast<ContentCategory>(i % 6);
    r.language = static_cast<Language>(i % 4);
    r.size_bytes = 1000000 + i * 7919;
    r.username = "user" + std::to_string(i % 7);  // heavy intern sharing
    if (i % 3 != 0) r.publisher_ip = IpAddress(0x0a000000u + i);
    r.published_at = hours(i);
    r.first_seen = hours(i) + minutes(3);
    if (i % 4 == 0) r.textbox = "Visit http://www.divxatope.com/ !";
    r.payload_filenames = {"film" + std::to_string(i) + ".avi",
                           "Visit-www-divxatope-com.txt"};
    r.piece_count = 100 + i;
    r.observed_removed = i % 10 == 0;
    if (r.observed_removed) r.observed_removed_at = days(2);
    r.initial_seeders = i;
    r.initial_peers = 2 * i;
    r.query_count = 5 + i;
    r.max_concurrent = 3 + i;
    d.torrents.push_back(std::move(r));

    std::vector<IpAddress> ips;
    for (int k = 0; k < i % 9; ++k) {
      ips.emplace_back(0x20000000u + static_cast<std::uint32_t>(i * 100 + k));
    }
    d.downloaders.push_back(std::move(ips));
    std::vector<SimTime> sightings;
    for (int k = 0; k < i % 4; ++k) sightings.push_back(hours(i) + minutes(k));
    d.publisher_sightings.push_back(std::move(sightings));
  }
  for (int u = 0; u < 7; ++u) {
    UserPage page;
    page.username = "user" + std::to_string(u);
    page.banned = u == 5;
    for (int k = 0; k < u; ++k) page.publish_times.push_back(days(k));
    d.user_pages.emplace(page.username, page);
  }
  return d;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CompactDataset, LosslessRoundTripAllStyles) {
  for (const DatasetStyle style :
       {DatasetStyle::Mn08, DatasetStyle::Pb09, DatasetStyle::Pb10}) {
    const Dataset original = sample_dataset(style);
    const CompactDataset compact = compact_dataset(original);
    const Dataset back = inflate(compact.view());
    EXPECT_EQ(canonical_bytes(back), canonical_bytes(original));
  }
}

TEST(CompactDataset, InternSharesBytes) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const CompactDataset compact = compact_dataset(original);
  // 7 usernames and 1 repeated payload filename across 40 torrents: the
  // arena must hold each distinct string once.
  std::size_t distinct_total = 0;
  std::vector<std::string> seen;
  auto note = [&](const std::string& s) {
    if (s.empty()) return;
    for (const std::string& t : seen) {
      if (t == s) return;
    }
    seen.push_back(s);
    distinct_total += s.size();
  };
  for (const TorrentRecord& r : original.torrents) {
    note(r.title);
    note(r.username);
    note(r.textbox);
    for (const std::string& f : r.payload_filenames) note(f);
  }
  EXPECT_EQ(compact.text.size(), distinct_total);
}

TEST(CompactDataset, SummaryHelpersMatchDataset) {
  const Dataset original = sample_dataset(DatasetStyle::Pb09);
  const CompactDataset compact = compact_dataset(original);
  const CompactDatasetView view = compact.view();
  EXPECT_EQ(view.torrent_count(), original.torrents.size());
  EXPECT_EQ(view.with_username(), original.with_username());
  EXPECT_EQ(view.with_publisher_ip(), original.with_publisher_ip());
  EXPECT_EQ(view.distinct_ips_global(), original.distinct_ips_global());
  EXPECT_EQ(view.ip_observations_total(), original.ip_observations_total());
}

TEST(MappedDataset, RoundTripAllStyles) {
  for (const DatasetStyle style :
       {DatasetStyle::Mn08, DatasetStyle::Pb09, DatasetStyle::Pb10}) {
    const Dataset original = sample_dataset(style);
    const std::string path = tmp_path("roundtrip.mmap");
    save_mmap_snapshot(original, path);
    const MappedDataset mapped(path);
    EXPECT_EQ(canonical_bytes(mapped.to_dataset()), canonical_bytes(original));
  }
}

TEST(MappedDataset, EmptyDataset) {
  Dataset empty;
  empty.name = "empty";
  empty.style = DatasetStyle::Mn08;
  const std::string path = tmp_path("empty.mmap");
  save_mmap_snapshot(empty, path);
  const MappedDataset mapped(path);
  EXPECT_EQ(mapped.view().torrent_count(), 0u);
  EXPECT_EQ(mapped.view().name, "empty");
  EXPECT_EQ(canonical_bytes(mapped.to_dataset()), canonical_bytes(empty));
}

TEST(MappedDataset, RejectsMissingFile) {
  EXPECT_THROW(MappedDataset(tmp_path("does_not_exist.mmap")),
               std::runtime_error);
}

TEST(MappedDataset, RejectsTruncatedFile) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("trunc.mmap");
  save_mmap_snapshot(original, path);
  const std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 64u);
  // Cut inside the header, then inside the sections.
  spit(path, std::vector<char>(bytes.begin(), bytes.begin() + 20));
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);
  spit(path, std::vector<char>(bytes.begin(),
                               bytes.begin() +
                                   static_cast<std::ptrdiff_t>(bytes.size() / 2)));
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);
}

TEST(MappedDataset, RejectsBadMagicAndVersion) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("magic.mmap");
  save_mmap_snapshot(original, path);
  std::vector<char> bytes = slurp(path);

  std::vector<char> bad = bytes;
  bad[0] ^= 0x40;
  spit(path, bad);
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);

  // Version field sits right after the 8-byte magic.
  bad = bytes;
  std::uint32_t version = 0;
  std::memcpy(&version, bad.data() + 8, sizeof version);
  version += 1;
  std::memcpy(bad.data() + 8, &version, sizeof version);
  spit(path, bad);
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);
}

TEST(MappedDataset, RejectsCorruptSectionTable) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("table.mmap");
  save_mmap_snapshot(original, path);
  std::vector<char> bytes = slurp(path);
  // First section entry: {u32 id, u32 reserved, u64 offset, u64 size} at
  // byte 64. Point it past the end of the file.
  const std::uint64_t bogus = bytes.size() + 4096;
  std::memcpy(bytes.data() + 64 + 8, &bogus, sizeof bogus);
  spit(path, bytes);
  EXPECT_THROW(MappedDataset{path}, std::runtime_error);
}

TEST(MappedDataset, RejectsCorruptRecordPayloadOnInflate) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("payload.mmap");
  save_mmap_snapshot(original, path);
  std::vector<char> bytes = slurp(path);

  // Find the TorrentPods section (id 2) in the table and blow up the first
  // record's title length (StrRef sits after the five leading 8-byte
  // fields). The O(1) open must still succeed — the mapping stays
  // zero-copy — and the deep validation in to_dataset() must throw.
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 12, sizeof section_count);
  std::uint64_t pods_offset = 0;
  for (std::uint32_t k = 0; k < section_count; ++k) {
    std::uint32_t id = 0;
    std::memcpy(&id, bytes.data() + 64 + 24 * k, sizeof id);
    if (id == 2) {
      std::memcpy(&pods_offset, bytes.data() + 64 + 24 * k + 8,
                  sizeof pods_offset);
    }
  }
  ASSERT_NE(pods_offset, 0u);
  const std::uint32_t huge = 0xffffffffu;
  std::memcpy(bytes.data() + pods_offset + 40 + 4, &huge, sizeof huge);
  spit(path, bytes);

  const MappedDataset mapped(path);
  EXPECT_THROW(mapped.to_dataset(), std::runtime_error);
}

TEST(MappedDataset, LoadOrGeneratePrefersSnapshot) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const std::string path = tmp_path("cache.ds");
  std::remove(path.c_str());
  std::remove(mmap_sibling_path(path).c_str());

  int calls = 0;
  auto generate = [&] {
    ++calls;
    return sample_dataset(DatasetStyle::Pb10);
  };
  const Dataset first = load_or_generate(path, generate);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(canonical_bytes(first), canonical_bytes(original));

  // Second call must hit the snapshot: generate() not called again, and
  // even a deleted stream file does not force regeneration.
  std::remove(path.c_str());
  const Dataset second = load_or_generate(path, generate);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(canonical_bytes(second), canonical_bytes(original));
}

/// Compares two identity analyses of the same data, table by table.
void expect_same_analysis(const IdentityAnalysis& a, const IdentityAnalysis& b) {
  ASSERT_EQ(a.usernames().size(), b.usernames().size());
  for (std::size_t i = 0; i < a.usernames().size(); ++i) {
    const UsernameStats& x = a.usernames()[i];
    const UsernameStats& y = b.usernames()[i];
    EXPECT_EQ(x.username, y.username);
    EXPECT_EQ(x.torrents, y.torrents);
    EXPECT_EQ(x.content_count, y.content_count);
    EXPECT_EQ(x.download_count, y.download_count);
    EXPECT_EQ(x.ips, y.ips);
    EXPECT_EQ(x.banned, y.banned);
  }
  ASSERT_EQ(a.ips().size(), b.ips().size());
  for (std::size_t i = 0; i < a.ips().size(); ++i) {
    EXPECT_EQ(a.ips()[i].ip, b.ips()[i].ip);
    EXPECT_EQ(a.ips()[i].usernames, b.ips()[i].usernames);
    EXPECT_EQ(a.ips()[i].banned_usernames, b.ips()[i].banned_usernames);
  }
  EXPECT_EQ(a.fake_usernames(), b.fake_usernames());
  EXPECT_EQ(a.top(), b.top());
  EXPECT_EQ(a.top_hp(), b.top_hp());
  EXPECT_EQ(a.top_ci(), b.top_ci());
  EXPECT_EQ(a.total_content(), b.total_content());
  EXPECT_EQ(a.total_downloads(), b.total_downloads());
}

GeoDb sample_geo() {
  GeoDb geo;
  const IspId host = geo.add_isp("HostCo", IspType::HostingProvider, "FR");
  geo.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 8), host, "Paris");
  return geo;
}

TEST(IdentityAnalysis, MmapViewMatchesInMemoryView) {
  const Dataset dataset = sample_dataset(DatasetStyle::Pb10);
  const GeoDb geo = sample_geo();
  const CompactDataset compact = compact_dataset(dataset);
  const IdentityAnalysis from_view(compact.view(), geo, 10);
  ASSERT_EQ(from_view.usernames().size(), 7u);
  EXPECT_EQ(from_view.total_content(), dataset.torrents.size());
  EXPECT_TRUE(from_view.is_fake("user5"));  // the banned user page

  // And from the mmap-ed snapshot, with no inflation at all.
  const std::string path = tmp_path("identity.mmap");
  save_mmap_snapshot(dataset, path);
  const MappedDataset mapped(path);
  const IdentityAnalysis from_mmap(mapped.view(), geo, 10);
  expect_same_analysis(from_view, from_mmap);
}

TEST(Classify, IdenticalOnReloadedDatasets) {
  const Dataset original = sample_dataset(DatasetStyle::Pb10);
  const GeoDb geo = sample_geo();
  WebsiteDirectory websites;

  const std::string path = tmp_path("classify.ds");
  save_dataset(original, path);
  save_mmap_snapshot(original, mmap_sibling_path(path));
  const Dataset via_stream = load_dataset(path);
  const MappedDataset via_mmap(mmap_sibling_path(path));

  auto classify = [&](const CompactDatasetView& view) {
    const IdentityAnalysis identity(view, geo, 10);
    Rng rng(1234);
    return classify_top_publishers(view, identity, websites, 3, rng);
  };
  const CompactDataset original_compact = compact_dataset(original);
  const CompactDataset stream_compact = compact_dataset(via_stream);
  const ClassificationResult a = classify(original_compact.view());
  const ClassificationResult b = classify(stream_compact.view());
  const ClassificationResult c = classify(via_mmap.view());

  auto expect_same = [](const ClassificationResult& x,
                        const ClassificationResult& y) {
    ASSERT_EQ(x.profiles.size(), y.profiles.size());
    for (std::size_t i = 0; i < x.profiles.size(); ++i) {
      EXPECT_EQ(x.profiles[i].username, y.profiles[i].username);
      EXPECT_EQ(x.profiles[i].cls, y.profiles[i].cls);
      EXPECT_EQ(x.profiles[i].domain, y.profiles[i].domain);
      EXPECT_EQ(x.profiles[i].content_count, y.profiles[i].content_count);
      EXPECT_EQ(x.profiles[i].download_count, y.profiles[i].download_count);
    }
  };
  expect_same(a, b);
  expect_same(a, c);
}

TEST(CompactDatasetView, CorruptRowThrowsFromEveryPassThatReadsIt) {
  const Dataset dataset = sample_dataset(DatasetStyle::Pb10);
  const GeoDb geo = sample_geo();
  WebsiteDirectory websites;
  const CompactDataset clean = compact_dataset(dataset);
  // Tables from the clean rows, for the passes that take them as input.
  const IdentityAnalysis identity(clean.view(), geo, 10);
  Rng clean_rng(1);
  const ClassificationResult classification =
      classify_top_publishers(clean.view(), identity, websites, 0, clean_rng);
  ASSERT_EQ(identity.top().size(), 6u);  // every user but the banned user5
  std::vector<std::size_t> all_rows(dataset.torrents.size());
  for (std::size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;

  // Every pass that reads one row field; unsampled, so each reads every
  // row (row 0 and user page 1 belong to top publishers).
  using Pass = std::function<void(const CompactDatasetView&, std::size_t)>;
  const std::map<std::string, Pass> passes = {
      {"identity",
       [&](const CompactDatasetView& v, std::size_t threads) {
         IdentityAnalysis(v, geo, 10, {}, threads);
       }},
      {"classify",
       [&](const CompactDatasetView& v, std::size_t threads) {
         Rng rng(1);
         classify_top_publishers(v, identity, websites, 0, rng, threads);
       }},
      {"seeding_panel",
       [&](const CompactDatasetView& v, std::size_t threads) {
         Rng rng(1);
         seeding_panel(v, identity, 0, rng, hours(4), threads);
       }},
      {"seeding_metrics",
       [&](const CompactDatasetView& v, std::size_t) {
         seeding_metrics(v, all_rows);
       }},
      {"demographics",
       [&](const CompactDatasetView& v, std::size_t threads) {
         downloader_demographics(v, geo, 10, threads);
       }},
      {"consumption",
       [&](const CompactDatasetView& v, std::size_t threads) {
         top_publisher_consumption(v, identity, 10, threads);
       }},
      {"consumers_from_isp",
       [&](const CompactDatasetView& v, std::size_t) {
         consumers_from_isp(v, geo, "HostCo");
       }},
      {"longitudinal",
       [&](const CompactDatasetView& v, std::size_t) {
         longitudinal_table(v, classification);
       }},
  };
  for (const auto& [name, pass] : passes) {
    EXPECT_NO_THROW(pass(clean.view(), 4)) << name;
  }

  const auto past_text = static_cast<std::uint32_t>(clean.text.size());
  struct Corruption {
    std::string field;
    std::function<void(CompactDataset&)> apply;
    std::vector<std::string> readers;
  };
  const std::vector<Corruption> corruptions = {
      {"title ref",
       [&](CompactDataset& c) { c.torrents[0].title.offset = past_text; },
       {"classify"}},
      {"username ref",
       [&](CompactDataset& c) { c.torrents[0].username.length = past_text; },
       {"identity"}},
      {"textbox ref",
       [&](CompactDataset& c) { c.torrents[0].textbox.offset = 0xFFFFFFFFu; },
       {"classify"}},
      {"user-page username ref",
       [&](CompactDataset& c) { c.user_pages[1].username.offset = past_text; },
       {"identity", "longitudinal"}},
      {"sightings span",
       [&](CompactDataset& c) {
         c.torrents[0].sightings.end = static_cast<std::uint32_t>(c.sightings.size() + 1);
       },
       {"seeding_panel", "seeding_metrics"}},
      {"language byte",
       [&](CompactDataset& c) { c.torrents[0].language = 6; },
       {"classify"}},
      {"filenames span",
       [&](CompactDataset& c) { c.torrents[0].payload_filenames = Span32{2, 1}; },
       {"classify"}},
      {"publish-times span",
       [&](CompactDataset& c) {
         c.user_pages[1].publish_times.end =
             static_cast<std::uint32_t>(c.user_publish_times.size() + 1);
       },
       {"longitudinal"}},
      {"downloader span",
       [&](CompactDataset& c) {
         c.torrents[0].downloaders.end =
             static_cast<std::uint32_t>(c.peer_blob.size() / 6 + 1);
       },
       {"identity", "demographics", "consumption", "consumers_from_isp"}},
  };
  for (const Corruption& corruption : corruptions) {
    CompactDataset hostile = clean;
    corruption.apply(hostile);
    for (const std::string& reader : corruption.readers) {
      for (const std::size_t threads : {1u, 4u}) {
        EXPECT_THROW(passes.at(reader)(hostile.view(), threads), std::runtime_error)
            << corruption.field << " via " << reader << " @" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace btpub
