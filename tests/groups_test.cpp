// Identity analysis: username/IP aggregation, fake detection, groups.
#include "analysis/groups.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "util/rng.hpp"

namespace btpub {
namespace {

class GroupsTest : public ::testing::Test {
 protected:
  GroupsTest() {
    const IspId hosting = geo_.add_isp("HostCo", IspType::HostingProvider, "FR");
    const IspId eyeball = geo_.add_isp("EyeballCo", IspType::CommercialIsp, "US");
    geo_.add_block(CidrBlock(IpAddress(10, 0, 0, 0), 8), hosting, "Paris");
    geo_.add_block(CidrBlock(IpAddress(20, 0, 0, 0), 8), eyeball, "Denver");
    dataset_.style = DatasetStyle::Pb10;
    dataset_.window_end = days(30);
  }

  /// Adds a torrent by `username` from `ip` with `downloads` downloaders.
  void add(const std::string& username, std::optional<IpAddress> ip,
           std::size_t downloads,
           ContentCategory category = ContentCategory::Movies) {
    TorrentRecord record;
    record.portal_id = static_cast<TorrentId>(dataset_.torrents.size());
    record.username = username;
    record.publisher_ip = ip;
    record.category = category;
    record.title = username + "-" + std::to_string(record.portal_id);
    dataset_.torrents.push_back(std::move(record));
    std::vector<IpAddress> ips;
    for (std::size_t i = 0; i < downloads; ++i) {
      ips.push_back(IpAddress(0x30000000u +
                              static_cast<std::uint32_t>(dataset_.torrents.size()) * 1000 +
                              static_cast<std::uint32_t>(i)));
    }
    dataset_.downloaders.push_back(std::move(ips));
    dataset_.publisher_sightings.emplace_back();
  }

  void ban(const std::string& username, bool banned = true) {
    UserPage page;
    page.username = username;
    page.banned = banned;
    dataset_.user_pages[username] = std::move(page);
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

TEST_F(GroupsTest, AggregatesByUsername) {
  add("alice", IpAddress(20, 0, 0, 1), 10);
  add("alice", IpAddress(20, 0, 0, 1), 20);
  add("bob", std::nullopt, 5);
  const IdentityAnalysis identity(view(), geo_, 10);
  ASSERT_EQ(identity.usernames().size(), 2u);
  const UsernameStats* alice = identity.find_username("alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(alice->content_count, 2u);
  EXPECT_EQ(alice->download_count, 30u);
  EXPECT_EQ(alice->ips.size(), 1u);  // deduped
  const UsernameStats* bob = identity.find_username("bob");
  ASSERT_NE(bob, nullptr);
  EXPECT_TRUE(bob->ips.empty());
  EXPECT_EQ(identity.find_username("carol"), nullptr);
  EXPECT_EQ(identity.total_content(), 3u);
  EXPECT_EQ(identity.total_downloads(), 35u);
}

TEST_F(GroupsTest, UsernamesSortedByContribution) {
  add("small", IpAddress(20, 0, 0, 1), 1);
  for (int i = 0; i < 5; ++i) add("big", IpAddress(20, 0, 0, 2), 1);
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_EQ(identity.usernames()[0].username, "big");
  EXPECT_EQ(identity.ips()[0].ip, IpAddress(20, 0, 0, 2));
}

TEST_F(GroupsTest, FakeFarmDetectedFromMultiUsernameBannedIp) {
  const IpAddress farm(10, 0, 0, 7);
  for (const char* name : {"x1", "x2", "x3", "x4"}) {
    add(name, farm, 2);
    ban(name);
  }
  add("legit", IpAddress(20, 0, 0, 1), 50);
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_TRUE(identity.fake_ips().contains(farm));
  for (const char* name : {"x1", "x2", "x3", "x4"}) {
    EXPECT_TRUE(identity.is_fake(name)) << name;
  }
  EXPECT_FALSE(identity.is_fake("legit"));
}

TEST_F(GroupsTest, FewUsernamesPerIpIsNotAFarm) {
  const IpAddress shared(20, 0, 0, 9);
  add("roomie1", shared, 2);
  add("roomie2", shared, 2);  // two usernames, nobody banned
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_FALSE(identity.fake_ips().contains(shared));
  EXPECT_FALSE(identity.is_fake("roomie1"));
}

TEST_F(GroupsTest, UnbannedMultiUserIpNotAFarm) {
  const IpAddress uni(10, 0, 0, 3);  // e.g. a university NAT
  for (const char* name : {"s1", "s2", "s3", "s4", "s5"}) add(name, uni, 1);
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_FALSE(identity.fake_ips().contains(uni));
}

TEST_F(GroupsTest, BannedUsernameIsFakeEvenWithoutIp) {
  add("ghostfake", std::nullopt, 3);
  ban("ghostfake");
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_TRUE(identity.is_fake("ghostfake"));
}

TEST_F(GroupsTest, FakeDetectionThresholdsConfigurable) {
  const IpAddress farm(10, 0, 0, 7);
  add("y1", farm, 1);
  add("y2", farm, 1);
  ban("y1");
  ban("y2");
  FakeDetectionConfig loose;
  loose.min_usernames_per_ip = 2;
  const IdentityAnalysis detects(view(), geo_, 10, loose);
  EXPECT_TRUE(detects.fake_ips().contains(farm));
  FakeDetectionConfig strict;
  strict.min_usernames_per_ip = 3;
  const IdentityAnalysis misses(view(), geo_, 10, strict);
  EXPECT_FALSE(misses.fake_ips().contains(farm));
}

TEST_F(GroupsTest, TopExcludesFakesAndCountsCompromised) {
  // Two prolific legit users, one prolific compromised account.
  for (int i = 0; i < 9; ++i) add("heavy1", IpAddress(10, 0, 0, 1), 5);
  for (int i = 0; i < 8; ++i) add("heavy2", IpAddress(20, 0, 0, 2), 5);
  for (int i = 0; i < 7; ++i) add("hacked", IpAddress(10, 0, 0, 9), 1);
  ban("hacked");
  add("tiny", IpAddress(20, 0, 0, 3), 1);
  const IdentityAnalysis identity(view(), geo_, 3);
  EXPECT_EQ(identity.top().size(), 2u);
  EXPECT_EQ(identity.compromised_in_top(), 1u);
  EXPECT_TRUE(identity.in_group("heavy1", TargetGroup::Top));
  EXPECT_FALSE(identity.in_group("hacked", TargetGroup::Top));
  EXPECT_FALSE(identity.in_group("tiny", TargetGroup::Top));
}

TEST_F(GroupsTest, TopSplitsIntoHostingAndCommercial) {
  for (int i = 0; i < 5; ++i) add("hosted", IpAddress(10, 0, 0, 1), 5);
  for (int i = 0; i < 5; ++i) add("homey", IpAddress(20, 0, 0, 1), 5);
  const IdentityAnalysis identity(view(), geo_, 5);
  EXPECT_TRUE(identity.in_group("hosted", TargetGroup::TopHP));
  EXPECT_FALSE(identity.in_group("hosted", TargetGroup::TopCI));
  EXPECT_TRUE(identity.in_group("homey", TargetGroup::TopCI));
  EXPECT_TRUE(identity.in_group("hosted", TargetGroup::All));
}

TEST_F(GroupsTest, SharesSumCorrectly) {
  const IpAddress farm(10, 0, 0, 7);
  for (const char* name : {"f1", "f2", "f3"}) {
    add(name, farm, 10);
    ban(name);
  }
  for (int i = 0; i < 6; ++i) add("star", IpAddress(10, 0, 0, 1), 20);
  add("nobody", IpAddress(20, 0, 0, 5), 1);
  const IdentityAnalysis identity(view(), geo_, 1);
  const auto fake = identity.share_of(TargetGroup::Fake);
  const auto top = identity.share_of(TargetGroup::Top);
  const auto all = identity.share_of(TargetGroup::All);
  EXPECT_NEAR(fake.content, 3.0 / 10.0, 1e-9);
  EXPECT_NEAR(fake.downloads, 30.0 / 151.0, 1e-9);
  EXPECT_NEAR(top.content, 6.0 / 10.0, 1e-9);
  EXPECT_NEAR(all.content, 1.0, 1e-9);
  EXPECT_NEAR(all.downloads, 1.0, 1e-9);
}

TEST_F(GroupsTest, TopIpBreakdownSeparatesFarms) {
  const IpAddress farm(10, 0, 0, 7);
  for (const char* name : {"z1", "z2", "z3"}) {
    add(name, farm, 1);
    ban(name);
  }
  for (int i = 0; i < 4; ++i) add("solo", IpAddress(20, 0, 0, 2), 1);
  const IdentityAnalysis identity(view(), geo_, 10);
  const auto breakdown = identity.top_ip_breakdown();
  EXPECT_EQ(breakdown.considered, 2u);
  EXPECT_EQ(breakdown.multi_username, 1u);
  EXPECT_EQ(breakdown.single_username, 1u);
}

TEST_F(GroupsTest, Mn08FallsBackToIps) {
  // Username-less dataset: torrents carry only IPs.
  TorrentRecord r;
  r.publisher_ip = IpAddress(10, 0, 0, 1);
  dataset_.torrents.push_back(r);
  dataset_.downloaders.emplace_back();
  dataset_.publisher_sightings.emplace_back();
  const IdentityAnalysis identity(view(), geo_, 10);
  EXPECT_TRUE(identity.usernames().empty());
  ASSERT_EQ(identity.ips().size(), 1u);
  EXPECT_EQ(identity.ips()[0].content_count, 1u);
}

TEST_F(GroupsTest, GroupNameRendering) {
  EXPECT_EQ(to_string(TargetGroup::TopHP), "Top-HP");
  EXPECT_EQ(to_string(TargetGroup::Fake), "Fake");
}

/// The identity tables by the definition: one scan in torrent order over
/// std::map/std::set, first-occurrence dedup, then the content-count sort.
struct ReferenceTables {
  std::vector<UsernameStats> usernames;
  std::vector<IpStats> ips;
  std::set<std::string> fake_usernames;
  std::set<IpAddress> fake_ips;
  std::vector<std::string> top;
  std::set<std::string> top_hp, top_ci;
  std::size_t compromised_in_top = 0;

  ReferenceTables(const Dataset& d, const GeoDb& geo, std::size_t top_n,
                  const FakeDetectionConfig& config) {
    std::map<std::string, UsernameStats> by_name;
    std::map<IpAddress, IpStats> by_ip;
    for (std::size_t t = 0; t < d.torrents.size(); ++t) {
      const TorrentRecord& r = d.torrents[t];
      if (!r.username.empty()) {
        UsernameStats& u = by_name[r.username];
        u.username = r.username;
        const auto page = d.user_pages.find(r.username);
        u.banned = page != d.user_pages.end() && page->second.banned;
        u.torrents.push_back(t);
        ++u.content_count;
        u.download_count += d.downloaders[t].size();
        if (r.publisher_ip &&
            std::find(u.ips.begin(), u.ips.end(), *r.publisher_ip) == u.ips.end()) {
          u.ips.push_back(*r.publisher_ip);
        }
      }
      if (r.publisher_ip) {
        IpStats& s = by_ip[*r.publisher_ip];
        s.ip = *r.publisher_ip;
        s.torrents.push_back(t);
        ++s.content_count;
        if (!r.username.empty() && std::find(s.usernames.begin(), s.usernames.end(),
                                             r.username) == s.usernames.end()) {
          s.usernames.push_back(r.username);
        }
      }
    }
    const auto by_content = [](const auto& a, const auto& b) {
      if (a.content_count != b.content_count) return a.content_count > b.content_count;
      return a.torrents.front() < b.torrents.front();
    };
    for (auto& [name, u] : by_name) usernames.push_back(u);
    for (auto& [ip, s] : by_ip) {
      for (const std::string& name : s.usernames) s.banned_usernames += by_name[name].banned;
      ips.push_back(s);
    }
    std::sort(usernames.begin(), usernames.end(), by_content);
    std::sort(ips.begin(), ips.end(), by_content);

    for (const IpStats& s : ips) {
      if (s.usernames.size() < config.min_usernames_per_ip ||
          static_cast<double>(s.banned_usernames) / static_cast<double>(s.usernames.size()) <
              config.min_banned_fraction) {
        continue;
      }
      fake_ips.insert(s.ip);
      fake_usernames.insert(s.usernames.begin(), s.usernames.end());
    }
    for (const UsernameStats& u : usernames) {
      if (u.banned) fake_usernames.insert(u.username);
    }
    for (std::size_t i = 0; i < std::min(top_n, usernames.size()); ++i) {
      const UsernameStats& u = usernames[i];
      if (fake_usernames.contains(u.username)) {
        ++compromised_in_top;
        continue;
      }
      top.push_back(u.username);
      std::size_t hosting = 0, located = 0;
      for (const IpAddress& ip : u.ips) {
        const auto loc = geo.lookup(ip);
        located += loc.has_value();
        hosting += loc && loc->isp_type == IspType::HostingProvider;
      }
      (located > 0 && 2 * hosting >= located ? top_hp : top_ci).insert(u.username);
    }
  }
};

void expect_matches(const IdentityAnalysis& got, const ReferenceTables& want,
                    const std::string& where) {
  ASSERT_EQ(got.usernames().size(), want.usernames.size()) << where;
  for (std::size_t i = 0; i < want.usernames.size(); ++i) {
    const UsernameStats& g = got.usernames()[i];
    const UsernameStats& w = want.usernames[i];
    EXPECT_EQ(g.username, w.username) << where << " row " << i;
    EXPECT_EQ(g.torrents, w.torrents) << where << " " << w.username;
    EXPECT_EQ(g.content_count, w.content_count) << where << " " << w.username;
    EXPECT_EQ(g.download_count, w.download_count) << where << " " << w.username;
    EXPECT_EQ(g.ips, w.ips) << where << " " << w.username;
    EXPECT_EQ(g.banned, w.banned) << where << " " << w.username;
    EXPECT_EQ(got.find_username(w.username), &g) << where << " " << w.username;
  }
  ASSERT_EQ(got.ips().size(), want.ips.size()) << where;
  for (std::size_t i = 0; i < want.ips.size(); ++i) {
    const IpStats& g = got.ips()[i];
    const IpStats& w = want.ips[i];
    EXPECT_EQ(g.ip, w.ip) << where << " row " << i;
    EXPECT_EQ(g.torrents, w.torrents) << where << " ip row " << i;
    EXPECT_EQ(g.content_count, w.content_count) << where << " ip row " << i;
    EXPECT_EQ(g.usernames, w.usernames) << where << " ip row " << i;
    EXPECT_EQ(g.banned_usernames, w.banned_usernames) << where << " ip row " << i;
  }
  EXPECT_EQ(std::set<std::string>(got.fake_usernames().begin(), got.fake_usernames().end()),
            want.fake_usernames) << where;
  EXPECT_EQ(std::set<IpAddress>(got.fake_ips().begin(), got.fake_ips().end()), want.fake_ips)
      << where;
  EXPECT_EQ(got.top(), want.top) << where;
  EXPECT_EQ(got.compromised_in_top(), want.compromised_in_top) << where;
  EXPECT_EQ(std::set<std::string>(got.top_hp().begin(), got.top_hp().end()), want.top_hp)
      << where;
  EXPECT_EQ(std::set<std::string>(got.top_ci().begin(), got.top_ci().end()), want.top_ci)
      << where;
  for (const UsernameStats& u : want.usernames) {
    EXPECT_EQ(got.is_fake(u.username), want.fake_usernames.contains(u.username)) << where;
    EXPECT_EQ(got.in_group(u.username, TargetGroup::Top),
              std::find(want.top.begin(), want.top.end(), u.username) != want.top.end())
        << where;
    EXPECT_EQ(got.in_group(u.username, TargetGroup::TopHP), want.top_hp.contains(u.username))
        << where;
    EXPECT_TRUE(got.in_group(u.username, TargetGroup::All)) << where;
  }
  EXPECT_FALSE(got.in_group("no-such-user", TargetGroup::All)) << where;
}

TEST_F(GroupsTest, MatchesBruteForceReferenceOnRandomWorlds) {
  std::size_t fake_ips = 0, compromised = 0, hosted = 0, commercial = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    dataset_ = Dataset{};
    Rng rng(seed);
    // Small pools: one IP under many usernames, usernames repeating an IP,
    // ties in content count. Empty usernames and usernames without a page
    // both occur; some pages belong to names that never publish.
    const std::size_t users = static_cast<std::size_t>(rng.uniform_int(3, 40));
    const std::size_t ips = static_cast<std::size_t>(rng.uniform_int(1, 30));
    const std::size_t torrents = static_cast<std::size_t>(rng.uniform_int(50, 600));
    for (std::size_t t = 0; t < torrents; ++t) {
      const std::size_t u = static_cast<std::size_t>(rng.uniform_int(0, users));
      const std::string name = u == users ? "" : "u" + std::to_string(u * 7919 % 1000);
      std::optional<IpAddress> ip;
      if (rng.chance(0.7)) {
        const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(ips)));
        ip = IpAddress((k % 3 == 0 ? 0x0a000000u : k % 3 == 1 ? 0x14000000u : 0x1e000000u) + k);
      }
      add(name, ip, static_cast<std::size_t>(rng.uniform_int(0, 4)));
    }
    for (std::size_t u = 0; u < users + 5; ++u) {
      if (rng.chance(0.6)) ban("u" + std::to_string(u * 7919 % 1000), rng.chance(0.5));
    }
    const FakeDetectionConfig config{2, 0.5};
    const std::size_t top_n = static_cast<std::size_t>(rng.uniform_int(1, 15));
    const ReferenceTables want(dataset_, geo_, top_n, config);
    fake_ips += want.fake_ips.size();
    compromised += want.compromised_in_top;
    hosted += want.top_hp.size();
    commercial += want.top_ci.size();
    const CompactDatasetView v = view();
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
      const IdentityAnalysis got(v, geo_, top_n, config, threads);
      expect_matches(got, want,
                     "seed " + std::to_string(seed) + " threads " + std::to_string(threads));
    }
  }
  // The worlds reach every branch of the fake rule and the HP/CI split.
  EXPECT_GT(fake_ips, 0u);
  EXPECT_GT(compromised, 0u);
  EXPECT_GT(hosted, 0u);
  EXPECT_GT(commercial, 0u);
}

}  // namespace
}  // namespace btpub
