#include "analysis/groups.hpp"

#include <algorithm>
#include <cassert>

#include "util/parallel.hpp"

namespace btpub {

std::string_view to_string(TargetGroup g) {
  switch (g) {
    case TargetGroup::All:
      return "All";
    case TargetGroup::Fake:
      return "Fake";
    case TargetGroup::Top:
      return "Top";
    case TargetGroup::TopHP:
      return "Top-HP";
    case TargetGroup::TopCI:
      return "Top-CI";
  }
  return "?";
}

IdentityAnalysis::IdentityAnalysis(const CompactDatasetView& view,
                                   const GeoDb& geo, std::size_t top_n,
                                   FakeDetectionConfig fake_config,
                                   std::size_t threads)
    : geo_(&geo), top_n_(top_n) {
  build_tables(view, threads);
  detect_fakes(fake_config);
  build_top(geo, top_n);
}

struct IdentityAnalysis::ShardTables {
  std::vector<UsernameStats> usernames;  // shard-local first-occurrence order
  std::vector<IpStats> ips;
  std::size_t total_content = 0;
  std::size_t total_downloads = 0;
};

struct IdentityAnalysis::MergeState {
  std::unordered_map<std::string, std::size_t> username_index;  // -> usernames_
  std::unordered_map<IpAddress, std::size_t> ip_index;          // -> ips_
  // Cross-shard (username, ip) / (ip, username) pair dedup, mirroring the
  // serial scan's global sets.
  std::unordered_map<std::string, std::unordered_set<std::uint32_t>> user_ips;
  std::unordered_map<IpAddress, std::unordered_set<std::string>> ip_users;
};

void IdentityAnalysis::build_tables(const CompactDatasetView& view,
                                    std::size_t threads) {
  // Each shard scans a contiguous torrent span with exactly the serial
  // algorithm (per-shard first-occurrence dedup), and shards merge back in
  // span order. A key's global first occurrence lies in the earliest shard
  // that saw it, and within a shard the local first-occurrence order is the
  // index order — so the merged tables list usernames, IPs, torrent indices
  // and deduped cross-references in exactly the serial scan's order, at any
  // thread count (including shard-count 1, which *is* the serial path).
  auto shards = sharded_scan(
      view.torrents.size(), threads, [&view](std::size_t begin, std::size_t end) {
        ShardTables shard;
        std::unordered_map<std::string_view, std::size_t> uindex;
        std::unordered_map<IpAddress, std::size_t> ipindex;
        std::unordered_map<std::string_view, std::unordered_set<std::uint32_t>>
            user_ips;
        std::unordered_map<IpAddress, std::unordered_set<std::string_view>>
            ip_users;
        for (std::size_t i = begin; i < end; ++i) {
          const TorrentRecordPod& pod = view.torrents[i];
          // The username points into the view's text arena, stable for
          // the scan's lifetime.
          const std::string_view username = view.username(pod);
          const std::size_t downloads = view.downloader_count(pod);
          const bool has_ip = (pod.flags & TorrentRecordPod::kHasPublisherIp) != 0;
          ++shard.total_content;
          shard.total_downloads += downloads;

          if (!username.empty()) {
            auto [it, inserted] = uindex.try_emplace(username, shard.usernames.size());
            if (inserted) {
              UsernameStats stats;
              stats.username = std::string(username);
              const UserPagePod* page = view.find_user(username);
              stats.banned = page != nullptr && (page->flags & UserPagePod::kBanned) != 0;
              shard.usernames.push_back(std::move(stats));
            }
            UsernameStats& stats = shard.usernames[it->second];
            stats.torrents.push_back(i);
            ++stats.content_count;
            stats.download_count += downloads;
            if (has_ip && user_ips[username].insert(pod.publisher_ip).second) {
              stats.ips.emplace_back(pod.publisher_ip);
            }
          }

          if (has_ip) {
            const IpAddress ip(pod.publisher_ip);
            auto [it, inserted] = ipindex.try_emplace(ip, shard.ips.size());
            if (inserted) {
              IpStats stats;
              stats.ip = ip;
              shard.ips.push_back(std::move(stats));
            }
            IpStats& stats = shard.ips[it->second];
            stats.torrents.push_back(i);
            ++stats.content_count;
            if (!username.empty() && ip_users[ip].insert(username).second) {
              stats.usernames.emplace_back(username);
            }
          }
        }
        return shard;
      });

  MergeState state;
  for (ShardTables& shard : shards) merge_shard(std::move(shard), state);
  finish_tables();
}

void IdentityAnalysis::merge_shard(ShardTables&& shard, MergeState& state) {
  total_content_ += shard.total_content;
  total_downloads_ += shard.total_downloads;

  for (UsernameStats& s : shard.usernames) {
    const auto it = state.username_index.find(s.username);
    if (it == state.username_index.end()) {
      auto& seen = state.user_ips[s.username];
      for (const IpAddress& ip : s.ips) seen.insert(ip.value());
      state.username_index.emplace(s.username, usernames_.size());
      usernames_.push_back(std::move(s));
      continue;
    }
    UsernameStats& global = usernames_[it->second];
    global.torrents.insert(global.torrents.end(), s.torrents.begin(),
                           s.torrents.end());
    global.content_count += s.content_count;
    global.download_count += s.download_count;
    auto& seen = state.user_ips[global.username];
    for (const IpAddress& ip : s.ips) {
      if (seen.insert(ip.value()).second) global.ips.push_back(ip);
    }
  }

  for (IpStats& s : shard.ips) {
    const auto it = state.ip_index.find(s.ip);
    if (it == state.ip_index.end()) {
      auto& seen = state.ip_users[s.ip];
      for (const std::string& name : s.usernames) seen.insert(name);
      state.ip_index.emplace(s.ip, ips_.size());
      ips_.push_back(std::move(s));
      continue;
    }
    IpStats& global = ips_[it->second];
    global.torrents.insert(global.torrents.end(), s.torrents.begin(),
                           s.torrents.end());
    global.content_count += s.content_count;
    auto& seen = state.ip_users[s.ip];
    for (std::string& name : s.usernames) {
      if (seen.insert(name).second) global.usernames.push_back(std::move(name));
    }
  }
}

void IdentityAnalysis::finish_tables() {
  // Moderation bans arrive after a username's torrents; count them per IP.
  std::unordered_map<std::string_view, bool> banned;
  banned.reserve(usernames_.size());
  for (const UsernameStats& stats : usernames_) {
    banned.emplace(stats.username, stats.banned);
  }
  for (IpStats& stats : ips_) {
    for (const std::string& name : stats.usernames) {
      const auto it = banned.find(name);
      if (it != banned.end() && it->second) ++stats.banned_usernames;
    }
  }

  auto by_content_desc = [](const auto& a, const auto& b) {
    if (a.content_count != b.content_count) return a.content_count > b.content_count;
    // torrents.front() — the key's first torrent index — is unique per
    // entry, so this is a total order and the sort is deterministic.
    return a.torrents.front() < b.torrents.front();
  };
  std::sort(usernames_.begin(), usernames_.end(), by_content_desc);
  std::sort(ips_.begin(), ips_.end(), by_content_desc);
  username_index_.clear();
  for (std::size_t i = 0; i < usernames_.size(); ++i) {
    username_index_.emplace(usernames_[i].username, i);
  }
}

void IdentityAnalysis::detect_fakes(const FakeDetectionConfig& config) {
  for (const IpStats& stats : ips_) {
    if (stats.usernames.size() < config.min_usernames_per_ip) continue;
    const double banned_fraction =
        static_cast<double>(stats.banned_usernames) /
        static_cast<double>(stats.usernames.size());
    if (banned_fraction < config.min_banned_fraction) continue;
    fake_ips_.insert(stats.ip);
    for (const std::string& name : stats.usernames) {
      fake_usernames_.insert(name);
    }
  }
  // A banned username is a fake publisher even when its farm IP was never
  // identified (footnote 3: the ban is the portal's fake signal).
  for (const UsernameStats& stats : usernames_) {
    if (stats.banned) fake_usernames_.insert(stats.username);
  }
}

void IdentityAnalysis::build_top(const GeoDb& geo, std::size_t top_n) {
  const std::size_t cut = std::min(top_n, usernames_.size());
  for (std::size_t i = 0; i < cut; ++i) {
    const UsernameStats& stats = usernames_[i];
    if (fake_usernames_.contains(stats.username)) {
      ++compromised_in_top_;
      continue;
    }
    top_.push_back(stats.username);
    top_set_.insert(stats.username);
    // Hosting vs commercial: majority ISP type over identified IPs.
    std::size_t hosting = 0, commercial = 0;
    for (const IpAddress& ip : stats.ips) {
      const auto loc = geo.lookup(ip);
      if (!loc) continue;
      if (loc->isp_type == IspType::HostingProvider) {
        ++hosting;
      } else {
        ++commercial;
      }
    }
    if (hosting == 0 && commercial == 0) {
      // No identified IP: indistinguishable; the paper's HP/CI break-down
      // only covers publishers with located addresses. Default to CI (a
      // hosted box would have been reachable and identified).
      top_ci_.insert(stats.username);
    } else if (hosting >= commercial) {
      top_hp_.insert(stats.username);
    } else {
      top_ci_.insert(stats.username);
    }
  }
}

const UsernameStats* IdentityAnalysis::find_username(std::string_view name) const {
  const auto it = username_index_.find(std::string(name));
  return it == username_index_.end() ? nullptr : &usernames_[it->second];
}

bool IdentityAnalysis::is_fake(std::string_view username) const {
  return fake_usernames_.contains(std::string(username));
}

bool IdentityAnalysis::in_group(std::string_view username, TargetGroup g) const {
  const std::string name(username);
  switch (g) {
    case TargetGroup::All:
      return username_index_.contains(name);
    case TargetGroup::Fake:
      return fake_usernames_.contains(name);
    case TargetGroup::Top:
      return top_set_.contains(name);
    case TargetGroup::TopHP:
      return top_hp_.contains(name);
    case TargetGroup::TopCI:
      return top_ci_.contains(name);
  }
  return false;
}

std::vector<const UsernameStats*> IdentityAnalysis::members(TargetGroup g) const {
  std::vector<const UsernameStats*> out;
  for (const UsernameStats& stats : usernames_) {
    if (in_group(stats.username, g)) out.push_back(&stats);
  }
  return out;
}

IdentityAnalysis::TopIpBreakdown IdentityAnalysis::top_ip_breakdown() const {
  TopIpBreakdown breakdown;
  breakdown.considered = std::min(top_n_, ips_.size());
  for (std::size_t i = 0; i < breakdown.considered; ++i) {
    if (ips_[i].usernames.size() > 1) {
      ++breakdown.multi_username;
    } else {
      ++breakdown.single_username;
    }
  }
  return breakdown;
}

IdentityAnalysis::Share IdentityAnalysis::share_of(TargetGroup g) const {
  Share share;
  if (total_content_ == 0) return share;
  std::size_t content = 0, downloads = 0;
  for (const UsernameStats* stats : members(g)) {
    content += stats->content_count;
    downloads += stats->download_count;
  }
  share.content = static_cast<double>(content) / static_cast<double>(total_content_);
  share.downloads = total_downloads_ == 0
                        ? 0.0
                        : static_cast<double>(downloads) /
                              static_cast<double>(total_downloads_);
  return share;
}

}  // namespace btpub
