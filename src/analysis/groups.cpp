#include "analysis/groups.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

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

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kNoIp = std::numeric_limits<std::uint64_t>::max();

constexpr std::uint8_t bit(TargetGroup g) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(g));
}

/// [begin, end) positions of one group in a sorted array.
struct Run {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The runs of equal `key(item)` in `items`, which is sorted by that key.
template <typename Item, typename Key>
std::vector<Run> runs_of(const std::vector<Item>& items, Key key) {
  std::vector<Run> runs;
  for (std::size_t begin = 0; begin < items.size();) {
    std::size_t end = begin + 1;
    while (end < items.size() && key(items[end]) == key(items[begin])) ++end;
    runs.push_back({begin, end});
    begin = end;
  }
  return runs;
}

/// The table order of the runs as (sort key, run) pairs: content count
/// descending, then the first torrent index `first(r)`, which no two runs
/// share, so the order is total.
template <typename First>
std::vector<std::pair<std::uint64_t, std::uint32_t>> content_desc_order(
    const std::vector<Run>& runs, First first) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order(runs.size());
  for (std::uint32_t r = 0; r < runs.size(); ++r) {
    order[r] = {std::uint64_t{kNone - (runs[r].end - runs[r].begin)} << 32 | first(r), r};
  }
  std::sort(order.begin(), order.end());
  return order;
}

/// Each key is (value << 32 | position). Keeps, for every distinct value,
/// the key with its lowest position, and leaves those keys in position
/// order: a first-occurrence dedup in O(k log k).
void keep_first_occurrences(std::vector<std::uint64_t>& keys) {
  std::sort(keys.begin(), keys.end());
  const auto same_value = [](auto a, auto b) { return a >> 32 == b >> 32; };
  keys.erase(std::unique(keys.begin(), keys.end(), same_value), keys.end());
  std::sort(keys.begin(), keys.end(), [](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint32_t>(a) < static_cast<std::uint32_t>(b);
  });
}

}  // namespace

IdentityAnalysis::IdentityAnalysis(const CompactDatasetView& view,
                                   const GeoDb& geo, std::size_t top_n,
                                   FakeDetectionConfig fake_config,
                                   std::size_t threads)
    : top_n_(top_n) {
  build_tables(view, threads);
  detect_fakes(fake_config);
  build_top(geo, top_n);
}

void IdentityAnalysis::build_tables(const CompactDatasetView& view,
                                    std::size_t threads) {
  const std::size_t n = view.torrents.size();
  if (n >= kNone) throw std::length_error("identity: too many torrents");

  // The checked accessors, once per torrent: a hostile row throws here.
  // The usernames point into the view's text arena; each publisher IP is
  // kept as the key (ip << 32 | index).
  std::vector<std::pair<std::string_view, std::uint32_t>> by_name(n);
  std::vector<std::uint32_t> downloads(n);
  std::vector<std::uint64_t> ip_keys(n);
  parallel_for_each_index(n, threads, [&](std::size_t i) {
    const TorrentRecordPod& pod = view.torrents[i];
    by_name[i] = {view.username(pod), static_cast<std::uint32_t>(i)};
    downloads[i] = view.downloader_count(pod);
    ip_keys[i] = (pod.flags & TorrentRecordPod::kHasPublisherIp) != 0
                     ? std::uint64_t{pod.publisher_ip} << 32 | i
                     : kNoIp;
  });
  total_content_ = n;
  for (const std::uint32_t d : downloads) total_downloads_ += d;

  // Username rows: torrents sorted by (username, index), one run per
  // username. by_name_ takes each run, in username order, to its row.
  std::erase_if(by_name, [](const auto& e) { return e.first.empty(); });
  std::sort(by_name.begin(), by_name.end());
  const std::vector<Run> name_runs =
      runs_of(by_name, [](const auto& e) { return e.first; });
  const auto user_order = content_desc_order(
      name_runs, [&](std::size_t r) { return by_name[name_runs[r].begin].second; });
  by_name_.resize(name_runs.size());
  usernames_.resize(name_runs.size());
  std::vector<std::uint32_t> row_of_torrent(n, kNone);  // its username row
  parallel_for_each_index(usernames_.size(), threads, [&](std::size_t row) {
    const Run run = name_runs[user_order[row].second];
    by_name_[user_order[row].second] = static_cast<std::uint32_t>(row);
    UsernameStats& stats = usernames_[row];
    stats.username = std::string(by_name[run.begin].first);
    const UserPagePod* page = view.find_user(stats.username);
    stats.banned = page != nullptr && (page->flags & UserPagePod::kBanned) != 0;
    stats.content_count = run.end - run.begin;
    std::vector<std::uint64_t> keys;
    for (std::size_t k = run.begin; k < run.end; ++k) {
      const std::uint32_t t = by_name[k].second;
      stats.torrents.push_back(t);
      row_of_torrent[t] = static_cast<std::uint32_t>(row);
      stats.download_count += downloads[t];
      if (ip_keys[t] != kNoIp) keys.push_back(ip_keys[t]);
    }
    keep_first_occurrences(keys);
    for (const std::uint64_t k : keys) {
      stats.ips.emplace_back(static_cast<std::uint32_t>(k >> 32));
    }
  });

  // IP rows: the sorted (ip << 32 | index) keys, one run per IP. Usernames
  // dedup by row, in torrent order.
  std::erase(ip_keys, kNoIp);
  std::sort(ip_keys.begin(), ip_keys.end());
  const std::vector<Run> ip_runs =
      runs_of(ip_keys, [](std::uint64_t key) { return key >> 32; });
  const auto ip_order = content_desc_order(ip_runs, [&](std::size_t r) {
    return static_cast<std::uint32_t>(ip_keys[ip_runs[r].begin]);
  });
  ips_.resize(ip_runs.size());
  parallel_for_each_index(ips_.size(), threads, [&](std::size_t row) {
    const Run run = ip_runs[ip_order[row].second];
    IpStats& stats = ips_[row];
    stats.ip = IpAddress(static_cast<std::uint32_t>(ip_keys[run.begin] >> 32));
    stats.content_count = run.end - run.begin;
    std::vector<std::uint64_t> keys;
    for (std::size_t k = run.begin; k < run.end; ++k) {
      const auto t = static_cast<std::uint32_t>(ip_keys[k]);
      stats.torrents.push_back(t);
      const std::uint32_t user_row = row_of_torrent[t];
      if (user_row != kNone) keys.push_back(std::uint64_t{user_row} << 32 | t);
    }
    keep_first_occurrences(keys);
    for (const std::uint64_t k : keys) {
      const UsernameStats& user = usernames_[k >> 32];
      stats.usernames.push_back(user.username);
      if (user.banned) ++stats.banned_usernames;
    }
  });
  group_bits_.assign(usernames_.size(), bit(TargetGroup::All));
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
      group_bits_[find_username(name) - usernames_.data()] |= bit(TargetGroup::Fake);
    }
  }
  // A banned username is a fake publisher even when its farm IP was never
  // identified (footnote 3: the ban is the portal's fake signal).
  for (std::size_t i = 0; i < usernames_.size(); ++i) {
    if (usernames_[i].banned) group_bits_[i] |= bit(TargetGroup::Fake);
    if ((group_bits_[i] & bit(TargetGroup::Fake)) != 0) {
      fake_usernames_.insert(usernames_[i].username);
    }
  }
}

void IdentityAnalysis::build_top(const GeoDb& geo, std::size_t top_n) {
  const std::size_t cut = std::min(top_n, usernames_.size());
  for (std::size_t i = 0; i < cut; ++i) {
    const UsernameStats& stats = usernames_[i];
    if ((group_bits_[i] & bit(TargetGroup::Fake)) != 0) {
      ++compromised_in_top_;
      continue;
    }
    top_.push_back(stats.username);
    group_bits_[i] |= bit(TargetGroup::Top);
    // Hosting vs commercial: majority ISP type over identified IPs.
    std::size_t hosting = 0, commercial = 0;
    for (const IpAddress& ip : stats.ips) {
      const auto loc = geo.lookup(ip);
      if (loc) ++(loc->isp_type == IspType::HostingProvider ? hosting : commercial);
    }
    // No identified IP: indistinguishable; the paper's HP/CI break-down
    // only covers publishers with located addresses. Default to CI (a
    // hosted box would have been reachable and identified).
    const bool hosted = (hosting != 0 || commercial != 0) && hosting >= commercial;
    (hosted ? top_hp_ : top_ci_).insert(stats.username);
    group_bits_[i] |= bit(hosted ? TargetGroup::TopHP : TargetGroup::TopCI);
  }
}

const UsernameStats* IdentityAnalysis::find_username(std::string_view name) const {
  const auto it = std::partition_point(
      by_name_.begin(), by_name_.end(),
      [&](std::uint32_t i) { return usernames_[i].username < name; });
  return it != by_name_.end() && usernames_[*it].username == name ? &usernames_[*it]
                                                                   : nullptr;
}

bool IdentityAnalysis::in_group(std::string_view username, TargetGroup g) const {
  const UsernameStats* stats = find_username(username);
  return stats != nullptr && (group_bits_[stats - usernames_.data()] & bit(g)) != 0;
}

std::vector<const UsernameStats*> IdentityAnalysis::members(TargetGroup g) const {
  std::vector<const UsernameStats*> out;
  for (std::size_t i = 0; i < usernames_.size(); ++i) {
    if ((group_bits_[i] & bit(g)) != 0) out.push_back(&usernames_[i]);
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
  for (std::size_t i = 0; i < usernames_.size(); ++i) {
    if ((group_bits_[i] & bit(g)) == 0) continue;
    content += usernames_[i].content_count;
    downloads += usernames_[i].download_count;
  }
  share.content = static_cast<double>(content) / static_cast<double>(total_content_);
  share.downloads = total_downloads_ == 0
                        ? 0.0
                        : static_cast<double>(downloads) /
                              static_cast<double>(total_downloads_);
  return share;
}

}  // namespace btpub
