#include "crawler/dataset.hpp"

#include "util/distinct.hpp"

namespace btpub {

std::string_view to_string(DatasetStyle style) {
  switch (style) {
    case DatasetStyle::Mn08:
      return "mn08";
    case DatasetStyle::Pb09:
      return "pb09";
    case DatasetStyle::Pb10:
      return "pb10";
  }
  return "?";
}

std::size_t Dataset::with_username() const {
  std::size_t n = 0;
  for (const TorrentRecord& t : torrents) {
    if (!t.username.empty()) ++n;
  }
  return n;
}

std::size_t Dataset::with_publisher_ip() const {
  std::size_t n = 0;
  for (const TorrentRecord& t : torrents) {
    if (t.publisher_ip.has_value()) ++n;
  }
  return n;
}

std::size_t Dataset::distinct_ips_global() const {
  return gather_distinct_u32(
             downloaders.size(), 1,
             [this](std::size_t t) { return downloaders[t].size(); },
             [this](std::size_t t, std::uint32_t* out) {
               for (const IpAddress& ip : downloaders[t]) *out++ = ip.value();
             })
      .size();
}

std::size_t Dataset::ip_observations_total() const {
  std::size_t n = 0;
  for (const auto& torrent_ips : downloaders) n += torrent_ips.size();
  return n;
}

}  // namespace btpub
