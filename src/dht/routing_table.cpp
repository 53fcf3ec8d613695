#include "dht/routing_table.hpp"

#include <algorithm>

namespace btpub::dht {

void RoutingTable::observe(const NodeId& id, const Endpoint& endpoint,
                           SimTime now) {
  const int bit = distance_bit(distance(self_, id));
  if (bit < 0) return;  // own id
  Bucket& bucket = buckets_[static_cast<std::size_t>(bit)];

  const auto it = std::find_if(bucket.begin(), bucket.end(),
                               [&](const Contact& c) { return c.id == id; });
  if (it != bucket.end()) {
    // Refresh: move to the most-recently-seen end, keeping the rest in
    // last-seen order.
    Contact refreshed = *it;
    refreshed.endpoint = endpoint;
    refreshed.last_seen = now;
    bucket.erase(it);
    bucket.push_back(refreshed);
    return;
  }
  if (bucket.size() < kBucketSize) {
    bucket.push_back(Contact{id, endpoint, now});
    return;
  }
  // Full: the least-recently-seen contact sits at the front. Evict it only
  // when stale; otherwise the newcomer loses.
  if (now - bucket.front().last_seen > kStaleAfter) {
    bucket.erase(bucket.begin());
    bucket.push_back(Contact{id, endpoint, now});
  }
}

void RoutingTable::remove(const NodeId& id) {
  const int bit = distance_bit(distance(self_, id));
  if (bit < 0) return;
  Bucket& bucket = buckets_[static_cast<std::size_t>(bit)];
  const auto it = std::find_if(bucket.begin(), bucket.end(),
                               [&](const Contact& c) { return c.id == id; });
  if (it != bucket.end()) bucket.erase(it);
}

void RoutingTable::closest(const NodeId& target, std::size_t k,
                           std::vector<Contact>& out) const {
  // Buckets come in a fixed distance order from `target`. With j the
  // target's own bucket, every contact of bucket j is closer than any
  // other (their distance to the target is below 2^j); buckets 0..j-1 come
  // next, together (their distances all have top bit j); then buckets
  // j+1, j+2, ... one by one (top bit i for bucket i). Gathering groups in
  // that order until k contacts are in hand, then selecting the k closest
  // of those, gives exactly the k closest of the whole table. Ids in a
  // table are unique, so XOR distances are too and the order is total.
  out.clear();
  const int j = distance_bit(distance(self_, target));
  const auto gather = [&](int from, int to) {  // buckets [from, to)
    for (int i = from; i < to; ++i) {
      const Bucket& bucket = buckets_[static_cast<std::size_t>(i)];
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
  };
  if (j >= 0) {
    gather(j, j + 1);
    if (out.size() < k) gather(0, j);
  }
  for (int i = j + 1; i < 160 && out.size() < k; ++i) gather(i, i + 1);

  const std::size_t n = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n),
                    out.end(), [&](const Contact& a, const Contact& b) {
                      return closer(a.id, b.id, target);
                    });
  out.resize(n);
}

std::size_t RoutingTable::size() const noexcept {
  std::size_t n = 0;
  for (const Bucket& bucket : buckets_) n += bucket.size();
  return n;
}

bool RoutingTable::contains(const NodeId& id) const {
  const int bit = distance_bit(distance(self_, id));
  if (bit < 0) return false;
  const Bucket& bucket = buckets_[static_cast<std::size_t>(bit)];
  return std::any_of(bucket.begin(), bucket.end(),
                     [&](const Contact& c) { return c.id == id; });
}

std::size_t RoutingTable::active_buckets() const noexcept {
  std::size_t n = 0;
  for (const Bucket& bucket : buckets_) n += bucket.empty() ? 0 : 1;
  return n;
}

}  // namespace btpub::dht
