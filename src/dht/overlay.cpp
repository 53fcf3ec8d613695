#include "dht/overlay.hpp"

#include <algorithm>
#include <bit>

namespace btpub::dht {
namespace {

/// The router lives beside the crawler vantages in measurement space,
/// outside the simulated Internet's GeoIP blocks.
constexpr Endpoint kRouterEndpoint{IpAddress(10, 99, 0, 1), 6881};

}  // namespace

DhtOverlay::DhtOverlay(std::uint64_t seed)
    : seed_(seed), router_endpoint_(kRouterEndpoint) {
  auto router = std::make_unique<DhtNode>(
      NodeId::for_endpoint(seed_, router_endpoint_), router_endpoint_,
      derive_seed(seed_, 0xB007));
  nodes_.emplace(router_endpoint_, std::move(router));
  // The one closure of the scheduled overlay life: every join, departure
  // and (lazily re-armed) periodic announce arrives as a POD TypedEvent.
  events_.set_typed_handler([this](const TypedEvent& event, SimTime at) {
    switch (event.kind) {
      case TypedEvent::Kind::NodeJoin:
        add_node(event.endpoint, at);
        break;
      case TypedEvent::Kind::NodeLeave:
        remove_node(event.endpoint);
        break;
      case TypedEvent::Kind::Announce:
        announce_peer(event.infohash, event.endpoint, at);
        break;
    }
  });
}

std::string DhtOverlay::next_transaction_id() {
  const std::uint64_t n = next_transaction_++;
  std::string id(2, '\0');
  id[0] = static_cast<char>((n >> 8) & 0xff);
  id[1] = static_cast<char>(n & 0xff);
  return id;
}

NodeId DhtOverlay::add_node(const Endpoint& endpoint, SimTime now) {
  const NodeId id = NodeId::for_endpoint(seed_, endpoint);
  auto it = nodes_.find(endpoint);
  if (it == nodes_.end()) {
    it = nodes_
             .emplace(endpoint,
                      std::make_unique<DhtNode>(
                          id, endpoint,
                          derive_seed(seed_, id.bytes[0], id.bytes[19],
                                      endpoint.ip.value())))
             .first;
  }
  // Join (or refresh): walk towards the own id through the router. The
  // traffic simultaneously fills this node's table and advertises it to
  // every node on the path.
  iterative_find_node(*it->second, id, now);
  return id;
}

void DhtOverlay::remove_node(const Endpoint& endpoint) {
  if (endpoint == router_endpoint_) return;  // the router never departs
  nodes_.erase(endpoint);
}

bool DhtOverlay::is_node(const Endpoint& endpoint) const {
  return nodes_.contains(endpoint);
}

DhtNode* DhtOverlay::node_at(const Endpoint& endpoint) {
  const auto it = nodes_.find(endpoint);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const std::string* DhtOverlay::send(const Endpoint& to,
                                    std::string_view datagram,
                                    const Endpoint& from, SimTime now) {
  const auto it = nodes_.find(to);
  if (it == nodes_.end()) return nullptr;  // lost: timeout
  ++datagrams_;
  return &it->second->handle(datagram, from, now);
}

// ---- walk state -------------------------------------------------------------

bool DhtOverlay::EndpointSet::insert(const Endpoint& endpoint) {
  if ((size_ + 1) * 2 > slots_.size()) grow();
  // +1 keeps every packed key nonzero, so 0 can mark an empty slot.
  const std::uint64_t key =
      ((std::uint64_t{endpoint.ip.value()} << 16) | endpoint.port) + 1;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;; i = (i + 1) & mask) {
    if (slots_[i] == key) return false;
    if (slots_[i] == 0) {
      slots_[i] = key;
      ++size_;
      return true;
    }
  }
}

void DhtOverlay::EndpointSet::clear() {
  if (size_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), 0);
  size_ = 0;
}

void DhtOverlay::EndpointSet::grow() {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(64, old.size() * 2), 0);
  shift_ = 64 - std::countr_zero(slots_.size());
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t key : old) {
    if (key == 0) continue;
    std::size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = key;
  }
}

void DhtOverlay::reset_candidates() {
  candidates_.clear();
  known_endpoints_.clear();
}

void DhtOverlay::add_candidate(const Endpoint& endpoint, const NodeId* id,
                               const Endpoint& self) {
  if (endpoint == self) return;
  if (!known_endpoints_.insert(endpoint)) return;
  Candidate c;
  c.endpoint = endpoint;
  if (id != nullptr) {
    c.id = *id;
    c.id_known = true;
  }
  candidates_.push_back(c);
}

bool DhtOverlay::next_round(const NodeId& target) {
  round_.clear();
  ranked_.clear();
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const Candidate& c = candidates_[i];
    if (!c.queried && !c.id_known) round_.push_back(i);
    // Dead nodes (queried, no response) are excluded from the ranked
    // window so they cannot clog the k closest slots and stall the walk.
    if (c.id_known && (!c.queried || c.responded)) {
      ranked_.push_back(i);
    }
  }
  // Only the k closest are read, so select them rather than sort all.
  // Equal ids (a hostile reply can repeat one) fall back to the index,
  // which keeps the order total.
  const std::size_t k = std::min(ranked_.size(), RoutingTable::kBucketSize);
  std::partial_sort(ranked_.begin(), ranked_.begin() + static_cast<std::ptrdiff_t>(k),
                    ranked_.end(), [&](std::size_t a, std::size_t b) {
                      const NodeId& ia = candidates_[a].id;
                      const NodeId& ib = candidates_[b].id;
                      return ia == ib ? a < b : closer(ia, ib, target);
                    });
  for (std::size_t r = 0; r < k && round_.size() < kAlpha; ++r) {
    const std::size_t index = ranked_[r];
    if (!candidates_[index].queried) round_.push_back(index);
  }
  if (round_.size() > kAlpha) round_.resize(kAlpha);
  return !round_.empty();
}

bool DhtOverlay::call(const Endpoint& to, const Query& query,
                      const Endpoint& from, SimTime now) {
  query.encode_into(datagram_);
  const std::string* raw = send(to, datagram_, from, now);
  return raw != nullptr && Response::decode_into(*raw, response_) &&
         response_.transaction_id == query.transaction_id;
}

// ---- iterative machinery --------------------------------------------------

void DhtOverlay::iterative_get_peers(const Sha1Digest& info_hash,
                                     const Endpoint& from, SimTime now,
                                     LookupStats* stats,
                                     std::span<const Endpoint> bootstrap,
                                     bool read_only) {
  const NodeId target = NodeId::from_digest(info_hash);
  lookup_.peers.clear();
  lookup_.closest.clear();
  known_peers_.clear();
  reset_candidates();
  for (const Endpoint& hint : bootstrap) add_candidate(hint, nullptr, from);
  if (candidates_.empty()) add_candidate(router_endpoint_, nullptr, from);

  Query query;
  query.method = Method::GetPeers;
  query.sender_id = NodeId::for_endpoint(seed_, from);
  query.info_hash = info_hash;
  query.read_only = read_only;

  while (next_round(target)) {
    if (stats != nullptr) ++stats->hops;
    for (const std::size_t index : round_) {
      candidates_[index].queried = true;
      query.transaction_id = next_transaction_id();
      if (stats != nullptr) ++stats->messages;
      if (!call(candidates_[index].endpoint, query, from, now)) {
        // Lost, an error reply or a bogus one.
        if (stats != nullptr) ++stats->timeouts;
        continue;
      }
      Candidate& c = candidates_[index];
      c.responded = true;
      c.id = response_.sender_id;
      c.id_known = true;
      lookup_.closest.emplace_back(NodeInfo{c.id, c.endpoint}, response_.token);
      for (const NodeInfo& node : response_.nodes) {
        add_candidate(node.endpoint, &node.id, from);
      }
      for (const Endpoint& peer : response_.peers) {
        if (known_peers_.insert(peer)) lookup_.peers.push_back(peer);
      }
    }
  }

  // The k closest responders (with their tokens) are the announce targets.
  // Responders are distinct endpoints, which break any equal-id tie.
  auto& closest = lookup_.closest;
  const std::size_t k = std::min(closest.size(), RoutingTable::kBucketSize);
  std::partial_sort(closest.begin(), closest.begin() + static_cast<std::ptrdiff_t>(k),
                    closest.end(), [&](const auto& a, const auto& b) {
                      return a.first.id == b.first.id
                                 ? a.first.endpoint < b.first.endpoint
                                 : closer(a.first.id, b.first.id, target);
                    });
  closest.resize(k);
  if (stats != nullptr) stats->peers_found = lookup_.peers.size();
}

void DhtOverlay::iterative_find_node(DhtNode& origin, const NodeId& target,
                                     SimTime now) {
  const Endpoint& self = origin.endpoint();
  reset_candidates();
  // Seed with the origin's own table (refresh case) plus the router.
  origin.table().closest(target, RoutingTable::kBucketSize, seeds_);
  for (const Contact& contact : seeds_) {
    add_candidate(contact.endpoint, &contact.id, self);
  }
  add_candidate(router_endpoint_, nullptr, self);

  Query query;
  query.method = Method::FindNode;
  query.sender_id = origin.id();
  query.target = target;

  while (next_round(target)) {
    for (const std::size_t index : round_) {
      candidates_[index].queried = true;
      query.transaction_id = next_transaction_id();
      if (!call(candidates_[index].endpoint, query, self, now)) continue;
      Candidate& c = candidates_[index];
      c.responded = true;
      c.id = response_.sender_id;
      c.id_known = true;
      // A response is direct evidence of liveness: verified contact.
      origin.table().observe(c.id, c.endpoint, now);
      for (const NodeInfo& node : response_.nodes) {
        add_candidate(node.endpoint, &node.id, self);
      }
    }
  }
}

// ---- client operations ----------------------------------------------------

std::vector<Endpoint> DhtOverlay::get_peers(const Sha1Digest& info_hash,
                                            const Endpoint& from, SimTime now,
                                            LookupStats* stats,
                                            std::span<const Endpoint> bootstrap,
                                            bool read_only) {
  iterative_get_peers(info_hash, from, now, stats, bootstrap, read_only);
  return std::move(lookup_.peers);
}

void DhtOverlay::announce_peer(const Sha1Digest& info_hash,
                               const Endpoint& peer, SimTime now,
                               LookupStats* stats) {
  iterative_get_peers(info_hash, peer, now, stats, {}, false);
  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.sender_id = NodeId::for_endpoint(seed_, peer);
  announce.info_hash = info_hash;
  announce.port = peer.port;
  for (const auto& [node, token] : lookup_.closest) {
    announce.token = token;
    announce.transaction_id = next_transaction_id();
    if (stats != nullptr) ++stats->messages;
    announce.encode_into(datagram_);
    send(node.endpoint, datagram_, peer, now);
  }
}

}  // namespace btpub::dht
