// Mainline DHT building blocks (BEP 5): node ids and the XOR metric, KRPC
// codecs (the BEP 5 example messages and a seeded hostile-input sweep),
// k-bucket routing tables, rotating announce tokens, and the per-node peer
// store + query handler.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bencode/bencode.hpp"
#include "dht/node.hpp"
#include "dht/node_id.hpp"
#include "dht/krpc.hpp"
#include "dht/routing_table.hpp"
#include "util/rng.hpp"

namespace btpub::dht {
namespace {

NodeId id_with(std::uint8_t first, std::uint8_t last = 0) {
  NodeId id;
  id.bytes[0] = first;
  id.bytes[19] = last;
  return id;
}

// ---- node ids and the XOR metric ----

TEST(NodeIdTest, DistanceIsXor) {
  const NodeId a = id_with(0xF0, 0x0F);
  const NodeId b = id_with(0x0F, 0x0F);
  const NodeId d = distance(a, b);
  EXPECT_EQ(d.bytes[0], 0xFF);
  EXPECT_EQ(d.bytes[19], 0x00);
  EXPECT_EQ(distance(a, a), NodeId{});
}

TEST(NodeIdTest, CloserComparesBigEndianMagnitude) {
  const NodeId target = id_with(0x00);
  EXPECT_TRUE(closer(id_with(0x01), id_with(0x02), target));
  EXPECT_FALSE(closer(id_with(0x02), id_with(0x01), target));
  // Equal distance: not closer.
  EXPECT_FALSE(closer(id_with(0x01), id_with(0x01), target));
  // The high byte dominates regardless of the tail.
  EXPECT_TRUE(closer(id_with(0x01, 0xFF), id_with(0x02, 0x00), target));
}

TEST(NodeIdTest, DistanceBitIsBucketIndex) {
  EXPECT_EQ(distance_bit(NodeId{}), -1);
  EXPECT_EQ(distance_bit(id_with(0x80)), 159);
  EXPECT_EQ(distance_bit(id_with(0x00, 0x01)), 0);
  EXPECT_EQ(distance_bit(id_with(0x00, 0x80)), 7);
}

TEST(NodeIdTest, ForEndpointIsDeterministicAndEndpointSensitive) {
  const Endpoint e1{IpAddress(1, 2, 3, 4), 6881};
  const Endpoint e2{IpAddress(1, 2, 3, 4), 6882};
  EXPECT_EQ(NodeId::for_endpoint(7, e1), NodeId::for_endpoint(7, e1));
  EXPECT_NE(NodeId::for_endpoint(7, e1), NodeId::for_endpoint(7, e2));
  EXPECT_NE(NodeId::for_endpoint(7, e1), NodeId::for_endpoint(8, e1));
}

// ---- KRPC codecs ----

TEST(KrpcTest, CompactNodeRoundTrip) {
  std::string blob;
  const NodeInfo a{id_with(0xAA, 0x01), {IpAddress(10, 0, 0, 1), 6881}};
  const NodeInfo b{id_with(0xBB, 0x02), {IpAddress(10, 0, 0, 2), 51413}};
  append_compact_node(blob, a);
  append_compact_node(blob, b);
  ASSERT_EQ(blob.size(), 52u);
  const auto nodes = parse_compact_nodes(blob);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], a);
  EXPECT_EQ(nodes[1], b);
  // A ragged blob is rejected wholesale rather than partially parsed.
  EXPECT_TRUE(parse_compact_nodes(blob.substr(0, 51)).empty());
}

TEST(KrpcTest, QueryRoundTripAllMethods) {
  for (const Method method : {Method::Ping, Method::FindNode, Method::GetPeers,
                              Method::AnnouncePeer}) {
    Query query;
    query.transaction_id = "aa";
    query.method = method;
    query.sender_id = id_with(0x42, 0x24);
    query.target = id_with(0x11);
    query.info_hash = Sha1::hash("krpc");
    query.port = 6881;
    query.token = "tok~";
    query.read_only = (method == Method::GetPeers);
    const auto decoded = Query::decode(query.encode());
    ASSERT_TRUE(decoded.has_value()) << to_string(method);
    EXPECT_EQ(decoded->transaction_id, "aa");
    EXPECT_EQ(decoded->method, method);
    EXPECT_EQ(decoded->sender_id, query.sender_id);
    EXPECT_EQ(decoded->read_only, query.read_only);
    if (method == Method::FindNode) {
      EXPECT_EQ(decoded->target, query.target);
    }
    if (method == Method::GetPeers || method == Method::AnnouncePeer) {
      EXPECT_EQ(decoded->info_hash, query.info_hash);
    }
    if (method == Method::AnnouncePeer) {
      EXPECT_EQ(decoded->port, 6881);
      EXPECT_EQ(decoded->token, "tok~");
    }
  }
}

TEST(KrpcTest, ResponseRoundTripWithNodesPeersAndToken) {
  Response res;
  res.transaction_id = "tx";
  res.sender_id = id_with(0x77);
  res.nodes = {{id_with(0x01), {IpAddress(10, 1, 1, 1), 1000}},
               {id_with(0x02), {IpAddress(10, 1, 1, 2), 2000}}};
  res.peers = {{IpAddress(10, 2, 2, 1), 3000}, {IpAddress(10, 2, 2, 2), 4000}};
  res.token = "write-token";
  const auto decoded = Response::decode(res.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->transaction_id, "tx");
  EXPECT_EQ(decoded->sender_id, res.sender_id);
  EXPECT_EQ(decoded->nodes, res.nodes);
  EXPECT_EQ(decoded->peers, res.peers);
  EXPECT_EQ(decoded->token, "write-token");
}

TEST(KrpcTest, ErrorRoundTripAndKindPeek) {
  ErrorMessage error;
  error.transaction_id = "e1";
  error.code = kErrorProtocol;
  error.message = "bad token";
  const std::string wire = error.encode();
  EXPECT_EQ(message_kind(wire), 'e');
  const auto decoded = ErrorMessage::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->code, kErrorProtocol);
  EXPECT_EQ(decoded->message, "bad token");

  Query q;
  q.transaction_id = "q1";
  EXPECT_EQ(message_kind(q.encode()), 'q');
  EXPECT_FALSE(message_kind("not bencode").has_value());
}

TEST(KrpcTest, DecodeRejectsMalformedMessages) {
  EXPECT_FALSE(Query::decode("").has_value());
  EXPECT_FALSE(Query::decode("d1:y1:qe").has_value());       // no method
  EXPECT_FALSE(Query::decode("i42e").has_value());           // not a dict
  EXPECT_FALSE(Response::decode("d1:y1:re").has_value());    // no body
  EXPECT_FALSE(ErrorMessage::decode("d1:y1:ee").has_value());
  // A query with an unknown method name must not decode as some default.
  Query q;
  q.transaction_id = "xx";
  std::string wire = q.encode();
  const std::size_t at = wire.find("4:ping");
  ASSERT_NE(at, std::string::npos);
  wire.replace(at, 6, "4:pong");
  EXPECT_FALSE(Query::decode(wire).has_value());
}

// ---- the BEP 5 example messages ----

NodeId id_of(std::string_view twenty) {
  NodeId id;
  std::copy(twenty.begin(), twenty.end(), id.bytes.begin());
  return id;
}

TEST(KrpcBep5Examples, QueriesDecodeToTheirFields) {
  const auto ping = Query::decode(
      "d1:ad2:id20:abcdefghij0123456789e1:q4:ping1:t2:aa1:y1:qe");
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(ping->transaction_id, "aa");
  EXPECT_EQ(ping->method, Method::Ping);
  EXPECT_EQ(ping->sender_id, id_of("abcdefghij0123456789"));
  EXPECT_FALSE(ping->read_only);

  const auto find_node = Query::decode(
      "d1:ad2:id20:abcdefghij01234567896:target20:mnopqrstuvwxyz123456e"
      "1:q9:find_node1:t2:aa1:y1:qe");
  ASSERT_TRUE(find_node.has_value());
  EXPECT_EQ(find_node->method, Method::FindNode);
  EXPECT_EQ(find_node->sender_id, id_of("abcdefghij0123456789"));
  EXPECT_EQ(find_node->target, id_of("mnopqrstuvwxyz123456"));

  const auto get_peers = Query::decode(
      "d1:ad2:id20:abcdefghij01234567899:info_hash20:mnopqrstuvwxyz123456e"
      "1:q9:get_peers1:t2:aa1:y1:qe");
  ASSERT_TRUE(get_peers.has_value());
  EXPECT_EQ(get_peers->method, Method::GetPeers);
  EXPECT_EQ(get_peers->info_hash, id_of("mnopqrstuvwxyz123456").to_digest());
  EXPECT_EQ(get_peers->target, NodeId{});  // not a get_peers argument

  // implied_port is not modelled: it is skipped, and the explicit port read.
  const auto announce = Query::decode(
      "d1:ad2:id20:abcdefghij012345678912:implied_porti1e"
      "9:info_hash20:mnopqrstuvwxyz1234564:porti6881e5:token8:aoeusnthe"
      "1:q13:announce_peer1:t2:aa1:y1:qe");
  ASSERT_TRUE(announce.has_value());
  EXPECT_EQ(announce->method, Method::AnnouncePeer);
  EXPECT_EQ(announce->sender_id, id_of("abcdefghij0123456789"));
  EXPECT_EQ(announce->info_hash, id_of("mnopqrstuvwxyz123456").to_digest());
  EXPECT_EQ(announce->port, 6881);
  EXPECT_EQ(announce->token, "aoeusnth");
}

TEST(KrpcBep5Examples, ResponsesAndErrorsDecodeToTheirFields) {
  // ping and announce_peer share this reply.
  const auto bare = Response::decode(
      "d1:rd2:id20:mnopqrstuvwxyz123456e1:t2:aa1:y1:re");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->transaction_id, "aa");
  EXPECT_EQ(bare->sender_id, id_of("mnopqrstuvwxyz123456"));
  EXPECT_TRUE(bare->nodes.empty());
  EXPECT_TRUE(bare->peers.empty());
  EXPECT_TRUE(bare->token.empty());

  const auto values = Response::decode(
      "d1:rd2:id20:abcdefghij01234567895:token8:aoeusnth"
      "6:valuesl6:axje.u6:idhtnmee1:t2:aa1:y1:re");
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(values->sender_id, id_of("abcdefghij0123456789"));
  EXPECT_EQ(values->token, "aoeusnth");
  ASSERT_EQ(values->peers.size(), 2u);
  EXPECT_EQ(values->peers[0], (Endpoint{IpAddress(97, 120, 106, 101), 0x2e75}));
  EXPECT_EQ(values->peers[1], (Endpoint{IpAddress(105, 100, 104, 116), 0x6e6d}));

  // The BEP's "nodes" placeholder is 9 bytes, not a multiple of 26.
  EXPECT_FALSE(Response::decode("d1:rd2:id20:0123456789abcdefghij"
                                "5:nodes9:def456...e1:t2:aa1:y1:re")
                   .has_value());
  const std::string node("mnopqrstuvwxyz123456" "\x0a\x00\x00\x01\x1a\xe1", 26);
  const auto nodes = Response::decode("d1:rd2:id20:0123456789abcdefghij"
                                      "5:nodes26:" + node + "e1:t2:aa1:y1:re");
  ASSERT_TRUE(nodes.has_value());
  ASSERT_EQ(nodes->nodes.size(), 1u);
  EXPECT_EQ(nodes->nodes[0].id, id_of("mnopqrstuvwxyz123456"));
  EXPECT_EQ(nodes->nodes[0].endpoint, (Endpoint{IpAddress(10, 0, 0, 1), 6881}));

  const std::string error_wire = "d1:eli201e23:A Generic Error Ocurrede1:t2:aa1:y1:ee";
  const auto error = ErrorMessage::decode(error_wire);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->transaction_id, "aa");
  EXPECT_EQ(error->code, kErrorGeneric);
  EXPECT_EQ(error->message, "A Generic Error Ocurred");
  EXPECT_EQ(message_kind(error_wire), 'e');
  EXPECT_FALSE(Query::decode(error_wire).has_value());
  EXPECT_FALSE(Response::decode(error_wire).has_value());
}

TEST(KrpcBep5Examples, MistypedOptionalFieldsFollowTheFieldRules) {
  // A non-integer "ro" means not read-only; a non-string "nodes" or
  // "token" reads as absent; a "values" entry that is not a 6-byte string
  // rejects the reply.
  const auto ro = Query::decode(
      "d1:ad2:id20:abcdefghij0123456789e1:q4:ping2:ro1:x1:t2:aa1:y1:qe");
  ASSERT_TRUE(ro.has_value());
  EXPECT_FALSE(ro->read_only);
  const auto mistyped = Response::decode(
      "d1:rd2:id20:abcdefghij01234567895:nodesi1e5:tokenlee1:t2:aa1:y1:re");
  ASSERT_TRUE(mistyped.has_value());
  EXPECT_TRUE(mistyped->nodes.empty());
  EXPECT_TRUE(mistyped->token.empty());
  EXPECT_FALSE(Response::decode("d1:rd2:id20:abcdefghij0123456789"
                                "6:valuesl5:axje.ee1:t2:aa1:y1:re")
                   .has_value());
  EXPECT_FALSE(Response::decode("d1:rd2:id20:abcdefghij0123456789"
                                "6:valuesi1ee1:t2:aa1:y1:re")
                   .has_value());
}

// ---- hostile-input sweep ----

void expect_query_eq(const Query& a, const Query& b) {
  EXPECT_EQ(a.transaction_id, b.transaction_id);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.sender_id, b.sender_id);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.info_hash, b.info_hash);
  EXPECT_EQ(a.port, b.port);
  EXPECT_EQ(a.token, b.token);
  EXPECT_EQ(a.read_only, b.read_only);
}

/// One byte flip, truncation or insertion at a random position.
void mutate(std::string& wire, Rng& rng) {
  const std::size_t at = wire.empty() ? 0 : rng.next() % wire.size();
  switch (rng.next() % 3) {
    case 0:
      if (!wire.empty()) wire[at] = static_cast<char>(wire[at] ^ (1 << (rng.next() % 8)));
      break;
    case 1:
      wire.resize(at);
      break;
    default:
      wire.insert(at, 1, static_cast<char>(rng.next()));
      break;
  }
}

TEST(KrpcHostileInput, MutatedDatagramsAreRejectedOrRoundTrip) {
  std::vector<std::string> seeds;
  for (const Method method : {Method::Ping, Method::FindNode, Method::GetPeers,
                              Method::AnnouncePeer}) {
    Query query;
    query.transaction_id = "tx";
    query.method = method;
    query.sender_id = id_with(0x42, 0x24);
    query.target = id_with(0x11, 0x99);
    query.info_hash = Sha1::hash("sweep");
    query.port = 51413;
    query.token = "tok12345";
    query.read_only = method == Method::GetPeers;
    seeds.push_back(query.encode());
  }
  Response response;
  response.transaction_id = "rx";
  response.sender_id = id_with(0x77, 0x01);
  response.nodes = {{id_with(0x01), {IpAddress(10, 1, 1, 1), 1000}},
                    {id_with(0x02), {IpAddress(10, 1, 1, 2), 2000}}};
  response.peers = {{IpAddress(10, 2, 2, 1), 3000}, {IpAddress(10, 2, 2, 2), 4000}};
  response.token = "write-token";
  seeds.push_back(response.encode());
  ErrorMessage error;
  error.transaction_id = "ex";
  error.code = kErrorProtocol;
  error.message = "bad token";
  seeds.push_back(error.encode());

  DhtNode node(id_with(0x55), {IpAddress(10, 0, 0, 9), 6881}, 0xC0FFEE);
  const Endpoint from{IpAddress(10, 0, 0, 7), 6881};
  Rng rng(0x5EED);
  constexpr int kMutations = 30000;
  int tree_rejected = 0, accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string wire = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const int rounds = 1 + static_cast<int>(rng.next() % 3);
    for (int r = 0; r < rounds; ++r) mutate(wire, rng);

    bool tree_ok = true;
    try {
      bencode::decode(wire);
    } catch (const bencode::Error&) {
      tree_ok = false;
    }
    const auto query = Query::decode(wire);
    const auto reply = Response::decode(wire);
    const auto err = ErrorMessage::decode(wire);
    if (!tree_ok) {
      ++tree_rejected;
      EXPECT_FALSE(query.has_value()) << i;
      EXPECT_FALSE(reply.has_value()) << i;
      EXPECT_FALSE(err.has_value()) << i;
      EXPECT_FALSE(message_kind(wire).has_value()) << i;
      EXPECT_TRUE(ErrorMessage::decode(node.handle(wire, from, 100)).has_value())
          << i;
      continue;
    }
    accepted += query.has_value() + reply.has_value() + err.has_value();
    if (query) {
      const auto again = Query::decode(query->encode());
      ASSERT_TRUE(again.has_value()) << i;
      expect_query_eq(*query, *again);
    }
    if (reply) {
      const auto again = Response::decode(reply->encode());
      ASSERT_TRUE(again.has_value()) << i;
      EXPECT_EQ(again->transaction_id, reply->transaction_id) << i;
      EXPECT_EQ(again->sender_id, reply->sender_id) << i;
      EXPECT_EQ(again->nodes, reply->nodes) << i;
      EXPECT_EQ(again->peers, reply->peers) << i;
      EXPECT_EQ(again->token, reply->token) << i;
    }
    if (err) {
      const auto again = ErrorMessage::decode(err->encode());
      ASSERT_TRUE(again.has_value()) << i;
      EXPECT_EQ(again->transaction_id, err->transaction_id) << i;
      EXPECT_EQ(again->code, err->code) << i;
      EXPECT_EQ(again->message, err->message) << i;
    }
  }
  // The sweep reaches both sides of the validator.
  EXPECT_GT(tree_rejected, kMutations / 4);
  EXPECT_GT(accepted, kMutations / 20);
}

// ---- routing table ----

TEST(RoutingTableTest, ObserveInsertsAndSelfIsIgnored) {
  RoutingTable table(id_with(0x00));
  table.observe(id_with(0x00), {IpAddress(10, 0, 0, 1), 1}, 0);  // self
  EXPECT_EQ(table.size(), 0u);
  table.observe(id_with(0x80), {IpAddress(10, 0, 0, 2), 2}, 0);
  table.observe(id_with(0x81), {IpAddress(10, 0, 0, 3), 3}, 0);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.contains(id_with(0x80)));
}

TEST(RoutingTableTest, FullBucketEvictsOnlyStaleContacts) {
  RoutingTable table(id_with(0x00));
  // Fill one bucket (all ids share the top distance bit).
  for (std::uint8_t i = 0; i < RoutingTable::kBucketSize; ++i) {
    table.observe(id_with(0x80, i), {IpAddress(0x0A000000u + i), 6881}, 0);
  }
  ASSERT_EQ(table.size(), RoutingTable::kBucketSize);
  // Fresh bucket: the newcomer is dropped.
  table.observe(id_with(0x80, 0x99), {IpAddress(10, 9, 9, 9), 6881},
                minutes(1));
  EXPECT_FALSE(table.contains(id_with(0x80, 0x99)));
  // Once the oldest contact has gone quiet past kStaleAfter, a newcomer
  // takes its slot.
  const SimTime later = minutes(1) + RoutingTable::kStaleAfter + 1;
  table.observe(id_with(0x80, 0x99), {IpAddress(10, 9, 9, 9), 6881}, later);
  EXPECT_TRUE(table.contains(id_with(0x80, 0x99)));
  EXPECT_FALSE(table.contains(id_with(0x80, 0)));  // LRU victim
  EXPECT_EQ(table.size(), RoutingTable::kBucketSize);
}

TEST(RoutingTableTest, ClosestReturnsXorOrder) {
  RoutingTable table(id_with(0x00));
  for (std::uint8_t i = 1; i <= 10; ++i) {
    table.observe(id_with(i), {IpAddress(0x0A000000u + i), 6881}, 0);
  }
  std::vector<Contact> out;
  table.closest(id_with(0x01), 3, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, id_with(0x01));  // distance 0
  // Every later entry is no closer than its predecessor.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_FALSE(closer(out[i].id, out[i - 1].id, id_with(0x01)));
  }
}

TEST(RoutingTableTest, ClosestEqualsAFullSortOfTheTable) {
  // Random tables, including targets at, near and far from the own id:
  // the bucket-ordered selection must give a full sort's first k.
  Rng rng(77);
  const auto random_id = [&] {
    NodeId id;
    for (auto& b : id.bytes) b = static_cast<std::uint8_t>(rng.next());
    return id;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId self = random_id();
    RoutingTable table(self);
    std::vector<Contact> all;
    for (std::uint32_t i = 0; i < 400; ++i) {
      NodeId id = random_id();
      // Some contacts share a long prefix with the own id, so low buckets
      // fill too.
      if (i % 4 == 0) std::copy_n(self.bytes.begin(), 1 + i % 19, id.bytes.begin());
      const Endpoint endpoint{IpAddress(0x0A000000u + i), 6881};
      table.observe(id, endpoint, 0);
    }
    // Every contact, through closest() with a k above the table size.
    table.closest(self, 10000, all);
    ASSERT_EQ(all.size(), table.size());
    for (int t = 0; t < 8; ++t) {
      NodeId target = t == 0 ? self : random_id();
      if (t % 2 == 1) std::copy_n(self.bytes.begin(), 2 * t, target.bytes.begin());
      std::vector<Contact> expected = all;
      std::sort(expected.begin(), expected.end(), [&](const Contact& a, const Contact& b) {
        return closer(a.id, b.id, target);
      });
      for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{20}}) {
        std::vector<Contact> got;
        table.closest(target, k, got);
        ASSERT_EQ(got.size(), std::min(k, expected.size()));
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, expected[i].id) << trial << " " << t << " " << k;
        }
      }
    }
  }
}

// ---- tokens ----

TEST(TokenJarTest, TokenValidInCurrentAndPreviousEpochOnly) {
  const TokenJar jar(1234);
  const IpAddress ip(83, 1, 2, 3);
  const SimTime t0 = minutes(7);
  const std::string token = jar.token_for(ip, t0);
  EXPECT_EQ(token.size(), 8u);
  EXPECT_TRUE(jar.valid(token, ip, t0));
  // Still good through the next rotation (BEP 5's ten-minute window)...
  EXPECT_TRUE(jar.valid(token, ip, t0 + TokenJar::kTokenRotate));
  // ...but not two epochs out.
  EXPECT_FALSE(jar.valid(token, ip, t0 + 2 * TokenJar::kTokenRotate));
  // Bound to the IP it was issued to.
  EXPECT_FALSE(jar.valid(token, IpAddress(83, 1, 2, 4), t0));
  // Different secrets issue different tokens.
  EXPECT_NE(TokenJar(99).token_for(ip, t0), token);
}

// ---- peer store ----

TEST(PeerStoreTest, AnnounceCollectExpire) {
  PeerStore store;
  const Sha1Digest hash = Sha1::hash("stored");
  store.announce(hash, {IpAddress(10, 0, 0, 1), 1}, 0);
  store.announce(hash, {IpAddress(10, 0, 0, 2), 2}, minutes(10));
  EXPECT_EQ(store.stored_peers(), 2u);

  std::vector<Endpoint> out;
  store.collect(hash, minutes(20), out);
  EXPECT_EQ(out.size(), 2u);
  // The first announcer ages out kPeerTtl after its announce...
  store.collect(hash, PeerStore::kPeerTtl + 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Endpoint{IpAddress(10, 0, 0, 2), 2}));
  // ...and a refresh resets the clock.
  store.announce(hash, {IpAddress(10, 0, 0, 2), 2},
                 PeerStore::kPeerTtl + minutes(1));
  store.collect(hash, 2 * PeerStore::kPeerTtl, out);
  EXPECT_EQ(out.size(), 1u);
  // expire() drops empty infohashes entirely.
  store.expire(4 * PeerStore::kPeerTtl);
  EXPECT_EQ(store.stored_peers(), 0u);
  EXPECT_EQ(store.stored_infohashes(), 0u);
}

TEST(PeerStoreTest, ReplyWindowCoversMostRecentAnnouncers) {
  PeerStore store;
  const Sha1Digest hash = Sha1::hash("busy");
  // More announcers than fit one reply: the reply must track the newest.
  const std::size_t total = PeerStore::kMaxPeersPerReply + 10;
  for (std::size_t i = 0; i < total; ++i) {
    store.announce(hash, {IpAddress(0x0A000000u + std::uint32_t(i)), 6881},
                   SimTime(i));
  }
  std::vector<Endpoint> out;
  store.collect(hash, SimTime(total), out);
  ASSERT_EQ(out.size(), PeerStore::kMaxPeersPerReply);
  // The newest announcer is visible; the oldest ten are outside the window.
  EXPECT_EQ(out.back().ip.value(), 0x0A000000u + std::uint32_t(total - 1));
  EXPECT_EQ(out.front().ip.value(), 0x0A00000Au);
  // Re-announcing an old peer pulls it back into the window.
  store.announce(hash, {IpAddress(0x0A000000u), 6881}, SimTime(total));
  store.collect(hash, SimTime(total), out);
  EXPECT_EQ(out.back().ip.value(), 0x0A000000u);
}

// ---- node query handler ----

class DhtNodeTest : public ::testing::Test {
 protected:
  DhtNodeTest()
      : node_(NodeId::for_endpoint(1, kSelf), kSelf, /*token_secret=*/555) {}

  static constexpr Endpoint kSelf{IpAddress(10, 0, 0, 1), 6881};
  static constexpr Endpoint kAsker{IpAddress(10, 0, 0, 2), 7000};

  Response ask(Query& query, const Endpoint& from, SimTime now) {
    query.transaction_id = "t1";
    query.sender_id = NodeId::for_endpoint(1, from);
    const auto response = Response::decode(node_.handle(query.encode(), from, now));
    EXPECT_TRUE(response.has_value());
    return response.value_or(Response{});
  }

  DhtNode node_;
};

TEST_F(DhtNodeTest, PingEchoesTransactionAndLearnsSender) {
  Query ping;
  ping.method = Method::Ping;
  const Response res = ask(ping, kAsker, 10);
  EXPECT_EQ(res.transaction_id, "t1");
  EXPECT_EQ(res.sender_id, node_.id());
  EXPECT_TRUE(node_.table().contains(NodeId::for_endpoint(1, kAsker)));
}

TEST_F(DhtNodeTest, ReadOnlySendersStayOutOfTheTable) {
  Query ping;
  ping.method = Method::Ping;
  ping.read_only = true;
  ask(ping, kAsker, 10);
  EXPECT_EQ(node_.table().size(), 0u);
}

TEST_F(DhtNodeTest, GetPeersReturnsNodesAlongsideValues) {
  // Teach the node a contact and store a peer, then ask.
  Query ping;
  ping.method = Method::Ping;
  ask(ping, kAsker, 10);

  Query get;
  get.method = Method::GetPeers;
  get.info_hash = Sha1::hash("wanted");
  const Response empty = ask(get, kAsker, 20);
  EXPECT_TRUE(empty.peers.empty());
  EXPECT_FALSE(empty.nodes.empty());
  ASSERT_FALSE(empty.token.empty());

  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = get.info_hash;
  announce.port = 7000;
  announce.token = empty.token;
  ask(announce, kAsker, 30);

  const Response full = ask(get, kAsker, 40);
  ASSERT_EQ(full.peers.size(), 1u);
  // Even with values in hand the reply keeps routing the lookup: both
  // values and closer nodes are present (the BEP 5 errata behaviour).
  EXPECT_FALSE(full.nodes.empty());
}

TEST_F(DhtNodeTest, AnnounceStoresSourceAddressNotClaimedOne) {
  Query get;
  get.method = Method::GetPeers;
  get.info_hash = Sha1::hash("spoof-proof");
  const Response res = ask(get, kAsker, 10);

  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = get.info_hash;
  announce.port = 9999;  // the port is the sender's claim...
  announce.token = res.token;
  ask(announce, kAsker, 20);

  const Response after = ask(get, kAsker, 30);
  ASSERT_EQ(after.peers.size(), 1u);
  // ...but the IP is taken from the datagram source — an address you do
  // not hold cannot be announced (unlike a tracker announce).
  EXPECT_EQ(after.peers[0], (Endpoint{kAsker.ip, 9999}));
}

TEST_F(DhtNodeTest, AnnounceWithBadTokenIsRejected) {
  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = Sha1::hash("no token");
  announce.port = 7000;
  announce.token = "forged!!";
  announce.transaction_id = "t9";
  announce.sender_id = NodeId::for_endpoint(1, kAsker);
  const std::string raw = node_.handle(announce.encode(), kAsker, 10);
  const auto error = ErrorMessage::decode(raw);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, kErrorProtocol);
  EXPECT_EQ(error->transaction_id, "t9");

  Query get;
  get.method = Method::GetPeers;
  get.info_hash = announce.info_hash;
  EXPECT_TRUE(ask(get, kAsker, 20).peers.empty());
}

TEST_F(DhtNodeTest, TokenFromAnotherIpIsRejected) {
  Query get;
  get.method = Method::GetPeers;
  get.info_hash = Sha1::hash("stolen token");
  const Response res = ask(get, kAsker, 10);

  const Endpoint thief{IpAddress(66, 6, 6, 6), 7000};
  Query announce;
  announce.method = Method::AnnouncePeer;
  announce.info_hash = get.info_hash;
  announce.port = 7000;
  announce.token = res.token;
  announce.transaction_id = "t2";
  announce.sender_id = NodeId::for_endpoint(1, thief);
  const auto error =
      ErrorMessage::decode(node_.handle(announce.encode(), thief, 20));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, kErrorProtocol);
}

TEST_F(DhtNodeTest, MalformedDatagramYieldsErrorMessage) {
  const auto error = ErrorMessage::decode(node_.handle("garbage", kAsker, 10));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, kErrorProtocol);
}

}  // namespace
}  // namespace btpub::dht
