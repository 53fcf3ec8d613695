#include "dht/krpc.hpp"

#include <cstring>

#include "bencode/bencode.hpp"

namespace btpub::dht {
namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
}

std::string_view bytes_view(const std::array<std::uint8_t, 20>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Appends the nodes of a compact node blob whose size is a multiple of 26.
void append_compact_nodes(std::string_view blob, std::vector<NodeInfo>& out) {
  for (std::size_t at = 0; at < blob.size(); at += 26) {
    NodeInfo node;
    std::memcpy(node.id.bytes.data(), blob.data() + at, 20);
    node.endpoint = *parse_compact_peer(blob.substr(at + 20, 6));
    out.push_back(node);
  }
}

/// Reads a 20-byte string value (raw bencode bytes, empty when absent)
/// into an id/digest array; false on absence or any type or length
/// mismatch.
bool read_id(std::string_view raw, std::array<std::uint8_t, 20>& out) {
  const auto s = bencode::raw_string(raw);
  if (!s || s->size() != out.size()) return false;
  std::memcpy(out.data(), s->data(), out.size());
  return true;
}

/// The raw bytes of a KRPC datagram's top-level fields; an absent field
/// is empty (no encoded value is).
struct Envelope {
  std::string_view body;  // "a", "r" or "e", whichever `kind` selects
  std::string_view q;
  std::string_view ro;
  std::string_view t;
  std::string_view y;
};

/// One validating walk of the top-level dict, keeping the fields a
/// message of kind `kind` ('q', 'r' or 'e') reads. False when the datagram
/// is not a single well-formed bencoded dict.
bool read_envelope(std::string_view datagram, char kind, Envelope& env) {
  const char body_name = kind == 'q' ? 'a' : kind;
  try {
    bencode::walk_dict(datagram, [&](std::string_view key, std::string_view raw) {
      if (key.size() == 1) {
        if (key[0] == body_name) env.body = raw;
        else if (key[0] == 'q') env.q = raw;
        else if (key[0] == 't') env.t = raw;
        else if (key[0] == 'y') env.y = raw;
      } else if (key == "ro") {
        env.ro = raw;
      }
    });
  } catch (const bencode::Error&) {
    return false;
  }
  return true;
}

/// The "y" kind and "t" transaction id checks every message type shares.
bool read_header(const Envelope& env, char kind, std::string& transaction_id) {
  const auto y = bencode::raw_string(env.y);
  if (!y || y->size() != 1 || (*y)[0] != kind) return false;
  const auto t = bencode::raw_string(env.t);
  if (!t) return false;
  transaction_id.assign(*t);
  return true;
}

}  // namespace

std::string_view to_string(Method method) {
  switch (method) {
    case Method::Ping: return "ping";
    case Method::FindNode: return "find_node";
    case Method::GetPeers: return "get_peers";
    case Method::AnnouncePeer: return "announce_peer";
  }
  return "ping";
}

// ---- compact encodings ----------------------------------------------------

void append_compact_node(std::string& out, const NodeInfo& node) {
  out.append(bytes_view(node.id.bytes));
  append_compact_peer(out, node.endpoint);
}

std::vector<NodeInfo> parse_compact_nodes(std::string_view blob) {
  std::vector<NodeInfo> nodes;
  if (blob.size() % 26 != 0) return nodes;
  nodes.reserve(blob.size() / 26);
  append_compact_nodes(blob, nodes);
  return nodes;
}

void append_compact_peer(std::string& out, const Endpoint& peer) {
  put_u32(out, peer.ip.value());
  put_u16(out, peer.port);
}

std::optional<Endpoint> parse_compact_peer(std::string_view blob) {
  if (blob.size() != 6) return std::nullopt;
  const auto u8 = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(blob[i]));
  };
  Endpoint peer;
  peer.ip = IpAddress((u8(0) << 24) | (u8(1) << 16) | (u8(2) << 8) | u8(3));
  peer.port = static_cast<std::uint16_t>((u8(4) << 8) | u8(5));
  return peer;
}

// ---- query ----------------------------------------------------------------

std::string Query::encode() const {
  std::string out;
  encode_into(out);
  return out;
}

void Query::encode_into(std::string& out) const {
  out.clear();
  bencode::Writer w(out);
  w.begin_dict();
  w.key("a");
  {
    w.begin_dict();
    w.key("id");
    w.string(bytes_view(sender_id.bytes));
    if (method == Method::GetPeers || method == Method::AnnouncePeer) {
      w.key("info_hash");
      w.string(bytes_view(info_hash.bytes));
    }
    if (method == Method::AnnouncePeer) {
      w.key("port");
      w.integer(port);
    }
    if (method == Method::FindNode) {
      w.key("target");
      w.string(bytes_view(target.bytes));
    }
    if (method == Method::AnnouncePeer) {
      w.key("token");
      w.string(token);
    }
    w.end();
  }
  w.key("q");
  w.string(to_string(method));
  if (read_only) {
    w.key("ro");
    w.integer(1);
  }
  w.key("t");
  w.string(transaction_id);
  w.key("y");
  w.string("q");
  w.end();
}

std::optional<Query> Query::decode(std::string_view datagram) {
  Query query;
  if (!decode_into(datagram, query)) return std::nullopt;
  return query;
}

bool Query::decode_into(std::string_view datagram, Query& query) {
  Envelope env;
  if (!read_envelope(datagram, 'q', env)) return false;
  if (!read_header(env, 'q', query.transaction_id)) return false;
  const auto q = bencode::raw_string(env.q);
  if (!q) return false;
  if (*q == "ping") {
    query.method = Method::Ping;
  } else if (*q == "find_node") {
    query.method = Method::FindNode;
  } else if (*q == "get_peers") {
    query.method = Method::GetPeers;
  } else if (*q == "announce_peer") {
    query.method = Method::AnnouncePeer;
  } else {
    return false;
  }
  const auto ro = bencode::raw_integer(env.ro);
  query.read_only = ro && *ro != 0;
  if (env.body.empty() || env.body[0] != 'd') return false;

  // The arguments dict was validated by the walk above; this second walk
  // only picks out its fields.
  std::string_view id, info_hash, port, target, token;
  bencode::walk_dict(env.body, [&](std::string_view key, std::string_view raw) {
    if (key == "id") id = raw;
    else if (key == "info_hash") info_hash = raw;
    else if (key == "port") port = raw;
    else if (key == "target") target = raw;
    else if (key == "token") token = raw;
  });
  query.target = NodeId{};
  query.info_hash = Sha1Digest{};
  query.port = 0;
  query.token.clear();
  if (!read_id(id, query.sender_id.bytes)) return false;
  switch (query.method) {
    case Method::Ping:
      break;
    case Method::FindNode:
      if (!read_id(target, query.target.bytes)) return false;
      break;
    case Method::GetPeers:
      if (!read_id(info_hash, query.info_hash.bytes)) return false;
      break;
    case Method::AnnouncePeer: {
      if (!read_id(info_hash, query.info_hash.bytes)) return false;
      const auto port_value = bencode::raw_integer(port);
      if (!port_value || *port_value < 0 || *port_value > 0xffff) return false;
      query.port = static_cast<std::uint16_t>(*port_value);
      const auto token_value = bencode::raw_string(token);
      if (!token_value) return false;
      query.token.assign(*token_value);
      break;
    }
  }
  return true;
}

// ---- response -------------------------------------------------------------

std::string Response::encode() const {
  std::string out;
  encode_into(out);
  return out;
}

void Response::encode_into(std::string& out) const {
  out.clear();
  bencode::Writer w(out);
  w.begin_dict();
  w.key("r");
  {
    w.begin_dict();
    w.key("id");
    w.string(bytes_view(sender_id.bytes));
    if (!nodes.empty()) {
      w.key("nodes");
      w.string_header(nodes.size() * 26);
      for (const NodeInfo& node : nodes) append_compact_node(out, node);
    }
    if (!token.empty()) {
      w.key("token");
      w.string(token);
    }
    if (!peers.empty()) {
      w.key("values");
      w.begin_list();
      for (const Endpoint& peer : peers) {
        w.string_header(6);
        append_compact_peer(out, peer);
      }
      w.end();
    }
    w.end();
  }
  w.key("t");
  w.string(transaction_id);
  w.key("y");
  w.string("r");
  w.end();
}

std::optional<Response> Response::decode(std::string_view datagram) {
  Response response;
  if (!decode_into(datagram, response)) return std::nullopt;
  return response;
}

bool Response::decode_into(std::string_view datagram, Response& response) {
  Envelope env;
  if (!read_envelope(datagram, 'r', env)) return false;
  if (!read_header(env, 'r', response.transaction_id)) return false;
  if (env.body.empty() || env.body[0] != 'd') return false;

  std::string_view id, nodes, token, values;
  bencode::walk_dict(env.body, [&](std::string_view key, std::string_view raw) {
    if (key == "id") id = raw;
    else if (key == "nodes") nodes = raw;
    else if (key == "token") token = raw;
    else if (key == "values") values = raw;
  });
  if (!read_id(id, response.sender_id.bytes)) return false;
  response.nodes.clear();
  response.peers.clear();
  response.token.clear();
  // A "nodes" or "token" of the wrong type is ignored, as an absent one.
  if (const auto blob = bencode::raw_string(nodes)) {
    if (blob->size() % 26 != 0) return false;
    append_compact_nodes(*blob, response.nodes);
  }
  if (const auto value = bencode::raw_string(token)) response.token.assign(*value);
  if (!values.empty()) {
    if (values[0] != 'l') return false;
    // Every entry must be a 6-byte compact peer string.
    bool compact = true;
    bencode::walk_list(values, [&](std::string_view raw) {
      const auto peer = bencode::raw_string(raw);
      if (!compact || !peer || peer->size() != 6) {
        compact = false;
        return;
      }
      response.peers.push_back(*parse_compact_peer(*peer));
    });
    if (!compact) return false;
  }
  return true;
}

// ---- error ----------------------------------------------------------------

std::string ErrorMessage::encode() const {
  std::string out;
  encode_into(out);
  return out;
}

void ErrorMessage::encode_into(std::string& out) const {
  out.clear();
  bencode::Writer w(out);
  w.begin_dict();
  w.key("e");
  w.begin_list();
  w.integer(code);
  w.string(message);
  w.end();
  w.key("t");
  w.string(transaction_id);
  w.key("y");
  w.string("e");
  w.end();
}

std::optional<ErrorMessage> ErrorMessage::decode(std::string_view datagram) {
  Envelope env;
  ErrorMessage error;
  if (!read_envelope(datagram, 'e', env)) return std::nullopt;
  if (!read_header(env, 'e', error.transaction_id)) return std::nullopt;
  if (env.body.empty() || env.body[0] != 'l') return std::nullopt;
  std::string_view items[2];
  std::size_t count = 0;
  bencode::walk_list(env.body, [&](std::string_view raw) {
    if (count < 2) items[count] = raw;
    ++count;
  });
  if (count != 2) return std::nullopt;
  const auto code = bencode::raw_integer(items[0]);
  const auto message = bencode::raw_string(items[1]);
  if (!code || !message) return std::nullopt;
  error.code = *code;
  error.message.assign(*message);
  return error;
}

std::optional<char> message_kind(std::string_view datagram) {
  Envelope env;
  if (!read_envelope(datagram, 'q', env)) return std::nullopt;
  const auto y = bencode::raw_string(env.y);
  if (!y || y->size() != 1) return std::nullopt;
  const char kind = (*y)[0];
  if (kind != 'q' && kind != 'r' && kind != 'e') return std::nullopt;
  return kind;
}

}  // namespace btpub::dht
