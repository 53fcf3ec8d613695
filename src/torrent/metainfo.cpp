#include "torrent/metainfo.hpp"

#include <numeric>
#include <stdexcept>

#include "bencode/bencode.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace btpub {
namespace {

/// Fills the `size`-byte pieces blob at `out`. The payload is never
/// materialised, so nothing can verify piece hashes; they only need the
/// right shape and a stable, torrent-specific value that feeds the
/// infohash. One SHA-1 over the torrent's identity (name, salt, total size,
/// piece length) keys an xoshiro256** stream, which writes every byte.
void synthesize_pieces(char* out, std::size_t size, std::string_view name,
                       std::string_view salt, std::int64_t total,
                       std::int64_t piece_length) {
  std::string identity;
  bencode::Writer w(identity);
  w.begin_list();
  w.string(name);
  w.string(salt);
  w.integer(total);
  w.integer(piece_length);
  w.end();
  const Sha1Digest key = Sha1::hash(identity);
  std::uint64_t seed = 0;
  for (int i = 0; i < 8; ++i) seed = (seed << 8) | key.bytes[i];
  Rng rng(seed);
  // Little-endian words; the fixed-width byte loop compiles to one store.
  std::size_t at = 0;
  for (; at + 8 <= size; at += 8) {
    const std::uint64_t word = rng.next();
    for (int b = 0; b < 8; ++b) {
      out[at + b] = static_cast<char>(word >> (8 * b));
    }
  }
  if (at < size) {
    std::uint64_t word = rng.next();
    for (; at < size; ++at, word >>= 8) out[at] = static_cast<char>(word);
  }
}

}  // namespace

std::int64_t Metainfo::total_size() const noexcept {
  return std::accumulate(files_.begin(), files_.end(), std::int64_t{0},
                         [](std::int64_t acc, const FileEntry& f) {
                           return acc + f.length;
                         });
}

Metainfo Metainfo::make(std::string announce_url, std::string name,
                        std::vector<FileEntry> files, std::int64_t piece_length,
                        std::string_view salt, std::string comment) {
  if (files.empty()) throw std::invalid_argument("Metainfo: no files");
  if (piece_length <= 0) throw std::invalid_argument("Metainfo: bad piece length");
  Metainfo m;
  m.announce_ = std::move(announce_url);
  m.name_ = std::move(name);
  m.comment_ = std::move(comment);
  m.piece_length_ = piece_length;
  m.files_ = std::move(files);
  m.multi_file_ = m.files_.size() > 1;
  const std::int64_t total = m.total_size();
  m.n_pieces_ = static_cast<std::size_t>((total + piece_length - 1) / piece_length);
  if (m.n_pieces_ == 0) m.n_pieces_ = 1;
  const std::size_t pieces_size = m.n_pieces_ * 20;

  // One pass in canonical key order, into a buffer sized up front so the
  // pieces blob is written in place and the whole document is one
  // allocation.
  std::string& out = m.bytes_;
  std::size_t size_hint = pieces_size + m.announce_.size() +
                          m.comment_.size() + m.name_.size() + 128;
  for (const FileEntry& f : m.files_) size_hint += f.path.size() + 64;
  out.reserve(size_hint);
  bencode::Writer w(out);
  w.begin_dict();
  w.key("announce");
  w.string(m.announce_);
  if (!m.comment_.empty()) {
    w.key("comment");
    w.string(m.comment_);
  }
  w.key("info");
  const std::size_t info_begin = out.size();
  w.begin_dict();
  if (m.multi_file_) {
    w.key("files");
    w.begin_list();
    for (const FileEntry& f : m.files_) {
      w.begin_dict();
      w.key("length");
      w.integer(f.length);
      w.key("path");
      w.begin_list();
      for (const std::string_view part : split_views(f.path, '/')) {
        w.string(part);
      }
      w.end();
      w.end();
    }
    w.end();
  } else {
    w.key("length");
    w.integer(m.files_.front().length);
  }
  w.key("name");
  w.string(m.name_);
  w.key("piece length");
  w.integer(m.piece_length_);
  w.key("pieces");
  w.string_header(pieces_size);
  const std::size_t pieces_at = out.size();
  out.resize(pieces_at + pieces_size);
  synthesize_pieces(out.data() + pieces_at, pieces_size, m.name_, salt, total,
                    piece_length);
  w.end();
  m.infohash_ = Sha1::hash(
      std::string_view(out).substr(info_begin, out.size() - info_begin));
  w.end();
  return m;
}

Metainfo Metainfo::parse(std::string_view torrent_bytes) {
  const bencode::Value root = bencode::decode(torrent_bytes);
  Metainfo m;
  m.announce_ = root.find_string("announce").value_or("");
  m.comment_ = root.find_string("comment").value_or("");
  const bencode::Value& info = root.at("info");
  m.name_ = info.find_string("name").value_or("");
  if (m.name_.empty()) throw std::invalid_argument("Metainfo: missing name");
  const auto piece_length = info.find_integer("piece length");
  if (!piece_length || *piece_length <= 0) {
    throw std::invalid_argument("Metainfo: missing piece length");
  }
  m.piece_length_ = *piece_length;
  const bencode::Value* pieces = info.find("pieces");
  if (pieces == nullptr || !pieces->is_string() ||
      pieces->as_string().size() % 20 != 0) {
    throw std::invalid_argument("Metainfo: malformed pieces blob");
  }
  m.n_pieces_ = pieces->as_string().size() / 20;
  if (const bencode::Value* file_list = info.find("files")) {
    m.multi_file_ = true;
    for (const bencode::Value& entry : file_list->as_list()) {
      FileEntry f;
      f.length = entry.find_integer("length").value_or(0);
      std::vector<std::string> parts;
      for (const bencode::Value& part : entry.at("path").as_list()) {
        parts.push_back(part.as_string());
      }
      f.path = join(parts, "/");
      m.files_.push_back(std::move(f));
    }
    if (m.files_.empty()) throw std::invalid_argument("Metainfo: empty file list");
  } else {
    m.multi_file_ = false;
    FileEntry f;
    f.path = m.name_;
    const auto length = info.find_integer("length");
    if (!length) throw std::invalid_argument("Metainfo: missing length");
    f.length = *length;
    m.files_.push_back(std::move(f));
  }
  // BEP 3 defines the infohash over the info dict's bytes as they appear in
  // the file. decode() accepts only canonical bencoding, so those bytes are
  // exactly the re-encoding of `info`; hashing them in place skips a copy.
  m.infohash_ = Sha1::hash(*bencode::find_raw(torrent_bytes, "info"));
  m.bytes_ = torrent_bytes;
  return m;
}

}  // namespace btpub
