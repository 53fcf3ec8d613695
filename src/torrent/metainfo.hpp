// metainfo.hpp — .torrent metainfo files (BEP 3).
//
// Torrents in the simulator are genuine bencoded metainfo documents: the
// portal serves these bytes, the crawler parses them, and the infohash is
// the real SHA-1 of the bencoded info dictionary. Only the piece hashes are
// filler (DESIGN.md §5): no payload exists to hash, so make() draws them
// from a keyed pseudo-random stream. Multi-file payload listings matter to
// the study because one of the URL-promotion channels the paper identifies
// is "a text file distributed with the actual content"
// (e.g. "Visit-www-divxatope-com.txt").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"

namespace btpub {

/// One payload file inside a torrent.
struct FileEntry {
  std::string path;        // relative path, '/'-joined
  std::int64_t length = 0; // bytes
};

/// Parsed or constructed metainfo document.
class Metainfo {
 public:
  Metainfo() = default;

  /// Builds a (single- or multi-file) metainfo and encodes it once. The
  /// 20-byte piece hashes are not hashes of anything — the simulator never
  /// materialises gigabytes of content — but an xoshiro256** stream keyed
  /// by SHA-1(name, salt, total size, piece length), so they are stable
  /// per torrent and change with the salt. The document structure and the
  /// infohash (SHA-1 of the encoded info dict) are wire-real.
  static Metainfo make(std::string announce_url, std::string name,
                       std::vector<FileEntry> files,
                       std::int64_t piece_length = 256 * 1024,
                       std::string_view salt = {},
                       std::string comment = {});

  /// The .torrent file bytes: the canonical bencoding written by make(),
  /// or the input given to parse(). The rvalue overload moves them out.
  const std::string& encode() const& noexcept { return bytes_; }
  std::string encode() && noexcept { return std::move(bytes_); }

  /// Parses .torrent bytes; throws bencode::Error on malformed documents
  /// and std::invalid_argument on missing required fields.
  static Metainfo parse(std::string_view torrent_bytes);

  /// SHA-1 of the info dictionary's bytes within encode() (BEP 3).
  const Sha1Digest& infohash() const noexcept { return infohash_; }

  const std::string& announce_url() const noexcept { return announce_; }
  const std::string& name() const noexcept { return name_; }
  const std::string& comment() const noexcept { return comment_; }
  std::int64_t piece_length() const noexcept { return piece_length_; }
  std::size_t piece_count() const noexcept { return n_pieces_; }
  std::int64_t total_size() const noexcept;
  const std::vector<FileEntry>& files() const noexcept { return files_; }
  bool is_multi_file() const noexcept { return multi_file_; }

 private:
  std::string announce_;
  std::string name_;
  std::string comment_;
  std::int64_t piece_length_ = 0;
  std::size_t n_pieces_ = 0;
  std::vector<FileEntry> files_;
  bool multi_file_ = false;
  Sha1Digest infohash_{};
  std::string bytes_;  // the encoded document
};

}  // namespace btpub
