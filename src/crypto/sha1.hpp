// sha1.hpp — SHA-1 (RFC 3174). BitTorrent infohashes are the SHA-1 of the
// bencoded "info" dictionary; we implement the real digest so that torrents
// produced by the simulator are wire-accurate and infohash equality behaves
// exactly as in deployed BitTorrent.
//
// The block compression has two kernels: a portable one, and one built on
// the x86 SHA extensions (SHA-NI). The SHA-NI kernel is compiled for that
// target alone and chosen once per process when the CPU reports the
// extension, so one binary runs everywhere and gives identical digests.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace btpub {

/// 20-byte SHA-1 digest value type. Ordered & hashable so it can key maps
/// (the tracker's swarm registry keys on infohash).
struct Sha1Digest {
  std::array<std::uint8_t, 20> bytes{};

  auto operator<=>(const Sha1Digest&) const = default;

  /// Lowercase hex rendering ("da39a3ee...").
  std::string hex() const;

  /// Parses 40 hex chars; returns all-zero digest on malformed input.
  static Sha1Digest from_hex(std::string_view hex);
};

/// Streaming SHA-1 context.
class Sha1 {
 public:
  Sha1() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Finalises and returns the digest. The context must not be reused
  /// afterwards without reassignment.
  Sha1Digest finish() noexcept;

  /// One-shot convenience.
  static Sha1Digest hash(std::string_view data) noexcept;
  static Sha1Digest hash(std::span<const std::uint8_t> data) noexcept;

 private:
  std::array<std::uint32_t, 5> h_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

namespace detail {

/// Compresses `n_blocks` consecutive 64-byte blocks into the five-word
/// chaining `state`. Exposed so tests can check each kernel directly.
void sha1_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t n_blocks) noexcept;
/// SHA-NI kernel; call only when sha1_shani_supported() (on non-x86 builds
/// it forwards to the portable kernel).
void sha1_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t n_blocks) noexcept;
/// True when the running CPU has the SHA and SSE4.1 extensions.
bool sha1_shani_supported() noexcept;

}  // namespace detail

}  // namespace btpub

template <>
struct std::hash<btpub::Sha1Digest> {
  std::size_t operator()(const btpub::Sha1Digest& d) const noexcept {
    // The digest is already uniformly distributed; fold the first 8 bytes.
    std::size_t out = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t) && i < d.bytes.size(); ++i) {
      out = (out << 8) | d.bytes[i];
    }
    return out;
  }
};
