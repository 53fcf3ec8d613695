// wire.hpp — the benchmark's own minimal BEP 15 codec. It is written from
// the protocol text, not from the tracker's encoder, so a reply that
// decodes here decodes for any BEP 15 client.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace perfbench::wire {

inline constexpr std::uint64_t kMagic = 0x41727101980ULL;
inline constexpr std::uint32_t kConnect = 0, kAnnounce = 1, kScrape = 2,
                               kError = 3;

inline void put32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v >> 24);
  p[1] = static_cast<unsigned char>(v >> 16);
  p[2] = static_cast<unsigned char>(v >> 8);
  p[3] = static_cast<unsigned char>(v);
}
inline void put64(unsigned char* p, std::uint64_t v) {
  put32(p, static_cast<std::uint32_t>(v >> 32));
  put32(p + 4, static_cast<std::uint32_t>(v));
}
inline std::uint32_t get32(const unsigned char* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
inline std::uint64_t get64(const unsigned char* p) {
  return (std::uint64_t{get32(p)} << 32) | get32(p + 4);
}

/// Connect request: 16 bytes.
inline std::size_t connect_request(unsigned char* out, std::uint32_t tid) {
  put64(out, kMagic);
  put32(out + 8, kConnect);
  put32(out + 12, tid);
  return 16;
}

/// Announce request: 98 bytes. ip = 0 (sender address), event none.
inline std::size_t announce_request(unsigned char* out, std::uint64_t cid,
                                    std::uint32_t tid,
                                    const unsigned char infohash[20],
                                    std::uint32_t key, std::uint32_t numwant,
                                    std::uint16_t port) {
  put64(out, cid);
  put32(out + 8, kAnnounce);
  put32(out + 12, tid);
  std::memcpy(out + 16, infohash, 20);
  for (int i = 0; i < 20; ++i) out[36 + i] = static_cast<unsigned char>('P' + i);
  put64(out + 56, 0);        // downloaded
  put64(out + 64, 1 << 20);  // left
  put64(out + 72, 0);        // uploaded
  put32(out + 80, 0);        // event: none
  put32(out + 84, 0);        // ip: use the sender's
  put32(out + 88, key);
  put32(out + 92, numwant);
  out[96] = static_cast<unsigned char>(port >> 8);
  out[97] = static_cast<unsigned char>(port);
  return 98;
}

/// Scrape request: 16 bytes + 20 per infohash.
inline std::size_t scrape_request(unsigned char* out, std::uint64_t cid,
                                  std::uint32_t tid,
                                  const unsigned char (*infohashes)[20],
                                  std::size_t count) {
  put64(out, cid);
  put32(out + 8, kScrape);
  put32(out + 12, tid);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out + 16 + 20 * i, infohashes[i], 20);
  }
  return 16 + 20 * count;
}

/// The fixed front every response carries: action, transaction id.
struct Header {
  std::uint32_t action = 0;
  std::uint32_t tid = 0;
};
inline bool header(std::string_view d, Header& h) {
  if (d.size() < 8) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(d.data());
  h.action = get32(p);
  h.tid = get32(p + 4);
  return true;
}

}  // namespace perfbench::wire
