// SHA-1 against the RFC 3174 / FIPS 180 test vectors and a hashlib-made
// known-answer table run through each compression kernel, plus streaming
// and digest value-type behaviour.
#include "crypto/sha1.hpp"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

namespace btpub {
namespace {

#include "sha1_known_answers.inc"

using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*,
                         std::size_t) noexcept;

std::string pattern(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((i * 31 + 7) & 0xff);
  }
  return out;
}

/// SHA-1 of `msg` through one block kernel, with the padding done here
/// rather than by Sha1, so a kernel is checked on its own.
std::string kernel_hex(BlockFn kernel, std::string_view msg) {
  std::vector<std::uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::uint32_t state[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                            0x10325476u, 0xC3D2E1F0u};
  kernel(state, padded.data(), padded.size() / 64);
  Sha1Digest d;
  for (int i = 0; i < 5; ++i) {
    for (int b = 0; b < 4; ++b) {
      d.bytes[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return d.hex();
}

void expect_known_answers(BlockFn kernel) {
  const std::string full = pattern(1 << 20);
  for (std::size_t n = 0; n <= 200; ++n) {
    EXPECT_EQ(kernel_hex(kernel, std::string_view(full).substr(0, n)),
              kPatternDigests[n])
        << "length " << n;
  }
  EXPECT_EQ(kernel_hex(kernel, full), kPatternDigest1MiB);
}

TEST(Sha1KnownAnswers, PortableKernel) {
  expect_known_answers(detail::sha1_blocks_portable);
}

TEST(Sha1KnownAnswers, ShaNiKernel) {
  if (!detail::sha1_shani_supported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  expect_known_answers(detail::sha1_blocks_shani);
}

TEST(Sha1KnownAnswers, DispatchedHash) {
  const std::string full = pattern(1 << 20);
  for (std::size_t n = 0; n <= 200; ++n) {
    EXPECT_EQ(Sha1::hash(std::string_view(full).substr(0, n)).hex(),
              kPatternDigests[n])
        << "length " << n;
  }
  EXPECT_EQ(Sha1::hash(full).hex(), kPatternDigest1MiB);
}

TEST(Sha1KnownAnswers, StreamingSplitsAcrossBlockEdges) {
  // Two updates split at every offset around the first three block edges,
  // so the buffered-tail and multi-block paths meet at each alignment.
  const std::string msg = pattern(200);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha1 ctx;
    ctx.update(std::string_view(msg).substr(0, split));
    ctx.update(std::string_view(msg).substr(split));
    EXPECT_EQ(ctx.finish().hex(), kPatternDigests[200]) << "split " << split;
  }
  // Three-way: a short head leaves bytes buffered, then a multi-block run.
  for (std::size_t head = 1; head < 64; head += 7) {
    Sha1 ctx;
    ctx.update(std::string_view(msg).substr(0, head));
    ctx.update(std::string_view(msg).substr(head, 130));
    ctx.update(std::string_view(msg).substr(head + 130));
    EXPECT_EQ(ctx.finish().hex(), kPatternDigests[200]) << "head " << head;
  }
}

TEST(Sha1, EmptyString) {
  EXPECT_EQ(Sha1::hash("").hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::hash("abc").hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(ctx.finish().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-second-block path.
  const std::string msg(64, 'x');
  Sha1 ctx;
  ctx.update(msg);
  EXPECT_EQ(ctx.finish(), Sha1::hash(msg));
}

class Sha1Chunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1Chunking, StreamingMatchesOneShot) {
  std::string message;
  for (int i = 0; i < 997; ++i) message.push_back(static_cast<char>(i * 31 + 7));
  const Sha1Digest expected = Sha1::hash(message);
  Sha1 ctx;
  const std::size_t chunk = GetParam();
  for (std::size_t pos = 0; pos < message.size(); pos += chunk) {
    ctx.update(std::string_view(message).substr(pos, chunk));
  }
  EXPECT_EQ(ctx.finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha1Chunking,
                         ::testing::Values(1u, 3u, 19u, 64u, 65u, 128u, 997u));

TEST(Sha1Digest, HexRoundTrip) {
  const Sha1Digest d = Sha1::hash("round trip");
  EXPECT_EQ(Sha1Digest::from_hex(d.hex()), d);
}

TEST(Sha1Digest, FromHexRejectsMalformed) {
  EXPECT_EQ(Sha1Digest::from_hex("zz"), Sha1Digest{});
  EXPECT_EQ(Sha1Digest::from_hex(std::string(40, 'g')), Sha1Digest{});
  // Right length, bad chars -> all-zero digest.
  std::string bad(40, '0');
  bad[7] = '!';
  EXPECT_EQ(Sha1Digest::from_hex(bad), Sha1Digest{});
}

TEST(Sha1Digest, Hashable) {
  std::unordered_set<Sha1Digest> set;
  for (int i = 0; i < 100; ++i) set.insert(Sha1::hash(std::to_string(i)));
  EXPECT_EQ(set.size(), 100u);
}

TEST(Sha1Digest, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::hash("a"), Sha1::hash("b"));
  EXPECT_NE(Sha1::hash("abc"), Sha1::hash("abc "));
}

TEST(Sha1, BinaryInputWithNulBytes) {
  std::string msg = "ab";
  msg.push_back('\0');
  msg += "cd";
  EXPECT_EQ(Sha1::hash(msg).hex().size(), 40u);
  EXPECT_NE(Sha1::hash(msg), Sha1::hash("abcd"));
}

}  // namespace
}  // namespace btpub
