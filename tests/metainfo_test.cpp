// Metainfo (.torrent) construction, parsing and infohash behaviour.
#include "torrent/metainfo.hpp"

#include <gtest/gtest.h>

#include "bencode/bencode.hpp"

namespace btpub {
namespace {

Metainfo sample_single() {
  return Metainfo::make("http://tr.example/announce", "Some.Movie.2010.avi",
                        {{"Some.Movie.2010.avi", 734003200}}, 256 * 1024,
                        "salt0");
}

Metainfo sample_multi() {
  return Metainfo::make(
      "http://tr.example/announce", "Some.Movie.2010",
      {{"Some.Movie.2010.avi", 734003200},
       {"Some.Movie.2010.nfo", 4096},
       {"Visit-www-divxatope-com.txt", 120}},
      256 * 1024, "salt1");
}

TEST(Metainfo, SingleFileRoundTrip) {
  const Metainfo original = sample_single();
  const Metainfo parsed = Metainfo::parse(original.encode());
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_EQ(parsed.announce_url(), original.announce_url());
  EXPECT_EQ(parsed.piece_length(), original.piece_length());
  EXPECT_EQ(parsed.piece_count(), original.piece_count());
  EXPECT_EQ(parsed.total_size(), original.total_size());
  EXPECT_FALSE(parsed.is_multi_file());
  EXPECT_EQ(parsed.infohash(), original.infohash());
}

TEST(Metainfo, MultiFileRoundTrip) {
  const Metainfo original = sample_multi();
  const Metainfo parsed = Metainfo::parse(original.encode());
  EXPECT_TRUE(parsed.is_multi_file());
  ASSERT_EQ(parsed.files().size(), 3u);
  EXPECT_EQ(parsed.files()[2].path, "Visit-www-divxatope-com.txt");
  EXPECT_EQ(parsed.files()[2].length, 120);
  EXPECT_EQ(parsed.infohash(), original.infohash());
  EXPECT_EQ(parsed.total_size(), original.total_size());
}

TEST(Metainfo, PieceCountCoversTotalSize) {
  const Metainfo m = sample_single();
  const auto pieces = static_cast<std::int64_t>(m.piece_count());
  EXPECT_GE(pieces * m.piece_length(), m.total_size());
  EXPECT_LT((pieces - 1) * m.piece_length(), m.total_size());
}

TEST(Metainfo, InfohashIsStable) {
  EXPECT_EQ(sample_single().infohash(), sample_single().infohash());
}

TEST(Metainfo, InfohashSensitivity) {
  const Metainfo base = sample_single();
  const Metainfo renamed =
      Metainfo::make("http://tr.example/announce", "Other.Name.avi",
                     {{"Other.Name.avi", 734003200}}, 256 * 1024, "salt0");
  const Metainfo resalted =
      Metainfo::make("http://tr.example/announce", "Some.Movie.2010.avi",
                     {{"Some.Movie.2010.avi", 734003200}}, 256 * 1024, "salt9");
  EXPECT_NE(base.infohash(), renamed.infohash());
  EXPECT_NE(base.infohash(), resalted.infohash());
}

TEST(Metainfo, AnnounceNotPartOfInfohash) {
  const Metainfo a = sample_single();
  const Metainfo b =
      Metainfo::make("http://other-tracker.example/announce",
                     "Some.Movie.2010.avi", {{"Some.Movie.2010.avi", 734003200}},
                     256 * 1024, "salt0");
  EXPECT_EQ(a.infohash(), b.infohash());
}

TEST(Metainfo, PathsWithDirectories) {
  const Metainfo m = Metainfo::make("http://tr/a", "pack",
                                    {{"disc1/part1.rar", 1000},
                                     {"disc1/part2.rar", 1000},
                                     {"readme/info.txt", 10}},
                                    16 * 1024, "s");
  const Metainfo parsed = Metainfo::parse(m.encode());
  ASSERT_EQ(parsed.files().size(), 3u);
  EXPECT_EQ(parsed.files()[0].path, "disc1/part1.rar");
  EXPECT_EQ(parsed.files()[2].path, "readme/info.txt");
}

TEST(Metainfo, MakeValidation) {
  EXPECT_THROW(Metainfo::make("http://tr/a", "x", {}), std::invalid_argument);
  EXPECT_THROW(Metainfo::make("http://tr/a", "x", {{"x", 10}}, 0),
               std::invalid_argument);
}

TEST(Metainfo, ParseRejectsMalformed) {
  EXPECT_THROW(Metainfo::parse("not bencode"), bencode::Error);
  // Valid bencode, missing info dict.
  EXPECT_THROW(Metainfo::parse("d8:announce4:httpe"), bencode::Error);
  // Info dict missing required fields.
  const std::string no_name = "d4:infod6:lengthi5e12:piece lengthi1e6:pieces0:ee";
  EXPECT_THROW(Metainfo::parse(no_name), std::invalid_argument);
}

TEST(Metainfo, ParseRejectsBadPiecesBlob) {
  // pieces blob whose length is not a multiple of 20.
  bencode::Dict info;
  info.emplace("name", "x");
  info.emplace("piece length", std::int64_t{16384});
  info.emplace("pieces", "short");
  info.emplace("length", std::int64_t{5});
  bencode::Dict root;
  root.emplace("announce", "http://t/a");
  root.emplace("info", bencode::Value(std::move(info)));
  EXPECT_THROW(Metainfo::parse(bencode::encode(bencode::Value(std::move(root)))),
               std::invalid_argument);
}

Metainfo sample_nested() {
  return Metainfo::make("http://tr/a", "pack",
                        {{"disc1/part1.rar", 1000},
                         {"disc1/sub/part2.rar", 1000},
                         {"readme/info.txt", 10}},
                        16 * 1024, "s", "a comment");
}

std::string pieces_of(const Metainfo& m) {
  return bencode::decode(m.encode()).at("info").at("pieces").as_string();
}

Sha1Digest reencoded_info_hash(std::string_view torrent_bytes) {
  return Sha1::hash(bencode::encode(bencode::decode(torrent_bytes).at("info")));
}

TEST(Metainfo, EncodedFormIsCanonicalBencode) {
  // make() writes the bytes without a Value tree; they must be exactly
  // what the tree encoder produces from their decoding.
  for (const Metainfo& m : {sample_single(), sample_multi(), sample_nested()}) {
    const std::string& bytes = m.encode();
    EXPECT_EQ(bencode::encode(bencode::decode(bytes)), bytes);
  }
}

TEST(Metainfo, InfohashIsSha1OfReencodedInfo) {
  for (const Metainfo& m : {sample_single(), sample_multi(), sample_nested()}) {
    EXPECT_EQ(m.infohash(), reencoded_info_hash(m.encode()));
  }
}

TEST(Metainfo, PiecesBlobIsTwentyBytesPerPiece) {
  for (const Metainfo& m : {sample_single(), sample_multi(), sample_nested()}) {
    EXPECT_EQ(pieces_of(m).size(), 20 * m.piece_count());
  }
}

TEST(Metainfo, PiecesBlobIsStableAndSalted) {
  const std::string blob = pieces_of(sample_single());
  EXPECT_EQ(pieces_of(sample_single()), blob);
  const Metainfo resalted =
      Metainfo::make("http://tr.example/announce", "Some.Movie.2010.avi",
                     {{"Some.Movie.2010.avi", 734003200}}, 256 * 1024, "salt9");
  const std::string other = pieces_of(resalted);
  ASSERT_EQ(other.size(), blob.size());
  EXPECT_NE(other, blob);
  // A different key gives an unrelated stream, not a shifted copy: the
  // first piece hash differs too.
  EXPECT_NE(other.substr(0, 20), blob.substr(0, 20));
}

TEST(Metainfo, ParseHashesInputInfoBytes) {
  // parse() hashes the info dict's bytes as they appear in the input. On
  // any input the decoder accepts, that equals the SHA-1 of the re-encoded
  // info value, including keys Metainfo itself does not model.
  for (const Metainfo& m : {sample_single(), sample_multi(), sample_nested()}) {
    EXPECT_EQ(Metainfo::parse(m.encode()).infohash(),
              reencoded_info_hash(m.encode()));
  }
  bencode::Dict info;
  info.emplace("length", std::int64_t{5});
  info.emplace("name", "x");
  info.emplace("piece length", std::int64_t{16384});
  info.emplace("pieces", std::string(20, 'p'));
  info.emplace("private", std::int64_t{1});
  bencode::Dict root;
  root.emplace("announce", "http://t/a");
  root.emplace("created by", "client/1.0");
  root.emplace("info", bencode::Value(std::move(info)));
  const std::string bytes = bencode::encode(bencode::Value(std::move(root)));
  const Metainfo parsed = Metainfo::parse(bytes);
  EXPECT_EQ(parsed.infohash(), reencoded_info_hash(bytes));
  EXPECT_EQ(parsed.encode(), bytes);
}

class PieceLengthSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PieceLengthSweep, RoundTripAcrossPieceLengths) {
  const Metainfo m = Metainfo::make("http://tr/a", "f", {{"f", 1000000}},
                                    GetParam(), "s");
  const Metainfo parsed = Metainfo::parse(m.encode());
  EXPECT_EQ(parsed.piece_count(), m.piece_count());
  EXPECT_EQ(parsed.infohash(), m.infohash());
}

INSTANTIATE_TEST_SUITE_P(Lengths, PieceLengthSweep,
                         ::testing::Values(16 * 1024, 256 * 1024, 1 << 20,
                                           999));

}  // namespace
}  // namespace btpub
