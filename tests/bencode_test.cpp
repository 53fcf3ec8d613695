// Bencode codec tests: round trips, canonical-form enforcement, the
// malformed inputs a crawler must survive, and the tree-free dict/list
// walker that validates exactly as decode() does.
#include "bencode/bencode.hpp"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace btpub::bencode {
namespace {

TEST(Encode, Integers) {
  EXPECT_EQ(encode(Value(std::int64_t{0})), "i0e");
  EXPECT_EQ(encode(Value(std::int64_t{42})), "i42e");
  EXPECT_EQ(encode(Value(std::int64_t{-7})), "i-7e");
}

TEST(Encode, Strings) {
  EXPECT_EQ(encode(Value("spam")), "4:spam");
  EXPECT_EQ(encode(Value("")), "0:");
  std::string binary = "a";
  binary.push_back('\0');
  binary += "b";
  EXPECT_EQ(encode(Value(binary)), std::string("3:a\0b", 5));
}

TEST(Encode, ListsAndDicts) {
  List list;
  list.emplace_back(std::int64_t{1});
  list.emplace_back("two");
  EXPECT_EQ(encode(Value(std::move(list))), "li1e3:twoe");

  Dict dict;
  dict.emplace("b", std::int64_t{2});
  dict.emplace("a", std::int64_t{1});
  // Keys serialise in sorted order regardless of insertion order.
  EXPECT_EQ(encode(Value(std::move(dict))), "d1:ai1e1:bi2ee");
}

TEST(Decode, RoundTripNested) {
  Dict info;
  info.emplace("name", "file.avi");
  info.emplace("piece length", std::int64_t{262144});
  List files;
  Dict f1;
  f1.emplace("length", std::int64_t{1234});
  files.emplace_back(std::move(f1));
  info.emplace("files", std::move(files));
  const Value original{std::move(info)};
  const Value decoded = decode(encode(original));
  EXPECT_EQ(decoded, original);
  EXPECT_EQ(decoded.at("name").as_string(), "file.avi");
  EXPECT_EQ(decoded.at("piece length").as_integer(), 262144);
}

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, DecodeEncodeIsIdentity) {
  const std::string text = GetParam();
  EXPECT_EQ(encode(decode(text)), text);
}

INSTANTIATE_TEST_SUITE_P(CanonicalForms, RoundTrip,
                         ::testing::Values("i0e", "i-42e", "0:", "4:spam", "le",
                                           "de", "li1ei2ee", "d1:a0:e",
                                           "d4:infod4:name3:abcee",
                                           "ld1:xi1eeli9eee"));

TEST(Decode, RejectsTrailingGarbage) {
  EXPECT_THROW(decode("i1e i2e"), Error);
  EXPECT_THROW(decode("4:spamX"), Error);
}

TEST(Decode, RejectsTruncation) {
  EXPECT_THROW(decode("i42"), Error);
  EXPECT_THROW(decode("7:spam"), Error);
  EXPECT_THROW(decode("li1e"), Error);
  EXPECT_THROW(decode("d1:a"), Error);
  EXPECT_THROW(decode(""), Error);
}

TEST(Decode, RejectsNonCanonicalIntegers) {
  EXPECT_THROW(decode("i-0e"), Error);
  EXPECT_THROW(decode("i007e"), Error);
  EXPECT_THROW(decode("i-01e"), Error);
  EXPECT_THROW(decode("ie"), Error);
  EXPECT_THROW(decode("i-e"), Error);
  EXPECT_THROW(decode("i1.5e"), Error);
}

TEST(Decode, RejectsUnsortedOrDuplicateDictKeys) {
  EXPECT_THROW(decode("d1:bi1e1:ai2ee"), Error);   // descending
  EXPECT_THROW(decode("d1:ai1e1:ai2ee"), Error);   // duplicate
}

TEST(Decode, RejectsDepthBomb) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += "l";
  for (int i = 0; i < 200; ++i) bomb += "e";
  EXPECT_THROW(decode(bomb), Error);
}

TEST(Decode, IntegerOverflowRejected) {
  EXPECT_THROW(decode("i99999999999999999999999999e"), Error);
}

TEST(DecodePrefix, AdvancesPosition) {
  const std::string two = "i1e4:spam";
  std::size_t pos = 0;
  const Value first = decode_prefix(two, pos);
  EXPECT_EQ(first.as_integer(), 1);
  EXPECT_EQ(pos, 3u);
  const Value second = decode_prefix(two, pos);
  EXPECT_EQ(second.as_string(), "spam");
  EXPECT_EQ(pos, two.size());
}

TEST(Accessors, TypeMismatchThrows) {
  const Value v{std::int64_t{1}};
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.as_list(), Error);
  EXPECT_THROW(v.as_dict(), Error);
  EXPECT_EQ(v.as_integer(), 1);
  const Value s{"x"};
  EXPECT_THROW(s.as_integer(), Error);
}

TEST(Accessors, FindOnDict) {
  Dict d;
  d.emplace("num", std::int64_t{9});
  d.emplace("str", "v");
  const Value v{std::move(d)};
  EXPECT_NE(v.find("num"), nullptr);
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_EQ(v.find_integer("num"), 9);
  EXPECT_EQ(v.find_integer("str"), std::nullopt);  // wrong type
  EXPECT_EQ(v.find_string("str"), "v");
  EXPECT_EQ(v.find_string("num"), std::nullopt);
  EXPECT_THROW(v.at("absent"), Error);
}

TEST(Accessors, FindOnNonDictIsNull) {
  const Value v{std::int64_t{3}};
  EXPECT_EQ(v.find("x"), nullptr);
}

TEST(Equality, DeepComparison) {
  EXPECT_EQ(decode("li1ei2ee"), decode("li1ei2ee"));
  EXPECT_FALSE(decode("li1ei2ee") == decode("li1ei3ee"));
  EXPECT_FALSE(decode("i1e") == decode("1:1"));
}

TEST(FindRaw, ReturnsEncodedValueBytes) {
  const std::string doc = "d1:ai1e4:infod4:name1:x6:pieces3:abce1:zl1:qee";
  EXPECT_EQ(find_raw(doc, "a"), "i1e");
  EXPECT_EQ(find_raw(doc, "info"), "d4:name1:x6:pieces3:abce");
  EXPECT_EQ(find_raw(doc, "z"), "l1:qe");
  EXPECT_EQ(find_raw(doc, "absent"), std::nullopt);
  for (const char* key : {"a", "info", "z"}) {
    EXPECT_EQ(*find_raw(doc, key), encode(decode(doc).at(key))) << key;
  }
}

TEST(FindRaw, ValidatesLikeDecode) {
  EXPECT_THROW(find_raw("li1ee", "a"), Error);          // not a dict
  EXPECT_THROW(find_raw("d1:ai1ee1:x", "a"), Error);    // trailing bytes
  EXPECT_THROW(find_raw("d1:bi1e1:ai2ee", "a"), Error); // unsorted keys
  EXPECT_THROW(find_raw("d1:ai01ee", "a"), Error);      // leading zero
  EXPECT_THROW(find_raw("d1:a5:abce", "a"), Error);     // string overrun
  EXPECT_THROW(find_raw("d1:al1:xe", "a"), Error);      // truncated
  EXPECT_THROW(find_raw("d1:ax1ee", "a"), Error);       // bad value byte
  std::string deep = "d1:a";
  for (int i = 0; i < 100; ++i) deep += 'l';
  for (int i = 0; i < 100; ++i) deep += 'e';
  deep += 'e';
  EXPECT_THROW(find_raw(deep, "a"), Error);
  EXPECT_THROW(decode(deep), Error);
}

// ---- walk_dict / walk_list ----

/// Every input a Decode.Rejects* case (or the overflow case) rejects.
std::vector<std::string> decode_rejects() {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += "l";
  for (int i = 0; i < 200; ++i) bomb += "e";
  return {"i1e i2e", "4:spamX",                                   // trailing
          "i42", "7:spam", "li1e", "d1:a", "",                    // truncated
          "i-0e", "i007e", "i-01e", "ie", "i-e", "i1.5e",         // integers
          "d1:bi1e1:ai2ee", "d1:ai1e1:ai2ee",                     // key order
          bomb, "i99999999999999999999999999e"};
}

TEST(WalkDict, RejectsEveryInputDecodeRejects) {
  const auto ignore_entry = [](std::string_view, std::string_view) {};
  const auto ignore_item = [](std::string_view) {};
  for (const std::string& bad : decode_rejects()) {
    EXPECT_THROW(decode(bad), Error) << bad;
    EXPECT_THROW(walk_dict(bad, ignore_entry), Error) << bad;
    EXPECT_THROW(walk_list(bad, ignore_item), Error) << bad;
    if (bad.empty()) continue;  // "le" is a valid empty list
    // Under a key or in a list, so the walkers' own validation of the
    // values they skip is what rejects it.
    const std::string in_dict = "d1:k" + bad + "e";
    const std::string in_list = "l" + bad + "e";
    EXPECT_THROW(decode(in_dict), Error) << in_dict;
    EXPECT_THROW(walk_dict(in_dict, ignore_entry), Error) << in_dict;
    EXPECT_THROW(decode(in_list), Error) << in_list;
    EXPECT_THROW(walk_list(in_list, ignore_item), Error) << in_list;
  }
  EXPECT_THROW(walk_dict("li1ee", ignore_entry), Error);  // not a dict
  EXPECT_THROW(walk_list("de", ignore_item), Error);      // not a list
  EXPECT_THROW(walk_dict("d1:ai1eeX", ignore_entry), Error);
  EXPECT_THROW(walk_list("leX", ignore_item), Error);
}

TEST(WalkDict, YieldsEntriesInKeyOrderAsFindRawDoes) {
  const std::string doc = "d1:ai1e4:infod4:name1:x6:pieces3:abce1:zl1:qee";
  std::vector<std::pair<std::string, std::string>> entries;
  walk_dict(doc, [&](std::string_view key, std::string_view raw) {
    entries.emplace_back(key, raw);
  });
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, "a");
  EXPECT_EQ(entries[1].first, "info");
  EXPECT_EQ(entries[2].first, "z");
  for (const auto& [key, raw] : entries) {
    EXPECT_EQ(find_raw(doc, key), raw) << key;
    EXPECT_EQ(raw, encode(decode(doc).at(key))) << key;
  }
  walk_dict("de", [](std::string_view, std::string_view) {
    ADD_FAILURE() << "an empty dict has no entries";
  });
}

TEST(WalkList, YieldsItemsInOrder) {
  std::vector<std::string> items;
  walk_list("li1e4:spamd1:xi2eelee", [&](std::string_view raw) {
    items.emplace_back(raw);
  });
  EXPECT_EQ(items, (std::vector<std::string>{"i1e", "4:spam", "d1:xi2ee", "le"}));
}

TEST(RawValues, ReadStringsAndIntegers) {
  EXPECT_EQ(raw_string("4:spam"), "spam");
  EXPECT_EQ(raw_string("0:"), "");
  EXPECT_EQ(raw_string("12:hello:world"), "hello:world");
  EXPECT_EQ(raw_string("i1e"), std::nullopt);
  EXPECT_EQ(raw_string("le"), std::nullopt);
  EXPECT_EQ(raw_string(""), std::nullopt);
  EXPECT_EQ(raw_integer("i0e"), 0);
  EXPECT_EQ(raw_integer("i-42e"), -42);
  EXPECT_EQ(raw_integer("i9223372036854775807e"), INT64_MAX);
  EXPECT_EQ(raw_integer("4:spam"), std::nullopt);
  EXPECT_EQ(raw_integer("de"), std::nullopt);
  EXPECT_EQ(raw_integer(""), std::nullopt);
}

}  // namespace
}  // namespace btpub::bencode
