// Distinct-key kernel: the parallel radix sort + unique and the grouped
// gather, checked against std::sort + std::unique at 1-8 threads.
#include "util/distinct.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace btpub {
namespace {

std::vector<std::uint32_t> reference_unique(std::vector<std::uint32_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<std::uint32_t> random_keys(std::size_t n, std::uint64_t seed,
                                       std::uint32_t mask) {
  Rng rng(seed);
  std::vector<std::uint32_t> keys(n);
  for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(rng.next()) & mask;
  return keys;
}

TEST(DistinctTest, SortUniqueMatchesReferenceOnRandomKeys) {
  // Masks confine keys to some of the three 11-bit digits; narrow ones
  // force many duplicates, the full one leaves nearly none.
  for (const std::uint32_t mask :
       {0xffffffffu, 0x0000ffffu, 0xffff0000u, 0x00000fffu, 0x3fu}) {
    std::vector<std::uint32_t> keys = random_keys(100'000, mask, mask);
    const std::vector<std::uint32_t> expected = reference_unique(keys);
    sort_unique_u32(keys);
    EXPECT_EQ(keys, expected) << "mask " << mask;
  }
}

TEST(DistinctTest, SortUniqueEdgeInputs) {
  std::vector<std::uint32_t> empty;
  sort_unique_u32(empty);
  EXPECT_TRUE(empty.empty());

  std::vector<std::uint32_t> one = {42};
  sort_unique_u32(one);
  EXPECT_EQ(one, std::vector<std::uint32_t>{42});

  std::vector<std::uint32_t> all_equal(1000, 0xdeadbeefu);
  sort_unique_u32(all_equal);
  EXPECT_EQ(all_equal, std::vector<std::uint32_t>{0xdeadbeefu});

  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> edges = {kMax, 0, 1u << 11, kMax, 1u << 22, 0,
                                      (1u << 22) - 1, 1u << 31, kMax - 1, 0};
  const std::vector<std::uint32_t> expected = reference_unique(edges);
  sort_unique_u32(edges);
  EXPECT_EQ(edges, expected);
  EXPECT_EQ(edges.front(), 0u);
  EXPECT_EQ(edges.back(), kMax);
}

TEST(DistinctTest, ParallelSortUniqueMatchesReferenceAtEveryThreadCount) {
  // Full-range keys; keys confined to one top-byte bucket; keys with many
  // duplicates; all keys equal; fewer keys than threads; no keys; keys in
  // /8s 20-27, like IspCatalog addresses; a narrow range at the top.
  std::vector<std::vector<std::uint32_t>> inputs = {
      random_keys(200'000, 11, 0xffffffffu), random_keys(50'000, 12, 0x00ffffffu),
      random_keys(50'000, 13, 0xab0000ffu), std::vector<std::uint32_t>(5000, 7u),
      {9, 3, 9}, {}, random_keys(300'000, 14, 0x07ffffffu),
      random_keys(20'000, 15, 0x0000ffffu)};
  for (std::uint32_t& k : inputs[2]) k |= 0xab000000u;  // one bucket, few values
  for (std::uint32_t& k : inputs[6]) k += 20u << 24;
  for (std::uint32_t& k : inputs[7]) k |= 0xffff0000u;
  for (const auto& input : inputs) {
    const std::vector<std::uint32_t> expected = reference_unique(input);
    for (std::size_t threads = 1; threads <= 8; ++threads) {
      std::vector<std::uint32_t> keys = input;
      sort_unique_u32(keys, threads);
      EXPECT_EQ(keys, expected) << input.size() << " keys, " << threads << " threads";
    }
  }
}

TEST(DistinctTest, LargeGatherMatchesReferenceAtAnyThreadCount) {
  // Above the size where the gather and sort fan out.
  Rng rng(5);
  std::vector<std::vector<std::uint32_t>> groups(300);
  std::vector<std::uint32_t> all;
  for (auto& group : groups) {
    group = random_keys(static_cast<std::size_t>(rng.uniform_int(0, 800)), rng.next(),
                        0x3fffffffu);
    all.insert(all.end(), group.begin(), group.end());
  }
  ASSERT_GT(all.size(), std::size_t{1} << 16);
  const std::vector<std::uint32_t> expected = reference_unique(all);
  for (const std::size_t threads : {1u, 3u, 4u}) {
    EXPECT_EQ(gather_distinct_u32(
                  groups.size(), threads, [&](std::size_t g) { return groups[g].size(); },
                  [&](std::size_t g, std::uint32_t* out) {
                    std::copy(groups[g].begin(), groups[g].end(), out);
                  }),
              expected)
        << threads << " threads";
  }
}

TEST(DistinctTest, GatherMatchesReferenceAtAnyThreadCount) {
  // Uneven groups, some empty, with keys repeated inside and across groups.
  Rng rng(3);
  std::vector<std::vector<std::uint32_t>> groups(500);
  std::vector<std::uint32_t> all;
  for (auto& group : groups) {
    group.resize(static_cast<std::size_t>(rng.uniform_int(0, 60)));
    for (std::uint32_t& k : group) {
      k = static_cast<std::uint32_t>(rng.uniform_int(0, 5000)) * 0x9e3779b1u;
    }
    all.insert(all.end(), group.begin(), group.end());
  }
  const std::vector<std::uint32_t> expected = reference_unique(all);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const std::vector<std::uint32_t> got = gather_distinct_u32(
        groups.size(), threads, [&](std::size_t g) { return groups[g].size(); },
        [&](std::size_t g, std::uint32_t* out) {
          std::copy(groups[g].begin(), groups[g].end(), out);
        });
    EXPECT_EQ(got, expected) << threads << " threads";
  }
}

TEST(DistinctTest, GatherOfNoGroupsIsEmpty) {
  const auto got = gather_distinct_u32(
      0, 4, [](std::size_t) { return std::size_t{1}; },
      [](std::size_t, std::uint32_t*) { FAIL() << "no group to fill"; });
  EXPECT_TRUE(got.empty());
}

TEST(DistinctTest, GatherOfEmptyGroupsIsEmpty) {
  const auto got = gather_distinct_u32(
      100, 4, [](std::size_t) { return std::size_t{0}; }, [](std::size_t, std::uint32_t*) {});
  EXPECT_TRUE(got.empty());
}

TEST(DistinctTest, SizeOfRejectionStopsBeforeAnyFill) {
  bool filled = false;
  EXPECT_THROW(gather_distinct_u32(
                   3, 2,
                   [](std::size_t g) -> std::size_t {
                     if (g == 2) throw std::runtime_error("bad group");
                     return 1;
                   },
                   [&](std::size_t, std::uint32_t* out) {
                     filled = true;
                     *out = 0;
                   }),
               std::runtime_error);
  EXPECT_FALSE(filled);
}

}  // namespace
}  // namespace btpub
