// Distinct-key kernel: radix sort + unique and the grouped gather, checked
// against std::sort + std::unique.
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
