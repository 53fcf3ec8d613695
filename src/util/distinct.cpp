#include "util/distinct.hpp"

#include <algorithm>
#include <array>

namespace btpub {
namespace {

void radix_sort_u32(std::vector<std::uint32_t>& keys) {
  constexpr int kPasses = 3;
  constexpr int kBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  constexpr std::uint32_t kMask = kBuckets - 1;

  // All three digit histograms come from one read of the input.
  std::array<std::array<std::size_t, kBuckets>, kPasses> counts{};
  for (const std::uint32_t k : keys) {
    for (int p = 0; p < kPasses; ++p) ++counts[p][(k >> (p * kBits)) & kMask];
  }

  std::vector<std::uint32_t> scratch(keys.size());
  for (int p = 0; p < kPasses; ++p) {
    std::size_t offset = 0;
    for (std::size_t& c : counts[p]) {
      const std::size_t n = c;
      c = offset;
      offset += n;
    }
    const int shift = p * kBits;
    for (const std::uint32_t k : keys) scratch[counts[p][(k >> shift) & kMask]++] = k;
    keys.swap(scratch);
  }
}

}  // namespace

void sort_unique_u32(std::vector<std::uint32_t>& keys) {
  radix_sort_u32(keys);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

}  // namespace btpub
