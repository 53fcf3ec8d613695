// distinct.hpp — distinct-key collection over grouped uint32 keys.
//
// Counting distinct downloader IPs (Table 1's global count, the
// demographics breakdown) is a set-union over per-torrent IP lists. A
// node-based hash set pays an allocation and a cache miss per insert;
// gathering every key into one flat array, radix-sorting it and dropping
// adjacent duplicates touches each key a handful of times in streaming
// order instead. The result is the distinct keys in ascending order, so
// it is independent of group order and thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/parallel.hpp"

namespace btpub {

/// Sorts `keys` ascending and erases duplicates: LSD radix sort (3 passes
/// of 11 bits, one scratch buffer of the same size), then std::unique.
void sort_unique_u32(std::vector<std::uint32_t>& keys);

/// Returns the distinct keys, ascending, across `groups` key groups.
/// `size_of(g)` gives group g's key count; it runs serially, once per group
/// and before any key is read, so it may throw to reject a malformed group.
/// `fill(g, out)` writes exactly that many keys to `out`; each group fills
/// its own prefix-sum slot range, in parallel over `threads` workers (0 =
/// hardware concurrency).
template <typename SizeOf, typename Fill>
std::vector<std::uint32_t> gather_distinct_u32(std::size_t groups,
                                               std::size_t threads,
                                               SizeOf&& size_of, Fill&& fill) {
  std::vector<std::size_t> offsets(groups + 1, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    offsets[g + 1] = offsets[g] + size_of(g);
  }
  std::vector<std::uint32_t> keys(offsets[groups]);
  parallel_for_each_index(groups, threads, [&](std::size_t g) {
    fill(g, keys.data() + offsets[g]);
  });
  sort_unique_u32(keys);
  return keys;
}

}  // namespace btpub
