// distinct.hpp — distinct-key collection over grouped uint32 keys.
//
// Counting distinct downloader IPs (Table 1's global count, the
// demographics breakdown) is a set-union over per-torrent IP lists. A
// node-based hash set pays an allocation and a cache miss per insert;
// gathering every key into one flat array, radix-sorting it and dropping
// adjacent duplicates touches each key a handful of times in streaming
// order instead. The sort scatters the keys into up to 256 buckets that
// split the range the keys span, then sorts and dedups each bucket as its
// own task. Splitting the span rather than the top byte keeps clustered
// keys spread: IspCatalog's addresses all fall in 20.0.0.0-28.x, which the
// top byte would put in 9 buckets. The result is the distinct keys in ascending
// order, so it is independent of group order and thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/parallel.hpp"

namespace btpub {

/// Sorts `keys` ascending and erases duplicates over `threads` workers (0 =
/// hardware concurrency), all phases on one pool: min/max, then a scatter
/// on the top bits of `key - min` into at most 256 buckets of at least ~4K
/// keys each (one bucket for small inputs), then per non-empty bucket an
/// LSD radix sort of the remaining bits (passes of at most 11) and
/// std::unique. Uses one scratch buffer of the same size.
void sort_unique_u32(std::vector<std::uint32_t>& keys, std::size_t threads = 1);

/// Returns the distinct keys, ascending, across `groups` key groups.
/// `size_of(g)` gives group g's key count; it runs serially, once per group
/// and before any key is read, so it may throw to reject a malformed group.
/// `fill(g, out)` writes exactly that many keys to `out`; each group fills
/// its own prefix-sum slot range, in parallel over `threads` workers (0 =
/// hardware concurrency), and the sort uses the same workers. Below 64K
/// keys both run on the calling thread, where starting workers would cost
/// more than the work.
template <typename SizeOf, typename Fill>
std::vector<std::uint32_t> gather_distinct_u32(std::size_t groups,
                                               std::size_t threads,
                                               SizeOf&& size_of, Fill&& fill) {
  std::vector<std::size_t> offsets(groups + 1, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    offsets[g + 1] = offsets[g] + size_of(g);
  }
  std::vector<std::uint32_t> keys(offsets[groups]);
  if (keys.size() < (std::size_t{1} << 16)) threads = 1;
  parallel_for_each_index(groups, threads, [&](std::size_t g) {
    fill(g, keys.data() + offsets[g]);
  });
  sort_unique_u32(keys, threads);
  return keys;
}

}  // namespace btpub
