#include "util/distinct.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <future>
#include <optional>
#include <utility>

namespace btpub {
namespace {

constexpr int kMaxDigitBits = 11;
constexpr int kMaxBucketBits = 8;
// Fewer keys per bucket than this and clearing the per-pass histograms
// costs about as much as sorting the keys.
constexpr std::size_t kMinBucketKeys = std::size_t{1} << 12;

/// LSD-sorts `n` keys by the low `bits` bits of their offset from `base`,
/// in passes of at most 11 bits that move the keys between `keys` and
/// `buffer`. Returns whichever of the two holds them sorted.
std::uint32_t* sort_low_bits(std::uint32_t* keys, std::uint32_t* buffer,
                             std::size_t n, std::uint32_t base, int bits) {
  if (bits == 0) return keys;
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << digit_bits;
  std::array<std::size_t, std::size_t{1} << kMaxDigitBits> counts;
  for (int shift = 0; shift < bits; shift += digit_bits) {
    const auto digit = [=](std::uint32_t k) { return ((k - base) >> shift) & (radix - 1); };
    std::fill_n(counts.begin(), radix, 0);
    for (std::size_t i = 0; i < n; ++i) ++counts[digit(keys[i])];
    std::size_t offset = 0;
    for (std::size_t d = 0; d < radix; ++d) offset += std::exchange(counts[d], offset);
    for (std::size_t i = 0; i < n; ++i) buffer[counts[digit(keys[i])]++] = keys[i];
    std::swap(keys, buffer);
  }
  return keys;
}

}  // namespace

void sort_unique_u32(std::vector<std::uint32_t>& keys, std::size_t threads) {
  if (keys.empty()) return;
  // One pool serves every phase: `run(n, body)` runs body(0..n-1) as
  // separate tasks and waits for all of them.
  const auto spans = shard_spans(keys.size(), ThreadPool::resolve_threads(threads));
  std::optional<ThreadPool> pool;
  if (spans.size() > 1) pool.emplace(spans.size());
  const auto run = [&pool](std::size_t n, const auto& body) {
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < n; ++i) {
      if (!pool) body(i);
      else done.push_back(pool->submit([&body, i] { body(i); }));
    }
    for (auto& task : done) task.wait();
    for (auto& task : done) task.get();
  };
  std::uint32_t* const data = keys.data();

  std::vector<std::uint32_t> lows(spans.size()), highs(spans.size());
  run(spans.size(), [&](std::size_t s) {
    const auto [min, max] = std::minmax_element(data + spans[s].first, data + spans[s].second);
    lows[s] = *min;
    highs[s] = *max;
  });
  const std::uint32_t lo = *std::min_element(lows.begin(), lows.end());
  const std::uint32_t hi = *std::max_element(highs.begin(), highs.end());
  // Buckets split [lo, hi], not the whole 32-bit space, so keys that share
  // their top byte (IspCatalog hands out /16s from 20.0.0.0 on) still
  // spread over them.
  const int range_bits = std::bit_width(hi - lo);
  const int low_bits =
      range_bits - std::min({kMaxBucketBits, range_bits,
                             static_cast<int>(std::bit_width(keys.size() / kMinBucketKeys))});
  const auto bucket_of = [=](std::uint32_t k) {
    return static_cast<std::size_t>(std::uint64_t{k - lo} >> low_bits);
  };
  const std::size_t buckets = bucket_of(hi) + 1;

  // Scatter: each input span counts its keys per bucket, then writes them
  // through its own cursors, laid out bucket-major.
  using Cursors = std::array<std::size_t, std::size_t{1} << kMaxBucketBits>;
  std::vector<Cursors> cursors(spans.size(), Cursors{});
  run(spans.size(), [&](std::size_t s) {
    for (std::size_t i = spans[s].first; i < spans[s].second; ++i) ++cursors[s][bucket_of(data[i])];
  });
  std::vector<std::size_t> start(buckets + 1, 0);
  for (std::size_t b = 0; b < buckets; ++b) {
    std::size_t& offset = start[b + 1] = start[b];
    for (Cursors& cursor : cursors) offset += std::exchange(cursor[b], offset);
  }
  std::vector<std::uint32_t> scratch(keys.size());
  run(spans.size(), [&](std::size_t s) {
    for (std::size_t i = spans[s].first; i < spans[s].second; ++i) {
      scratch[cursors[s][bucket_of(data[i])]++] = data[i];
    }
  });

  // The buckets hold disjoint key ranges, so each sorts and dedups into its
  // own slice of `keys`, one task per bucket; then one compacting copy.
  std::vector<std::size_t> distinct(buckets, 0);
  run(buckets, [&](std::size_t b) {
    std::uint32_t* const out = data + start[b];
    const std::size_t n = start[b + 1] - start[b];
    if (n == 0) return;
    const std::uint32_t* sorted = sort_low_bits(scratch.data() + start[b], out, n, lo, low_bits);
    distinct[b] = static_cast<std::size_t>(
        (sorted == out ? std::unique(out, out + n) : std::unique_copy(sorted, sorted + n, out)) -
        out);
  });
  std::uint32_t* out = data;
  for (std::size_t b = 0; b < buckets; ++b) {
    std::uint32_t* const first = data + start[b];
    out = out == first ? first + distinct[b] : std::copy(first, first + distinct[b], out);
  }
  keys.resize(static_cast<std::size_t>(out - data));
}

}  // namespace btpub
