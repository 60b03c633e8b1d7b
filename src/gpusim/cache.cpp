#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ts {

namespace {

/// Largest power of two <= v (v >= 1).
std::size_t floor_pow2(std::size_t v) {
  std::size_t s = 1;
  while (s * 2 <= v) s *= 2;
  return s;
}

unsigned log2_exact(std::size_t v) {
  unsigned n = 0;
  while ((std::size_t(1) << n) < v) ++n;
  return n;
}

/// Dirty-mask bits of a set's `ways` slots (ways in [1, 64]).
uint64_t way_mask(std::size_t ways) {
  return ways == 64 ? ~uint64_t{0} : (uint64_t{1} << ways) - 1;
}

}  // namespace

CacheSim::CacheSim(std::size_t capacity_bytes, int ways,
                   std::size_t line_bytes)
    : line_bytes_(floor_pow2(std::max<std::size_t>(line_bytes, 1))),
      ways_(static_cast<std::size_t>(std::clamp(ways, 1, 64))) {
  line_shift_ = log2_exact(line_bytes_);
  num_sets_ = std::max<std::size_t>(1, capacity_bytes / (line_bytes_ * ways_));
  // Power-of-two sets for cheap indexing.
  num_sets_ = floor_pow2(num_sets_);
  set_shift_ = log2_exact(num_sets_);
  stride_ = (ways_ + 3) & ~std::size_t{3};
  capacity_lines_ = num_sets_ * ways_;
  tags_.assign(num_sets_ * stride_, kInvalidTag);
  dirty_.assign(num_sets_, 0);
}

void CacheSim::reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(dirty_.begin(), dirty_.end(), uint64_t{0});
  hits_ = read_misses_ = write_misses_ = writebacks_ = 0;
}

// Miss path (out of line; the inline header scan handles hits): the
// victim is the back slot — the least recently used way, or an invalid
// way (invalid tags only ever sink backward, so any invalid way reaches
// the back before a valid one is evicted).
std::size_t CacheSim::install_line(uint32_t* tags, uint64_t& dirty,
                                   uint32_t tag, bool is_write) {
  const uint64_t wbit = is_write ? 1 : 0;
  if (is_write) {
    ++write_misses_;  // allocate without fill (streaming store)
  } else {
    ++read_misses_;
  }
  const std::size_t back = ways_ - 1;
  if (tags[back] != kInvalidTag && ((dirty >> back) & 1)) ++writebacks_;
  std::memmove(tags + 1, tags, back * sizeof(uint32_t));
  tags[0] = tag;
  dirty = ((dirty << 1) | wbit) & way_mask(ways_);
  return 1;
}

// An access spanning lines [first, last] with more lines than the cache
// holds (the matmul slab streams). Sets are independent, so each set's
// touches can be replayed on their own, in order. Within one contiguous
// range a set's tags are consecutive and distinct, so once `ways` of them
// have been touched the set holds only range lines, and every later touch
// misses and evicts the line touched `ways` earlier. Each set therefore
// runs its first `ways` touches through access_line (they may hit lines
// already resident) and counts the remaining r touches in closed form:
// r misses; write-backs from the dirty bits of the min(r, ways) LRU slots,
// plus one per evicted range line beyond those if the range writes; and
// the set ends holding the last `ways` range tags, MRU-first.
std::size_t CacheSim::access_range(uint64_t first, uint64_t last,
                                   bool is_write) {
  // The last line has the largest tag: check it before any state moves,
  // so a throwing range leaves the cache and its counters untouched.
  if ((last >> set_shift_) + 1 > 0xffffffffull) throw_tag_overflow(last);
  const uint64_t ways = ways_;
  const uint64_t full = way_mask(ways_);
  const uint64_t written = is_write ? ~uint64_t{0} : 0;  // dirty fill
  std::size_t misses = 0;
  std::size_t closed_misses = 0;
  for (std::size_t k = 0; k < num_sets_; ++k) {
    // The set's first line in the range, and its touch count m >= ways
    // (the range spans more than num_sets_ * ways_ lines).
    const uint64_t head = first + k;
    const std::size_t set = static_cast<std::size_t>(head) & (num_sets_ - 1);
    const uint64_t m = ((last - head) >> set_shift_) + 1;
    for (uint64_t j = 0; j < ways; ++j)
      misses += access_line(head + (j << set_shift_), is_write);
    const uint64_t r = m - ways;
    if (r == 0) continue;
    closed_misses += r;
    uint64_t& dirty = dirty_[set];
    const uint64_t evicted_old = std::min(r, ways);
    writebacks_ += static_cast<std::size_t>(
        std::popcount(dirty >> (ways - evicted_old)));
    if (r > ways && is_write)
      writebacks_ += static_cast<std::size_t>(r - ways);
    dirty = r >= ways
                ? full & written
                : ((dirty << r) | (((uint64_t{1} << r) - 1) & written)) & full;
    uint32_t* tags = tags_.data() + set * stride_;
    const uint32_t last_tag =
        static_cast<uint32_t>((head >> set_shift_) + m);  // tag of touch m-1
    for (uint64_t i = 0; i < ways; ++i)
      tags[i] = last_tag - static_cast<uint32_t>(i);
  }
  if (is_write) {
    write_misses_ += closed_misses;
  } else {
    read_misses_ += closed_misses;
  }
  return misses + closed_misses;
}

void CacheSim::throw_tag_overflow(uint64_t line_addr) const {
  throw std::runtime_error(
      "CacheSim: line address " + std::to_string(line_addr) +
      " exceeds the 32-bit tag range for a " +
      std::to_string(num_sets_) + "-set cache (address/capacity "
      "combination outside the simulated slab layout)");
}

}  // namespace ts
