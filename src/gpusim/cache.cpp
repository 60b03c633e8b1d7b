#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>

#include <sys/mman.h>

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
  counters_ = Counters{};
}

// Miss path (out of line; the inline header scan handles hits): the
// victim is the back slot — the least recently used way, or an invalid
// way (invalid tags only ever sink backward, so any invalid way reaches
// the back before a valid one is evicted).
std::size_t CacheSim::install_line(uint32_t* tags, uint64_t& dirty,
                                   uint32_t tag, bool is_write, Counters& c) {
  const uint64_t wbit = is_write ? 1 : 0;
  if (is_write) {
    ++c.write_misses;  // allocate without fill (streaming store)
  } else {
    ++c.read_misses;
  }
  const std::size_t back = ways_ - 1;
  if (tags[back] != kInvalidTag && ((dirty >> back) & 1)) ++c.writebacks;
  std::memmove(tags + 1, tags, back * sizeof(uint32_t));
  tags[0] = tag;
  dirty = ((dirty << 1) | wbit) & way_mask(ways_);
  return 1;
}

// An access spanning lines [first, last] with more lines than the cache
// holds (the matmul slab streams). Sets are independent, so each set's
// touches can be replayed on their own, in order (walk_range).
std::size_t CacheSim::access_range(uint64_t first, uint64_t last,
                                   bool is_write) {
  // The last line has the largest tag: check it before any state moves,
  // so a throwing range leaves the cache and its counters untouched.
  if ((last >> set_shift_) + 1 > kMaxTag) throw_tag_overflow(last);
  const std::size_t before = counters_.misses();
  walk_range(first, last, is_write, 0, num_sets_, counters_);
  return counters_.misses() - before;
}

// Within one contiguous range a set's tags are consecutive and distinct,
// so once `ways` of them have been touched the set holds only range
// lines, and every later touch misses and evicts the line touched `ways`
// earlier. Each set therefore runs its first min(m, ways) touches through
// touch() (they may hit lines already resident) and counts the remaining
// r = m - ways touches in closed form: r misses; write-backs from the
// dirty bits of the min(r, ways) LRU slots, plus one per evicted range
// line beyond those if the range writes; and the set ends holding the
// last `ways` range tags, MRU-first.
void CacheSim::walk_range(uint64_t first, uint64_t last, bool is_write,
                          std::size_t set_lo, std::size_t set_hi,
                          Counters& c) {
  const uint64_t ways = ways_;
  const uint64_t full = way_mask(ways_);
  const uint64_t written = is_write ? ~uint64_t{0} : 0;  // dirty fill
  const uint64_t mask = num_sets_ - 1;
  for (std::size_t set = set_lo; set < set_hi; ++set) {
    // The set's first line in the range, and its touch count m.
    const uint64_t head = first + ((set - first) & mask);
    if (head > last) continue;
    const uint64_t m = ((last - head) >> set_shift_) + 1;
    const uint32_t head_tag = static_cast<uint32_t>((head >> set_shift_) + 1);
    const uint64_t direct = std::min(m, ways);
    for (uint64_t j = 0; j < direct; ++j)
      touch(set, head_tag + static_cast<uint32_t>(j), is_write, c);
    if (m <= ways) continue;
    const uint64_t r = m - ways;
    (is_write ? c.write_misses : c.read_misses) += r;
    uint64_t& dirty = dirty_[set];
    const uint64_t evicted_old = std::min(r, ways);
    c.writebacks += static_cast<std::size_t>(
        std::popcount(dirty >> (ways - evicted_old)));
    if (r > ways && is_write) c.writebacks += static_cast<std::size_t>(r - ways);
    dirty = r >= ways
                ? full & written
                : ((dirty << r) | (((uint64_t{1} << r) - 1) & written)) & full;
    uint32_t* tags = tags_.data() + set * stride_;
    const uint32_t last_tag =
        head_tag + static_cast<uint32_t>(m - 1);  // tag of touch m-1
    for (uint64_t i = 0; i < ways; ++i)
      tags[i] = last_tag - static_cast<uint32_t>(i);
  }
}

void CacheSim::replay_entries(const uint64_t* e, const uint64_t* end,
                              std::size_t set_lo, std::size_t set_hi,
                              Counters& c) {
  while (e != end) {
    const uint64_t v = *e++;
    const uint32_t tag = static_cast<uint32_t>(v >> 1);
    if (tag != kInvalidTag) {
      touch(static_cast<std::size_t>(v >> 33), tag, (v & 1) != 0, c);
    } else {
      walk_range(e[0], e[1], (v & 1) != 0, set_lo, set_hi, c);
      e += 2;
    }
  }
}

CacheSim::ReplayScratch::~ReplayScratch() {
  if (base_) munmap(base_, bytes_);
}

void* CacheSim::ReplayScratch::get(std::size_t bytes) {
  if (bytes <= bytes_) return base_;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  if (base_) munmap(base_, bytes_);
  base_ = p;
  bytes_ = bytes;
  return base_;
}

// Every bucket must hold a range entry (3 words), so at most
// kBankEntries / 3 partitions; more than num_sets would leave some empty.
CacheSim::ReplaySink::ReplaySink(CacheSim& sim, std::size_t parts,
                                 PartitionRunner& run)
    : sim_(sim),
      run_(run),
      parts_(std::clamp<std::size_t>(
          parts, 1, std::min(sim.num_sets_, kBankEntries / 3))),
      cap_(kBankEntries / parts_),
      line_shift_(sim.line_shift_),
      set_shift_(sim.set_shift_),
      set_mask_(sim.num_sets_ - 1),
      jobs_{{this, 0}, {this, 1}} {
  // PartCounters first, so every block keeps its 64-byte alignment.
  const std::size_t blocks = 2 * parts_;
  char* base = static_cast<char*>(sim_.scratch_.get(
      blocks * (sizeof(PartCounters) + sizeof(std::size_t)) +
      2 * kBankEntries * sizeof(uint64_t)));
  counters_ = reinterpret_cast<PartCounters*>(base);
  std::uninitialized_value_construct_n(counters_, blocks);
  fills_ = reinterpret_cast<std::size_t*>(base + blocks * sizeof(PartCounters));
  std::uninitialized_value_construct_n(fills_, blocks);
  buckets_ = reinterpret_cast<uint64_t*>(fills_ + blocks);
  select_bank(0);
}

CacheSim::ReplaySink::~ReplaySink() {
  // Only reached with a job in flight when `stream` threw: that exception
  // is the one to report, so a failure of the abandoned job is dropped.
  if (!in_flight_) return;
  try {
    run_.join();
  } catch (...) {
  }
}

void CacheSim::ReplaySink::select_bank(std::size_t bank) {
  bank_ = bank;
  bucket_ = buckets_ + bank * kBankEntries;
  fill_ = fills_ + bank * parts_;
}

// Partition p owns the sets s with floor(s * parts / num_sets) == p, the
// block [ceil(p * num_sets / parts), ceil((p + 1) * num_sets / parts)),
// which is where push_line sends their lines.
void CacheSim::ReplaySink::replay_bucket(std::size_t bank, std::size_t p) {
  const std::size_t sets = sim_.num_sets_;
  const std::size_t b = bank * parts_ + p;
  const uint64_t* e = buckets_ + bank * kBankEntries + p * cap_;
  Counters c;
  sim_.replay_entries(e, e + fills_[b], (p * sets + parts_ - 1) / parts_,
                      ((p + 1) * sets + parts_ - 1) / parts_, c);
  counters_[b].c = c;
}

void CacheSim::ReplaySink::push_range(uint64_t first, uint64_t last,
                                      bool is_write) {
  if ((last >> set_shift_) + 1 > kMaxTag) {
    // access() touches a range of at most the cache's lines one by one,
    // up to the first overflowing line; a longer range moves nothing.
    if (last - first < sim_.capacity_lines_)
      for (uint64_t l = first; l <= last; ++l) push_line(l, is_write);
    overflow(last);
  }
  for (std::size_t p = 0; p < parts_; ++p) {
    if (fill_[p] + 3 > cap_) {
      submit();
      break;
    }
  }
  for (std::size_t p = 0; p < parts_; ++p) {
    uint64_t* e = bucket_ + p * cap_ + fill_[p];
    e[0] = uint64_t{is_write};
    e[1] = first;
    e[2] = last;
    fill_[p] += 3;
  }
}

void CacheSim::ReplaySink::overflow(uint64_t line) {
  finish();
  sim_.throw_tag_overflow(line);
}

void CacheSim::ReplaySink::settle() {
  if (!in_flight_) return;
  in_flight_ = false;
  run_.join();
  const std::size_t other = (bank_ ^ 1) * parts_;
  for (std::size_t p = 0; p < parts_; ++p) {
    sim_.counters_ += counters_[other + p].c;
    fills_[other + p] = 0;
  }
}

void CacheSim::ReplaySink::submit() {
  settle();
  run_.start(parts_, jobs_[bank_]);
  in_flight_ = true;
  select_bank(bank_ ^ 1);
}

void CacheSim::ReplaySink::finish() {
  for (std::size_t p = 0; p < parts_; ++p) {
    if (fill_[p] != 0) {
      submit();
      break;
    }
  }
  settle();
}

void CacheSim::throw_tag_overflow(uint64_t line_addr) const {
  throw std::runtime_error(
      "CacheSim: line address " + std::to_string(line_addr) +
      " exceeds the 32-bit tag range for a " +
      std::to_string(num_sets_) + "-set cache (address/capacity "
      "combination outside the simulated slab layout)");
}

}  // namespace ts
