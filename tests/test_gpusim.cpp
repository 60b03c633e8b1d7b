// GPU cost-model substrate tests: cache simulator (serial and
// set-partitioned replay), transaction coalescing, matmul utilization,
// device specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/coalesce.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/timeline.hpp"

namespace ts {
namespace {

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c(1 << 16);
  EXPECT_EQ(c.access(0, 4, false), 1u);
  EXPECT_EQ(c.access(0, 4, false), 0u);
  EXPECT_EQ(c.access(64, 4, false), 0u);  // same 128B line
  EXPECT_EQ(c.access(128, 4, false), 1u);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.read_misses(), 2u);
}

TEST(CacheSim, MultiLineAccessCountsEachLine) {
  CacheSim c(1 << 16);
  EXPECT_EQ(c.access(0, 512, false), 4u);  // 4 lines of 128B
  EXPECT_EQ(c.access(0, 512, false), 0u);
}

TEST(CacheSim, WriteMissDoesNotFetchButWritebackCounts) {
  CacheSim c(1024, /*ways=*/2);  // tiny: 4 sets x 2 ways
  c.access(0, 4, true);          // write miss: no DRAM fill
  EXPECT_EQ(c.dram_bytes(), 0.0);
  // Evict the dirty line by filling its set.
  for (uint64_t i = 1; i <= 8; ++i) c.access(i * 1024, 4, false);
  EXPECT_GT(c.writebacks(), 0u);
  EXPECT_GT(c.dram_bytes(), 0.0);
}

TEST(CacheSim, LruEvictsOldest) {
  CacheSim c(2 * 128, /*ways=*/2, /*line=*/128);  // 1 set, 2 ways
  c.access(0, 1, false);
  c.access(128, 1, false);
  c.access(0, 1, false);      // refresh line 0
  c.access(256, 1, false);    // evicts line 128 (LRU)
  EXPECT_EQ(c.access(0, 1, false), 0u);   // still cached
  EXPECT_EQ(c.access(128, 1, false), 1u); // was evicted
}

TEST(CacheSim, WorkingSetLargerThanCapacityThrashes) {
  // The §4.3.2 argument: a > L2 working set streamed twice has ~0 reuse.
  CacheSim c(64 * 1024);
  const std::size_t n = 4096;  // 512 KB >> 64 KB
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < n; ++i) c.access(i * 128, 128, false);
  EXPECT_LT(c.hit_rate(), 0.01);
}

TEST(CacheSim, WorkingSetFittingInCapacityReuses) {
  CacheSim c(1 << 20);
  const std::size_t n = 1024;  // 128 KB << 1 MB
  for (int pass = 0; pass < 4; ++pass)
    for (std::size_t i = 0; i < n; ++i) c.access(i * 128, 128, false);
  EXPECT_GT(c.hit_rate(), 0.74);  // 3 of 4 passes hit
}

TEST(CacheSim, ResetClearsState) {
  CacheSim c(1 << 16);
  c.access(0, 256, true);
  c.reset();
  EXPECT_EQ(c.hits() + c.read_misses() + c.write_misses(), 0u);
  EXPECT_EQ(c.dram_bytes(), 0.0);
}

// --- CacheSim against a naive tick-based LRU reference. ---

/// The textbook model CacheSim must reproduce: every way carries a valid
/// bit, its line address, a dirty bit and a last-use tick; a miss fills
/// an invalid way if there is one, else evicts the smallest tick. Same
/// geometry rounding and write semantics (write miss allocates without a
/// fill; a dirty victim counts one write-back).
class TickLru {
 public:
  TickLru(std::size_t capacity_bytes, int ways, std::size_t line_bytes) {
    line_bytes_ = 1;
    while (line_bytes_ * 2 <= std::max<std::size_t>(line_bytes, 1))
      line_bytes_ *= 2;
    ways_ = static_cast<std::size_t>(std::clamp(ways, 1, 64));
    const std::size_t want =
        std::max<std::size_t>(1, capacity_bytes / (line_bytes_ * ways_));
    sets_ = 1;
    while (sets_ * 2 <= want) sets_ *= 2;
    reset();
  }

  void reset() {
    ways_state_.assign(sets_ * ways_, Way{});
    tick_ = 0;
    hits = read_misses = write_misses = writebacks = 0;
  }

  std::size_t access(uint64_t addr, std::size_t bytes, bool is_write) {
    if (bytes == 0) return 0;
    std::size_t misses = 0;
    for (uint64_t l = addr / line_bytes_; l <= (addr + bytes - 1) / line_bytes_;
         ++l)
      misses += access_line(l, is_write);
    return misses;
  }

  std::size_t capacity_lines() const { return sets_ * ways_; }
  std::size_t line_bytes() const { return line_bytes_; }
  std::size_t hits = 0, read_misses = 0, write_misses = 0, writebacks = 0;

 private:
  struct Way {
    bool valid = false;
    bool dirty = false;
    uint64_t line = 0;
    uint64_t tick = 0;
  };

  std::size_t access_line(uint64_t line, bool is_write) {
    Way* set = ways_state_.data() + (line % sets_) * ways_;
    ++tick_;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].line == line) {
        set[w].tick = tick_;
        set[w].dirty = set[w].dirty || is_write;
        ++hits;
        return 0;
      }
    }
    Way* victim = set;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (!set[w].valid) {
        victim = set + w;
        break;
      }
      if (set[w].tick < victim->tick) victim = set + w;
    }
    if (victim->valid && victim->dirty) ++writebacks;
    *victim = Way{true, is_write, line, tick_};
    ++(is_write ? write_misses : read_misses);
    return 1;
  }

  std::size_t line_bytes_, ways_, sets_;
  std::vector<Way> ways_state_;
  uint64_t tick_ = 0;
};

void expect_same_counters(const CacheSim& c, const TickLru& ref) {
  EXPECT_EQ(c.hits(), ref.hits);
  EXPECT_EQ(c.read_misses(), ref.read_misses);
  EXPECT_EQ(c.write_misses(), ref.write_misses);
  EXPECT_EQ(c.writebacks(), ref.writebacks);
  EXPECT_EQ(c.dram_bytes(),
            static_cast<double>((ref.read_misses + ref.writebacks) *
                                ref.line_bytes()));
}

/// Touches the same bytes on both models; they must report the same
/// number of missed lines.
void access_both(CacheSim& c, TickLru& ref, uint64_t addr, std::size_t bytes,
                 bool is_write) {
  ASSERT_EQ(c.access(addr, bytes, is_write), ref.access(addr, bytes, is_write))
      << "addr " << addr << " bytes " << bytes << " write " << is_write;
}

/// One step of a seeded test stream: an access, or a reset of the cache.
struct Step {
  bool reset = false;
  uint64_t addr = 0;
  std::size_t bytes = 0;
  bool is_write = false;
};

/// A seeded stream shaped like the engine replay: row-sized accesses (a
/// sequential read sweep interleaved with scattered slot writes, as in the
/// locality-aware gather), ranges below capacity, ranges spanning one to
/// three whole caches (the matmul slab streams), ranges of exactly the
/// capacity or one line more, and occasional resets. Ranges start at any
/// byte, so most start mid-line and mid-set.
std::vector<Step> random_stream(std::size_t line_bytes,
                                std::size_t capacity_lines, uint32_t seed,
                                int steps) {
  const std::size_t lb = line_bytes;
  const std::size_t cap_lines = capacity_lines;
  const uint64_t span = 4 * cap_lines * lb;
  std::mt19937 rng(seed);
  uint64_t sweep = 0;
  std::vector<Step> out;
  for (int step = 0; step < steps; ++step) {
    const uint32_t kind = rng() % 32;
    const uint64_t base = (uint64_t{rng() % 4} << 28);  // distinct slabs
    const uint64_t at = base + rng() % span;
    if (kind == 0) {
      out.push_back({true, 0, 0, false});
    } else if (kind < 12) {  // sequential row read
      const std::size_t row = 1 + rng() % (2 * lb);
      out.push_back({false, base + sweep * row, row, false});
      ++sweep;
    } else if (kind < 22) {  // scattered row write (or read)
      const std::size_t bytes = 1 + rng() % (2 * lb);
      out.push_back({false, at, bytes, rng() % 4 != 0});
    } else if (kind < 25) {  // below capacity
      const std::size_t bytes = 1 + rng() % (cap_lines * lb);
      out.push_back({false, at, bytes, rng() % 2 != 0});
    } else if (kind < 30) {  // one to three whole caches
      const std::size_t lines = cap_lines + 1 + rng() % (2 * cap_lines);
      const std::size_t bytes = lines * lb - rng() % lb;
      out.push_back({false, at, bytes, rng() % 2 != 0});
    } else {  // exactly the capacity, or one line more
      out.push_back(
          {false, at - at % lb, (cap_lines + kind % 2) * lb, rng() % 2 != 0});
    }
  }
  return out;
}

void run_random_stream(std::size_t capacity_bytes, int ways,
                       std::size_t line_bytes, uint32_t seed, int steps) {
  CacheSim c(capacity_bytes, ways, line_bytes);
  TickLru ref(capacity_bytes, ways, line_bytes);
  for (const Step& s :
       random_stream(ref.line_bytes(), ref.capacity_lines(), seed, steps)) {
    if (s.reset) {
      c.reset();
      ref.reset();
    } else {
      access_both(c, ref, s.addr, s.bytes, s.is_write);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_counters(c, ref);
}

TEST(CacheSimDifferential, SmallCachesAllWaysAndLineSizes) {
  uint32_t seed = 1;
  for (int ways : {1, 2, 3, 4, 5, 16, 17, 64}) {
    for (std::size_t line : {16u, 32u, 64u, 128u, 256u}) {
      for (std::size_t sets : {1u, 4u, 32u}) {
        SCOPED_TRACE(::testing::Message() << "ways " << ways << " line "
                                          << line << " sets " << sets);
        // Capacity a little above sets * ways * line: CacheSim rounds it
        // down to the same geometry.
        run_random_stream(sets * static_cast<std::size_t>(ways) * line +
                              line / 2,
                          ways, line, seed++, 400);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(CacheSimDifferential, FourMiBCaches) {
  constexpr std::size_t k4MiB = std::size_t{4} << 20;
  uint32_t seed = 100;
  for (const auto& [ways, line] :
       {std::pair{16, 128u}, std::pair{17, 256u}, std::pair{1, 256u},
        std::pair{64, 256u}, std::pair{5, 128u}}) {
    SCOPED_TRACE(::testing::Message() << "ways " << ways << " line " << line);
    run_random_stream(k4MiB, ways, line, seed++, 60);
    if (HasFatalFailure()) return;
  }
}

TEST(CacheSimDifferential, RangesOfExactlyAndJustOverCapacity) {
  for (int ways : {1, 3, 4, 16, 64}) {
    const std::size_t sets = 8, line = 128;
    const std::size_t cap_lines = sets * static_cast<std::size_t>(ways);
    for (std::size_t lines : {cap_lines, cap_lines + 1}) {
      SCOPED_TRACE(::testing::Message() << "ways " << ways << " lines "
                                        << lines);
      CacheSim c(cap_lines * line, ways, line);
      TickLru ref(cap_lines * line, ways, line);
      // Warm with a partly dirty stream, then the range twice (read and
      // write) and a sweep that probes what stayed resident.
      for (uint64_t i = 0; i < 2 * cap_lines; i += 3)
        access_both(c, ref, i * line, line, i % 2 == 0);
      access_both(c, ref, 0, lines * line, false);
      access_both(c, ref, line * 5, lines * line, true);
      for (uint64_t i = 0; i < 3 * cap_lines; ++i)
        access_both(c, ref, i * line, 1, false);
      expect_same_counters(c, ref);
    }
  }
}

TEST(CacheSimDifferential, RangeStartingMidSet) {
  // 8 sets x 4 ways. The write range starts half way into line 5 (set
  // 5) and covers lines [5, 75]: sets 5, 6, 7, 0, 1, 2 and 3 see nine
  // touches, set 4 sees eight.
  const std::size_t line = 64;
  CacheSim c(8 * 4 * line, 4, line);
  TickLru ref(8 * 4 * line, 4, line);
  for (uint64_t i = 0; i < 40; ++i)
    access_both(c, ref, i * line, 8, i % 3 == 0);
  access_both(c, ref, 5 * line + line / 2, 70 * line, true);
  access_both(c, ref, 13 * line + 1, 100 * line + 7, false);
  for (uint64_t i = 0; i < 200; ++i) access_both(c, ref, i * line, 1, false);
  expect_same_counters(c, ref);
}

TEST(CacheSim, ReadRangeWritesBackDirtyResidentLines) {
  // 1 set x 4 ways: the four lines [0, 4) are written (all dirty). A read
  // range starting at line 0 first hits all four, then each of its r
  // further lines evicts the oldest: min(r, 4) dirty write-backs.
  for (std::size_t r : {2u, 4u, 7u}) {
    SCOPED_TRACE(::testing::Message() << "r " << r);
    CacheSim c(4 * 128, 4, 128);
    TickLru ref(4 * 128, 4, 128);
    access_both(c, ref, 0, 4 * 128, true);
    EXPECT_EQ(c.writebacks(), 0u);
    access_both(c, ref, 0, (4 + r) * 128, false);
    EXPECT_EQ(c.hits(), 4u);
    EXPECT_EQ(c.read_misses(), r);
    EXPECT_EQ(c.writebacks(), std::min<std::size_t>(r, 4));
    expect_same_counters(c, ref);
  }
  // Partly dirty, 2 sets x 3 ways: lines 0, 2 and 4 of set 0 are resident,
  // only 2 dirty. A read range over lines [0, 14) gives set 0 seven
  // touches: three hits, then r = 4 > ways misses that evict the lines in
  // the order 0, 2, 4, ...: exactly one write-back.
  CacheSim c(2 * 3 * 128, 3, 128);
  TickLru ref(2 * 3 * 128, 3, 128);
  access_both(c, ref, 0 * 128, 1, false);
  access_both(c, ref, 2 * 128, 1, true);
  access_both(c, ref, 4 * 128, 1, false);
  access_both(c, ref, 0, 14 * 128, false);
  EXPECT_EQ(c.writebacks(), 1u);
  expect_same_counters(c, ref);
}

TEST(CacheSim, WriteRangeCountsItsOwnWritebacks) {
  // 1 set x 2 ways, a clean cold cache: a 10-line write range misses on
  // every line and writes back the 8 lines it evicts itself.
  CacheSim c(2 * 128, 2, 128);
  EXPECT_EQ(c.access(0, 10 * 128, true), 10u);
  EXPECT_EQ(c.write_misses(), 10u);
  EXPECT_EQ(c.writebacks(), 8u);
  EXPECT_EQ(c.dram_bytes(), 8.0 * 128);
}

TEST(CacheSim, TagOverflowThrowsOnTheLinePath) {
  // 1 set: the stored tag is line + 1, so line 2^32 - 1 overflows.
  CacheSim c(4 * 128, 4, 128);
  const uint64_t bad_line = 0xffffffffull;
  EXPECT_NO_THROW(c.access((bad_line - 1) * 128, 1, false));
  EXPECT_THROW(c.access(bad_line * 128, 1, false), std::runtime_error);
}

TEST(CacheSim, TagOverflowThrowsOnTheRangePathWithoutSideEffects) {
  // 2 sets x 4 ways: tag = (line >> 1) + 1. A 9-line range whose last
  // line overflows must throw before touching any state.
  CacheSim c(2 * 4 * 128, 4, 128);
  CacheSim twin(2 * 4 * 128, 4, 128);
  for (uint64_t i = 0; i < 12; ++i) {
    c.access(i * 128, 1, i % 2 == 0);
    twin.access(i * 128, 1, i % 2 == 0);
  }
  const uint64_t bad_line = uint64_t{0xffffffff} << 1;
  EXPECT_THROW(c.access((bad_line - 8) * 128, 9 * 128, true),
               std::runtime_error);
  EXPECT_EQ(c.hits(), twin.hits());
  EXPECT_EQ(c.read_misses(), twin.read_misses());
  EXPECT_EQ(c.write_misses(), twin.write_misses());
  EXPECT_EQ(c.writebacks(), twin.writebacks());
  // The resident lines and their dirty bits are untouched too.
  for (uint64_t i = 0; i < 16; ++i)
    EXPECT_EQ(c.access(i * 128, 1, false), twin.access(i * 128, 1, false));
  EXPECT_EQ(c.writebacks(), twin.writebacks());
}

// --- Set-partitioned replay (CacheSim::replay) against TickLru and the
// serial access() loop. ---

/// Runs every job serially, partitions in reverse order: a schedule no
/// pool produces, so a replay that depended on partition order or on
/// concurrency would diverge here.
class ReverseSerialRunner final : public PartitionRunner {
 public:
  void start(std::size_t parts, PartitionFn fn) override {
    for (std::size_t p = parts; p-- > 0;) fn(p);
  }
  void join() override {}
};

/// The test streams cut into kernels: a kernel ends at every reset and
/// after every `kernel_steps` accesses.
std::vector<std::vector<Step>> kernels_of(const std::vector<Step>& steps,
                                          std::size_t kernel_steps) {
  std::vector<std::vector<Step>> kernels;
  for (const Step& s : steps) {
    if (kernels.empty() || s.reset || kernels.back().size() == kernel_steps)
      kernels.emplace_back();
    kernels.back().push_back(s);
  }
  return kernels;
}

/// Replays `steps` kernel by kernel through CacheSim::replay at `parts`
/// partitions on `run`, through TickLru, and through serial access()
/// calls: all counters and every kernel's DRAM delta must agree.
void expect_partitioned_matches(std::size_t capacity_bytes, int ways,
                                std::size_t line_bytes,
                                const std::vector<Step>& steps,
                                std::size_t parts, PartitionRunner& run) {
  CacheSim part(capacity_bytes, ways, line_bytes);
  CacheSim serial(capacity_bytes, ways, line_bytes);
  TickLru ref(capacity_bytes, ways, line_bytes);
  int kernel = 0;
  for (const std::vector<Step>& k : kernels_of(steps, 7)) {
    if (k.front().reset) {
      part.reset();
      serial.reset();
      ref.reset();
    }
    const double part0 = part.dram_bytes(), serial0 = serial.dram_bytes();
    const std::size_t ref0 = ref.read_misses + ref.writebacks;
    part.replay(parts, run, [&](CacheSim::ReplaySink& sink) {
      for (const Step& s : k)
        if (!s.reset) sink.access(s.addr, s.bytes, s.is_write);
    });
    for (const Step& s : k) {
      if (s.reset) continue;
      serial.access(s.addr, s.bytes, s.is_write);
      ref.access(s.addr, s.bytes, s.is_write);
    }
    const double part_delta = part.dram_bytes() - part0;
    ASSERT_EQ(part_delta, serial.dram_bytes() - serial0) << "kernel " << kernel;
    ASSERT_EQ(part_delta,
              static_cast<double>((ref.read_misses + ref.writebacks - ref0) *
                                  ref.line_bytes()))
        << "kernel " << kernel;
    ++kernel;
  }
  expect_same_counters(part, ref);
  expect_same_counters(serial, ref);
}

TEST(CacheSimPartition, SeededStreamsMatchAtEveryPartitionCount) {
  PoolRunner pool;
  ReverseSerialRunner reverse;
  uint32_t seed = 500;
  for (int ways : {1, 3, 16, 17, 64}) {
    for (std::size_t sets : {1u, 8u, 64u}) {
      const std::size_t line = 64;
      const std::size_t cap = sets * static_cast<std::size_t>(ways) * line;
      const std::vector<Step> steps =
          random_stream(line, sets * static_cast<std::size_t>(ways), seed++,
                        300);
      for (std::size_t parts : {1u, 2u, 3u, 4u, 7u}) {
        SCOPED_TRACE(::testing::Message() << "ways " << ways << " sets "
                                          << sets << " parts " << parts);
        expect_partitioned_matches(cap, ways, line, steps, parts, pool);
        if (HasFatalFailure()) return;
        expect_partitioned_matches(cap, ways, line, steps, parts, reverse);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(CacheSimPartition, TwoMiBCacheWithEngineRows) {
  // The engine's shape at a realistic size: 1024 sets x 16 ways x 128 B,
  // mostly one- and two-line rows, so every partition gets line entries
  // and the banks fill and hand off many times per kernel.
  const std::size_t cap = std::size_t{2} << 20;
  const std::vector<Step> steps = random_stream(128, 1024 * 16, 900, 600);
  PoolRunner pool;
  ReverseSerialRunner reverse;
  for (std::size_t parts : {1u, 4u, 7u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "parts " << parts);
    expect_partitioned_matches(cap, 16, 128, steps, parts, pool);
    expect_partitioned_matches(cap, 16, 128, steps, parts, reverse);
  }
  std::vector<Step> rows;
  std::mt19937 rng(901);
  for (int i = 0; i < 120000; ++i)
    rows.push_back({false, (uint64_t{rng() % 4} << 30) + (rng() % 400000) * 96,
                    96, rng() % 2 != 0});
  expect_partitioned_matches(cap, 16, 128, rows, 8, pool);
}

TEST(CacheSimPartition, RangeStartingMidSet) {
  // 8 sets x 4 ways, as CacheSimDifferential.RangeStartingMidSet: ranges
  // starting half way into a line of set 5 and of set 5 + 8, with the
  // sets split over partitions at different boundaries.
  const std::size_t line = 64;
  std::vector<Step> steps;
  for (uint64_t i = 0; i < 40; ++i) steps.push_back({false, i * line, 8, i % 3 == 0});
  steps.push_back({false, 5 * line + line / 2, 70 * line, true});
  steps.push_back({false, 13 * line + 1, 100 * line + 7, false});
  steps.push_back({false, 13 * line + 1, 9 * line, true});
  for (uint64_t i = 0; i < 200; ++i) steps.push_back({false, i * line, 1, false});
  PoolRunner pool;
  ReverseSerialRunner reverse;
  for (std::size_t parts : {1u, 2u, 3u, 4u, 7u}) {
    SCOPED_TRACE(::testing::Message() << "parts " << parts);
    expect_partitioned_matches(8 * 4 * line, 4, line, steps, parts, pool);
    expect_partitioned_matches(8 * 4 * line, 4, line, steps, parts, reverse);
  }
}

/// Counters of a simulator, for whole-state comparisons.
std::vector<std::size_t> counters(const CacheSim& c) {
  return {c.hits(), c.read_misses(), c.write_misses(), c.writebacks()};
}

TEST(CacheSimPartition, TagOverflowInAnyPartitionThrowsOnTheCaller) {
  // 8 sets x 4 ways: tag = (line >> 3) + 1, so lines from 0xffffffff << 3
  // on overflow; line (0xffffffff << 3) | s lies in set s, which each
  // partition count assigns to a different partition. The replay throws
  // after replaying everything before the bad line, as the serial loop
  // does.
  const uint64_t bad0 = uint64_t{0xffffffff} << 3;
  PoolRunner pool;
  ReverseSerialRunner reverse;
  for (PartitionRunner* run : {static_cast<PartitionRunner*>(&pool),
                               static_cast<PartitionRunner*>(&reverse)}) {
    for (std::size_t parts : {1u, 2u, 3u, 4u, 7u}) {
      for (uint64_t set = 0; set < 8; ++set) {
        SCOPED_TRACE(::testing::Message() << "parts " << parts << " set "
                                          << set);
        CacheSim c(8 * 4 * 128, 4, 128);
        CacheSim serial(8 * 4 * 128, 4, 128);
        auto stream = [&](auto&& touch) {
          for (uint64_t i = 0; i < 100; ++i) touch(i * 128 * 3, 128, i % 2 == 0);
          touch((bad0 | set) * 128, 1, true);
          touch(0, 128, false);  // never reached
        };
        EXPECT_THROW(c.replay(parts, *run,
                              [&](CacheSim::ReplaySink& sink) {
                                stream([&](uint64_t a, std::size_t b, bool w) {
                                  sink.access(a, b, w);
                                });
                              }),
                     std::runtime_error);
        EXPECT_THROW(stream([&](uint64_t a, std::size_t b, bool w) {
                       serial.access(a, b, w);
                     }),
                     std::runtime_error);
        EXPECT_EQ(counters(c), counters(serial));
        for (uint64_t i = 0; i < 64; ++i)
          EXPECT_EQ(c.access(i * 128, 1, false), serial.access(i * 128, 1, false));
      }
    }
  }
}

TEST(CacheSimPartition, OverflowingRangeLeavesEveryCounterUnchanged) {
  // 2 sets x 4 ways, as CacheSim.TagOverflowThrowsOnTheRangePath...: a
  // 9-line range whose last line overflows, after a warm-up in the same
  // replay. The warm-up is replayed; the range moves nothing.
  const uint64_t bad_line = uint64_t{0xffffffff} << 1;
  PoolRunner pool;
  ReverseSerialRunner reverse;
  for (PartitionRunner* run : {static_cast<PartitionRunner*>(&pool),
                               static_cast<PartitionRunner*>(&reverse)}) {
    for (std::size_t parts : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message() << "parts " << parts);
      CacheSim c(2 * 4 * 128, 4, 128);
      CacheSim twin(2 * 4 * 128, 4, 128);
      for (uint64_t i = 0; i < 12; ++i) twin.access(i * 128, 1, i % 2 == 0);
      EXPECT_THROW(c.replay(parts, *run,
                            [&](CacheSim::ReplaySink& sink) {
                              for (uint64_t i = 0; i < 12; ++i)
                                sink.access(i * 128, 1, i % 2 == 0);
                              sink.access((bad_line - 8) * 128, 9 * 128, true);
                            }),
                   std::runtime_error);
      EXPECT_EQ(counters(c), counters(twin));
      // A range alone leaves a fresh simulator untouched.
      CacheSim fresh(2 * 4 * 128, 4, 128);
      EXPECT_THROW(fresh.replay(parts, *run,
                                [&](CacheSim::ReplaySink& sink) {
                                  sink.access((bad_line - 8) * 128, 9 * 128,
                                              false);
                                }),
                   std::runtime_error);
      EXPECT_EQ(counters(fresh), (std::vector<std::size_t>{0, 0, 0, 0}));
      for (uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(c.access(i * 128, 1, false), twin.access(i * 128, 1, false));
      EXPECT_EQ(counters(c), counters(twin));
    }
  }
}

TEST(CacheSimPartition, OverflowingRangeWithinCapacityMatchesSerial) {
  // 8 sets x 4 ways (32 lines): a 20-line access is at least num_sets
  // lines, so the sink makes it a range entry, but at most the cache's
  // lines, so serial access() touches it line by line and throws at its
  // first overflowing line, 12 lines in. The replay must leave the
  // state serial access() leaves, in every set, at every partition
  // count.
  const uint64_t bad0 = uint64_t{0xffffffff} << 3;
  PoolRunner pool;
  ReverseSerialRunner reverse;
  for (PartitionRunner* run : {static_cast<PartitionRunner*>(&pool),
                               static_cast<PartitionRunner*>(&reverse)}) {
    for (std::size_t parts : {1u, 2u, 3u, 4u, 7u}) {
      SCOPED_TRACE(::testing::Message() << "parts " << parts);
      CacheSim c(8 * 4 * 128, 4, 128);
      CacheSim serial(8 * 4 * 128, 4, 128);
      auto stream = [&](auto&& touch) {
        for (uint64_t i = 0; i < 40; ++i)
          touch((bad0 - 40 + i) * 128, 128, i % 3 == 0);
        touch((bad0 - 12) * 128, 20 * 128, true);
      };
      EXPECT_THROW(c.replay(parts, *run,
                            [&](CacheSim::ReplaySink& sink) {
                              stream([&](uint64_t a, std::size_t b, bool w) {
                                sink.access(a, b, w);
                              });
                            }),
                   std::runtime_error);
      EXPECT_THROW(stream([&](uint64_t a, std::size_t b, bool w) {
                     serial.access(a, b, w);
                   }),
                   std::runtime_error);
      EXPECT_EQ(counters(c), counters(serial));
      for (uint64_t i = 0; i < 48; ++i)
        EXPECT_EQ(c.access((bad0 - 48 + i) * 128, 1, false),
                  serial.access((bad0 - 48 + i) * 128, 1, false));
      EXPECT_EQ(counters(c), counters(serial));
    }
  }
}

TEST(CacheSimPartition, ConcurrentReplaysOnSeparateSimulatorsMatchSerial) {
  // Two threads replay through the default entry point at once: one
  // holds the pool, the other runs its partitions inline. Both must
  // match the serial loop.
  const std::size_t cap = std::size_t{1} << 20;  // 512 sets x 16 ways
  std::vector<Step> streams[2] = {random_stream(128, 512 * 16, 40, 3000),
                                  random_stream(128, 512 * 16, 41, 3000)};
  std::vector<std::size_t> want[2], got[2];
  for (int t = 0; t < 2; ++t) {
    CacheSim serial(cap);
    for (const Step& s : streams[t]) {
      if (s.reset) serial.reset();
      else serial.access(s.addr, s.bytes, s.is_write);
    }
    want[t] = counters(serial);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      CacheSim c(cap);
      for (const std::vector<Step>& k : kernels_of(streams[t], 50)) {
        if (k.front().reset) c.reset();
        c.replay([&](CacheSim::ReplaySink& sink) {
          for (const Step& s : k)
            if (!s.reset) sink.access(s.addr, s.bytes, s.is_write);
        });
      }
      got[t] = counters(c);
    });
  go.store(true);
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(got[0], want[0]);
  EXPECT_EQ(got[1], want[1]);
}

// --- Transaction coalescing (paper Fig. 8). ---

TEST(Coalesce, Fp32ScalarIsFullyUtilized) {
  EXPECT_EQ(transactions_per_row(32, Precision::kFP32, false), 1u);
  EXPECT_EQ(transactions_per_row(256, Precision::kFP32, false), 8u);
  EXPECT_EQ(transaction_utilization(Precision::kFP32, false), 1.0);
}

TEST(Coalesce, Fp16ScalarSameCountHalfUtilization) {
  // The paper's key observation: scalar FP16 issues the same NUMBER of
  // transactions as FP32 at 50% utilization.
  for (std::size_t c : {32u, 64u, 128u, 256u}) {
    EXPECT_EQ(transactions_per_row(c, Precision::kFP16, false),
              transactions_per_row(c, Precision::kFP32, false))
        << c;
  }
  EXPECT_EQ(transaction_utilization(Precision::kFP16, false), 0.5);
}

TEST(Coalesce, Fp16VectorizedHalvesTransactions) {
  for (std::size_t c : {64u, 128u, 256u}) {
    EXPECT_EQ(transactions_per_row(c, Precision::kFP16, true) * 2,
              transactions_per_row(c, Precision::kFP16, false))
        << c;
  }
  EXPECT_EQ(transaction_utilization(Precision::kFP16, true), 1.0);
}

TEST(Coalesce, Int8VectorizedQuartersTransactions) {
  EXPECT_EQ(transactions_per_row(256, Precision::kINT8, true), 2u);
  EXPECT_EQ(transactions_per_row(256, Precision::kINT8, false), 8u);
  EXPECT_EQ(transaction_utilization(Precision::kINT8, false), 0.25);
}

TEST(Coalesce, PartialRowsRoundUp) {
  EXPECT_EQ(transactions_per_row(1, Precision::kFP32, false), 1u);
  EXPECT_EQ(transactions_per_row(33, Precision::kFP32, false), 2u);
}

// --- Matmul utilization / kernel cost. ---

TEST(CostModel, UtilizationIncreasesWithEveryDimension) {
  const CostModel cm(rtx2080ti());
  const Precision p = Precision::kFP16;
  EXPECT_LT(cm.mm_utilization(1000, 64, 64, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LT(cm.mm_utilization(50000, 16, 64, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LT(cm.mm_utilization(50000, 64, 16, p),
            cm.mm_utilization(50000, 64, 64, p));
  EXPECT_LE(cm.mm_utilization(1e9, 1e9, 1e9, p), rtx2080ti().max_mm_util);
}

TEST(CostModel, Table2UtilizationAnchors) {
  // Calibration anchors from the paper's Table 2 (2080Ti, FP16):
  // separate per-offset GEMMs run at ~30% utilization, adaptive grouping
  // at ~44% — a ~1.4-1.5x ratio. The absolute fractions here sit slightly
  // above the paper's (to keep narrow-channel layers at credible absolute
  // TFLOP/s); the ratio is the anchor that must hold.
  const CostModel cm(rtx2080ti());
  const double separate = cm.mm_utilization(1e4, 64, 64, Precision::kFP16);
  const double grouped = cm.mm_utilization(1e5, 64, 64, Precision::kFP16);
  EXPECT_NEAR(separate, 0.38, 0.10);
  EXPECT_NEAR(grouped, 0.56, 0.12);
  EXPECT_GT(grouped / separate, 1.3);
  EXPECT_LT(grouped / separate, 1.7);
}

TEST(CostModel, Fp16UtilizationFractionBelowFp32AtSameShape) {
  // A faster unit needs a bigger workload to saturate: at the same GEMM
  // shape the FP16 utilization *fraction* is lower (the achieved TFLOP/s
  // is still never lower).
  const CostModel cm(rtx2080ti());
  const double u32 = cm.mm_utilization(2e4, 64, 64, Precision::kFP32);
  const double u16 = cm.mm_utilization(2e4, 64, 64, Precision::kFP16);
  EXPECT_LT(u16, u32);
  EXPECT_GE(u16 * cm.peak_tflops(Precision::kFP16),
            u32 * cm.peak_tflops(Precision::kFP32) * 0.999);
}

TEST(CostModel, SmallGemmFp16GivesAlmostNoSpeedup) {
  // Why the 1080Ti loses only ~11% of the speedup (§5.2): small irregular
  // GEMMs can't exploit the tensor-core peak.
  const CostModel cm(rtx2080ti());
  const double t32 = cm.mm(2000, 32, 32, Precision::kFP32).seconds;
  const double t16 = cm.mm(2000, 32, 32, Precision::kFP16).seconds;
  EXPECT_LT(t32 / t16, 1.35);
  // Large regular GEMMs do benefit substantially.
  const double b32 = cm.mm(500000, 256, 256, Precision::kFP32).seconds;
  const double b16 = cm.mm(500000, 256, 256, Precision::kFP16).seconds;
  EXPECT_GT(b32 / b16, 1.5);
}

TEST(CostModel, SmallGemmsAreLaunchBound) {
  const CostModel cm(rtx2080ti());
  const KernelCost kc = cm.mm(16, 16, 16, Precision::kFP16);
  EXPECT_GT(kc.seconds, cm.launch_seconds() * 0.99);
  EXPECT_LT(kc.seconds, cm.launch_seconds() * 1.5);
}

TEST(CostModel, BmmOneBatchEqualsMm) {
  const CostModel cm(rtx3090());
  const KernelCost a = cm.mm(5000, 64, 64, Precision::kFP16);
  const KernelCost b = cm.bmm(1, 5000, 64, 64, Precision::kFP16);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.flops, b.flops);
}

TEST(CostModel, BatchingSmallGemmsBeatsSeparate) {
  // The heart of Fig. 7: 8 equal small GEMMs run faster as one bmm.
  const CostModel cm(rtx2080ti());
  const double separate =
      8 * cm.mm(2000, 64, 64, Precision::kFP16).seconds;
  const double batched = cm.bmm(8, 2000, 64, 64, Precision::kFP16).seconds;
  EXPECT_LT(batched, separate);
}

TEST(CostModel, PaddingWasteCanMakeBmmLose) {
  // One huge problem + 7 tiny ones padded to it: bmm wastes ~7x FLOPs.
  const CostModel cm(rtx2080ti());
  double separate = cm.mm(400000, 128, 128, Precision::kFP16).seconds;
  for (int i = 0; i < 7; ++i)
    separate += cm.mm(2000, 128, 128, Precision::kFP16).seconds;
  const double batched =
      cm.bmm(8, 400000, 128, 128, Precision::kFP16).seconds;
  EXPECT_GT(batched, separate);
}

TEST(CostModel, Fp16PeaksOnlyOnTensorCoreDevices) {
  EXPECT_GT(CostModel(rtx2080ti()).peak_tflops(Precision::kFP16),
            CostModel(rtx2080ti()).peak_tflops(Precision::kFP32));
  EXPECT_EQ(CostModel(gtx1080ti()).peak_tflops(Precision::kFP16),
            CostModel(gtx1080ti()).peak_tflops(Precision::kFP32));
}

TEST(CostModel, FlopsAccountPadding) {
  const CostModel cm(rtx3090());
  const KernelCost kc = cm.bmm(4, 1000, 32, 32, Precision::kFP32);
  EXPECT_DOUBLE_EQ(kc.flops, 2.0 * 4 * 1000 * 32 * 32);
}

TEST(CostModel, ZeroSizedKernelsAreFree) {
  const CostModel cm(rtx3090());
  EXPECT_EQ(cm.mm(0, 64, 64, Precision::kFP32).seconds, 0.0);
  EXPECT_EQ(cm.bmm(0, 10, 64, 64, Precision::kFP32).seconds, 0.0);
}

TEST(DeviceSpecs, PaperOrderingsHold) {
  // Bandwidth and compute both increase 1080Ti -> 2080Ti -> 3090.
  const auto d1 = gtx1080ti(), d2 = rtx2080ti(), d3 = rtx3090();
  EXPECT_LT(d1.dram_bandwidth_gbps, d2.dram_bandwidth_gbps);
  EXPECT_LT(d2.dram_bandwidth_gbps, d3.dram_bandwidth_gbps);
  EXPECT_LT(d1.peak_fp32_tflops, d2.peak_fp32_tflops);
  EXPECT_FALSE(d1.has_fp16_tensor_cores);
  EXPECT_TRUE(d2.has_fp16_tensor_cores);
  // 2080Ti L2 is 5.5MB (the paper quotes this).
  EXPECT_DOUBLE_EQ(d2.l2_bytes, 5.5 * 1024 * 1024);
}

TEST(Timeline, AccumulatesAndAggregates) {
  Timeline t;
  t.add(Stage::kGather, 0.001);
  t.add(Stage::kScatter, 0.002);
  t.add(Stage::kMatMul, 0.004);
  t.add_flops(8e9);
  EXPECT_DOUBLE_EQ(t.data_movement_seconds(), 0.003);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 0.007);
  EXPECT_NEAR(t.matmul_tflops(), 2.0, 1e-9);
  Timeline u;
  u.add(Stage::kGather, 0.001);
  t += u;
  EXPECT_DOUBLE_EQ(t.stage_seconds(Stage::kGather), 0.002);
  EXPECT_NEAR(t.fps(), 1.0 / 0.008, 1e-9);
}

}  // namespace
}  // namespace ts
