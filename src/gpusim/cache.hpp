// Set-associative LRU cache simulator (models the GPU L2).
//
// Paper §4.3.2 argues that the weight-stationary gather/scatter order
// cannot reuse cached features (the working set N1 > 40MB vastly exceeds
// the 5.5MB L2 of an RTX 2080Ti, and indices per weight are unique), while
// the fused locality-aware order achieves near-perfect reuse. We replay
// the engines' actual feature-row access streams through this simulator to
// *measure* those hit rates instead of assuming them.
//
// Write handling matches GPU L2 semantics: a write miss allocates the line
// and marks it dirty without fetching from DRAM (streaming stores don't
// read-modify-write whole lines); DRAM write traffic is counted at
// eviction time as write-backs.
//
// This replay is the profiled hot path of every simulate_cache run (tens
// of millions of line touches per forward pass), so the layout is built
// for replay speed: each set keeps its ways contiguously in
// most-recently-used-first order, which makes a hit a short prefix scan,
// makes the LRU victim simply the back slot, and replaces per-way
// LRU tick counters with a rotate of the prefix. Dirty flags are one
// bitmask per set, rotated alongside. Line/set arithmetic is shift/mask
// (line size and set count are powers of two), and the per-line step is
// header-inline so replay loops pay no call overhead. The tag probe
// compares four slots per SSE2 instruction (each set's slots are padded
// to a multiple of four with never-matching invalid tags), and an access
// spanning more lines than the whole cache — the matmul slab streams —
// is counted per set in closed form (see access_range). The modeled
// behavior — hits, misses, write-backs, DRAM bytes — is unchanged
// relative to a tick-based LRU scan; only the host cost of computing it
// is.
//
// The engine's replay loops go through replay(), which splits the work
// by set over the host pool (tensor/host_pool.hpp). LRU sets are
// independent: a set's state depends only on the order of its own
// touches. So the calling thread walks the kernel's stream and emits each
// line, in stream order, into the bucket of the partition that owns its
// set; each partition replays its own bucket in order on a pool thread,
// while the caller fills the next bank of buckets; counters are summed
// as integers. Every hit, miss, write-back and DRAM byte is the one a
// serial access() loop produces, at any partition count. A caller that
// does not get the pool replays at one partition, which is that serial
// loop: bucketing lines nobody else replays only adds a pass.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <vector>

#include "tensor/host_pool.hpp"

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

namespace ts {

class CacheSim {
 public:
  /// `capacity_bytes` is rounded down to a power-of-two number of sets.
  /// 128-byte lines match the GPU memory transaction size (`line_bytes`
  /// is rounded down to a power of two for shift addressing; `ways` is
  /// clamped to [1, 64] so a set's dirty flags fit one 64-bit mask).
  CacheSim(std::size_t capacity_bytes, int ways = 16,
           std::size_t line_bytes = 128);

  /// Touches [addr, addr+bytes). Returns the number of line misses (of
  /// either kind). An access spanning more lines than the whole cache is
  /// counted per set in closed form (access_range), with the same result
  /// as touching its lines one by one.
  std::size_t access(uint64_t addr, std::size_t bytes, bool is_write) {
    if (bytes == 0) return 0;
    const uint64_t first = addr >> line_shift_;
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    if (last - first >= capacity_lines_)
      return access_range(first, last, is_write);
    std::size_t line_misses = 0;
    for (uint64_t l = first; l <= last; ++l)
      line_misses += access_line(l, is_write, counters_);
    return line_misses;
  }

  class ReplaySink;

  /// Replays one kernel's access stream: `stream(sink)` makes the
  /// stream's accesses, in order, through sink.access(addr, bytes,
  /// is_write), which means what access() means. The counters end
  /// exactly as if each access had been passed to access(); the work is
  /// split by set over the host pool. If an access overflows the tag
  /// range, std::runtime_error is thrown and the cache and its counters
  /// are left as the serial loop leaves them when it throws: every
  /// access before it replayed, and of the bad access itself the lines
  /// before the first overflowing one if it spans at most the cache's
  /// lines, none otherwise. If `stream` itself throws, the cache is left
  /// valid but holding an unspecified prefix of the stream.
  template <class Stream>
  void replay(Stream&& stream) {
    PoolRunner pool;
    const std::size_t threads = pool.threads();
    replay(threads > 1 ? kPartitionsPerThread * threads : 1, pool, stream);
  }

  /// replay() over `parts` set partitions (clamped to [1, sets]) whose
  /// jobs `run` executes. One partition is the serial access() loop.
  template <class Stream>
  void replay(std::size_t parts, PartitionRunner& run, Stream&& stream);

  /// Set partitions per pool thread in replay(): more partitions than
  /// threads let the workers even out while the caller emits lines.
  static constexpr std::size_t kPartitionsPerThread = 2;

  void reset();

  std::size_t hits() const { return counters_.hits; }
  std::size_t read_misses() const { return counters_.read_misses; }
  std::size_t write_misses() const { return counters_.write_misses; }
  std::size_t writebacks() const { return counters_.writebacks; }
  /// DRAM bytes moved: read-miss line fills plus dirty write-backs.
  double dram_bytes() const {
    return static_cast<double>(
        (counters_.read_misses + counters_.writebacks) * line_bytes_);
  }
  std::size_t line_bytes() const { return line_bytes_; }
  double hit_rate() const {
    const std::size_t total =
        counters_.hits + counters_.read_misses + counters_.write_misses;
    return total ? static_cast<double>(counters_.hits) /
                       static_cast<double>(total)
                 : 0.0;
  }

 private:
  struct Counters {
    std::size_t hits = 0;
    std::size_t read_misses = 0;
    std::size_t write_misses = 0;
    std::size_t writebacks = 0;

    std::size_t misses() const { return read_misses + write_misses; }
    Counters& operator+=(const Counters& o) {
      hits += o.hits;
      read_misses += o.read_misses;
      write_misses += o.write_misses;
      writebacks += o.writebacks;
      return *this;
    }
  };
  /// One partition's counters, alone on its cache line(s).
  struct alignas(64) PartCounters {
    Counters c;
  };

  /// Stored tags are (line_addr >> set_shift_) + 1, so 0 can mean
  /// "invalid way". Tags are kept in 32 bits to halve the scan traffic:
  /// the simulated slabs live below 2^42, so real tags stay far below
  /// 2^32 (an overflowing tag throws — see access_line). Invalid slots
  /// only ever sink toward the back of the MRU order, which reproduces
  /// the invalid-way-first victim preference. The per-set padding slots
  /// past ways_ also hold kInvalidTag, so the 4-wide probe never matches
  /// them.
  static constexpr uint32_t kInvalidTag = 0;

  /// Bit i of the result is set iff slots[i] == tag, for i in [0, 4).
  static unsigned match4(const uint32_t* slots, uint32_t tag) {
#if defined(__x86_64__)
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots));
    const __m128i eq =
        _mm_cmpeq_epi32(v, _mm_set1_epi32(static_cast<int>(tag)));
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(eq)));
#else
    return unsigned{slots[0] == tag} | unsigned{slots[1] == tag} << 1 |
           unsigned{slots[2] == tag} << 2 | unsigned{slots[3] == tag} << 3;
#endif
  }

  std::size_t access_line(uint64_t line_addr, bool is_write, Counters& c) {
    const uint64_t wide_tag = (line_addr >> set_shift_) + 1;
    // Always-on guard (a never-taken, perfectly predicted branch): a
    // truncated tag would silently alias distinct lines and corrupt the
    // modeled hit/miss counts, so overflow must be loud in Release too.
    if (wide_tag > kMaxTag) throw_tag_overflow(line_addr);
    return touch(static_cast<std::size_t>(line_addr) & (num_sets_ - 1),
                 static_cast<uint32_t>(wide_tag), is_write, c);
  }

  /// One line touch of `set` with an in-range stored tag.
  std::size_t touch(std::size_t set, uint32_t tag, bool is_write,
                    Counters& c) {
    uint32_t* tags = tags_.data() + set * stride_;
    uint64_t& dirty = dirty_[set];
    const uint64_t wbit = is_write ? 1 : 0;

    // Hit: probe four slots at a time in MRU order (hot lines sit near
    // the front; padding slots never match), then rotate slots [0, p] one
    // step so the hit line becomes slot 0.
    if (tags[0] == tag) {  // repeat touch of the most recent line
      dirty |= wbit;
      ++c.hits;
      return 0;
    }
    for (std::size_t q = 0; q < stride_; q += 4) {
      const unsigned m = match4(tags + q, tag);
      if (m == 0) continue;
      const std::size_t p = q + static_cast<std::size_t>(std::countr_zero(m));
      std::memmove(tags + 1, tags, p * sizeof(uint32_t));
      tags[0] = tag;
      const uint64_t low = dirty & ((uint64_t{1} << p) - 1);
      const uint64_t hit_dirty = (dirty >> p) & 1;
      dirty = (dirty & ~((uint64_t{2} << p) - 1)) | (low << 1) |
              (hit_dirty | wbit);
      ++c.hits;
      return 0;
    }
    return install_line(tags, dirty, tag, is_write, c);
  }

  std::size_t install_line(uint32_t* tags, uint64_t& dirty, uint32_t tag,
                           bool is_write, Counters& c);
  std::size_t access_range(uint64_t first, uint64_t last, bool is_write);
  /// Touches, for each set in [set_lo, set_hi), that set's lines of the
  /// range [first, last] in ascending order: exactly what touching the
  /// whole range line by line does to those sets.
  void walk_range(uint64_t first, uint64_t last, bool is_write,
                  std::size_t set_lo, std::size_t set_hi, Counters& c);
  /// Replays bucket entries [e, end) of the partition owning sets
  /// [set_lo, set_hi).
  void replay_entries(const uint64_t* e, const uint64_t* end,
                      std::size_t set_lo, std::size_t set_hi, Counters& c);
  [[noreturn]] void throw_tag_overflow(uint64_t line_addr) const;

  static constexpr uint64_t kMaxTag = 0xffffffffull;
  /// Entries per bank of buckets; a bank's `parts` buckets split it.
  /// The sink emits into one bank while the pool replays the other, so a
  /// replay's scratch is two banks whatever the partition count.
  static constexpr std::size_t kBankEntries = std::size_t{1} << 14;

  std::size_t line_bytes_;
  unsigned line_shift_ = 7;  // log2(line_bytes_)
  std::size_t num_sets_;
  unsigned set_shift_ = 0;   // log2(num_sets_)
  std::size_t ways_;
  std::size_t stride_;           // ways_ rounded up to a multiple of 4
  std::size_t capacity_lines_;   // num_sets_ * ways_
  // [num_sets_ * stride_]: per set, ways_ slots MRU-first, then
  // stride_ - ways_ padding slots that always hold kInvalidTag.
  std::vector<uint32_t> tags_;
  std::vector<uint64_t> dirty_;  // [num_sets_], bit w = slot w dirty
  Counters counters_;

  /// Page-backed replay scratch (see ReplaySink), mapped on the calling
  /// thread by the first replay and kept for the simulator's lifetime.
  /// It comes straight from the OS, not the malloc heap: with the small
  /// per-partition arrays allocated from the heap once per scan, the
  /// det-costonly peak RSS moved by 8.6 MiB between partition counts
  /// through heap layout alone. A copy starts empty.
  class ReplayScratch {
   public:
    ReplayScratch() = default;
    ReplayScratch(const ReplayScratch&) noexcept {}
    ReplayScratch& operator=(const ReplayScratch&) noexcept { return *this; }
    ~ReplayScratch();

    /// At least `bytes` of page-aligned memory.
    void* get(std::size_t bytes);

   private:
    void* base_ = nullptr;
    std::size_t bytes_ = 0;
  };
  ReplayScratch scratch_;
};

/// Emits one replay stream's lines, in stream order, into the partition
/// buckets of the current bank (see CacheSim::replay); with one partition
/// it touches them at once instead. The lines of an
/// access spanning fewer lines than there are sets go to their sets'
/// partitions; a longer access is one range entry in every bucket, which
/// each partition walks over its own sets. When a bucket is full, the
/// bank is handed to the runner and emission continues into the other
/// bank, once the runner has finished with that one.
class CacheSim::ReplaySink {
 public:
  /// Appends [addr, addr + bytes) to the stream, as CacheSim::access.
  /// With one partition there is no thread to hand lines to, so the
  /// access is touched at once, through CacheSim::access itself.
  void access(uint64_t addr, std::size_t bytes, bool is_write) {
    if (parts_ == 1) {
      sim_.access(addr, bytes, is_write);
      return;
    }
    if (bytes == 0) return;
    const uint64_t first = addr >> line_shift_;
    const uint64_t last = (addr + bytes - 1) >> line_shift_;
    if (last - first >= set_mask_) {
      push_range(first, last, is_write);
      return;
    }
    for (uint64_t l = first; l <= last; ++l) push_line(l, is_write);
  }

  ReplaySink(const ReplaySink&) = delete;
  ReplaySink& operator=(const ReplaySink&) = delete;
  ~ReplaySink();

 private:
  friend class CacheSim;

  /// One bank's job: partition p replays bucket p.
  struct BankJob {
    ReplaySink* sink;
    std::size_t bank;
    void operator()(std::size_t p) const { sink->replay_bucket(bank, p); }
  };

  ReplaySink(CacheSim& sim, std::size_t parts, PartitionRunner& run);

  void push_line(uint64_t line, bool is_write) {
    const uint64_t tag = (line >> set_shift_) + 1;
    if (tag > kMaxTag) overflow(line);
    const uint64_t set = line & set_mask_;
    const std::size_t p = static_cast<std::size_t>((set * parts_) >> set_shift_);
    std::size_t f = fill_[p];
    if (f == cap_) {
      submit();
      f = 0;
    }
    bucket_[p * cap_ + f] = set << 33 | tag << 1 | uint64_t{is_write};
    fill_[p] = f + 1;
  }

  void push_range(uint64_t first, uint64_t last, bool is_write);
  /// Replays everything before the overflowing line, then throws: the
  /// state a serial access() loop leaves.
  [[noreturn]] void overflow(uint64_t line);
  /// Hands the current bank to the runner and switches banks.
  void submit();
  /// Joins the bank in flight, if any, and folds its counters.
  void settle();
  /// Replays everything emitted so far.
  void finish();
  void select_bank(std::size_t bank);
  void replay_bucket(std::size_t bank, std::size_t p);

  CacheSim& sim_;
  PartitionRunner& run_;
  const std::size_t parts_;
  const std::size_t cap_;  // entries per bucket
  // Copies of the geometry for the per-line path.
  const unsigned line_shift_;
  const unsigned set_shift_;
  const uint64_t set_mask_;
  // Scratch (CacheSim::scratch_), for banks b = 0, 1: the counter block
  // and fill of bucket p at [b * parts_ + p], and bucket p's entries at
  // buckets_[b * kBankEntries + p * cap_ ...]. A line entry is
  // (set << 33) | (tag << 1) | is_write with tag >= 1; an entry whose tag
  // field is 0 marks a range and is followed by its first and last line.
  PartCounters* counters_;
  std::size_t* fills_;
  uint64_t* buckets_;
  BankJob jobs_[2];
  std::size_t bank_ = 0;
  bool in_flight_ = false;  // the other bank is with the runner
  uint64_t* bucket_ = nullptr;    // current bank's entries
  std::size_t* fill_ = nullptr;   // current bank's fills
};

template <class Stream>
void CacheSim::replay(std::size_t parts, PartitionRunner& run,
                      Stream&& stream) {
  ReplaySink sink(*this, parts, run);
  stream(sink);
  sink.finish();
}

}  // namespace ts
