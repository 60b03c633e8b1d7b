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
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <vector>

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
      line_misses += access_line(l, is_write);
    return line_misses;
  }

  void reset();

  std::size_t hits() const { return hits_; }
  std::size_t read_misses() const { return read_misses_; }
  std::size_t write_misses() const { return write_misses_; }
  std::size_t writebacks() const { return writebacks_; }
  /// DRAM bytes moved: read-miss line fills plus dirty write-backs.
  double dram_bytes() const {
    return static_cast<double>((read_misses_ + writebacks_) * line_bytes_);
  }
  std::size_t line_bytes() const { return line_bytes_; }
  double hit_rate() const {
    const std::size_t total = hits_ + read_misses_ + write_misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
  }

 private:
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

  std::size_t access_line(uint64_t line_addr, bool is_write) {
    const std::size_t set =
        static_cast<std::size_t>(line_addr) & (num_sets_ - 1);
    uint32_t* tags = tags_.data() + set * stride_;
    uint64_t& dirty = dirty_[set];
    const uint64_t wide_tag = (line_addr >> set_shift_) + 1;
    // Always-on guard (a never-taken, perfectly predicted branch): a
    // truncated tag would silently alias distinct lines and corrupt the
    // modeled hit/miss counts, so overflow must be loud in Release too.
    if (wide_tag > 0xffffffffull) throw_tag_overflow(line_addr);
    const uint32_t tag = static_cast<uint32_t>(wide_tag);
    const uint64_t wbit = is_write ? 1 : 0;

    // Hit: probe four slots at a time in MRU order (hot lines sit near
    // the front; padding slots never match), then rotate slots [0, p] one
    // step so the hit line becomes slot 0.
    if (tags[0] == tag) {  // repeat touch of the most recent line
      dirty |= wbit;
      ++hits_;
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
      ++hits_;
      return 0;
    }
    return install_line(tags, dirty, tag, is_write);
  }

  std::size_t install_line(uint32_t* tags, uint64_t& dirty, uint32_t tag,
                           bool is_write);
  std::size_t access_range(uint64_t first, uint64_t last, bool is_write);
  [[noreturn]] void throw_tag_overflow(uint64_t line_addr) const;

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
  std::size_t hits_ = 0;
  std::size_t read_misses_ = 0;
  std::size_t write_misses_ = 0;
  std::size_t writebacks_ = 0;
};

}  // namespace ts
