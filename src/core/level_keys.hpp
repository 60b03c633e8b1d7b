// Coordinate levels in packed-key order.
//
// Map search's merge-join (core/kernel_map.cpp) reads a coordinate set as
// its ascending packed keys plus its bounding box, and output-coordinate
// construction (core/downsample.cpp) ends in a sort of packed keys. Both
// sorts are one LSD radix sort; a level's keys and bounds are computed
// once and kept beside its coordinates (TensorCache::level_keys).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hash/coords.hpp"

namespace ts {

/// Sorts keys[0, n) ascending with a stable LSD radix sort over 8-bit
/// digits, moving pos[0, n) along with the keys when `pos` is non-null.
/// All eight digit histograms are counted in one pass, and a digit on
/// which every key agrees is skipped. `key_tmp` (and `pos_tmp`, with
/// `pos`) is n elements of scratch. Returns the buffer that holds the
/// sorted keys, `keys` or `key_tmp`; the positions are in the matching
/// buffer, `pos` or `pos_tmp`.
uint64_t* radix_sort_keys(uint64_t* keys, uint64_t* key_tmp, int32_t* pos,
                          int32_t* pos_tmp, std::size_t n);

/// One coordinate set in packed-key order, with its bounds. A set that
/// is already strictly ascending (every downsample_coords output) keeps
/// its order and `pos` stays empty; otherwise its (key, position) pairs
/// are sorted stably, so equal coordinates keep ascending position order.
struct LevelKeys {
  std::vector<uint64_t> keys{~uint64_t{0}};  // ascending keys, then ~0
  std::vector<int32_t> pos;  // original position of each key, if re-sorted
  Coord lo{}, hi{};          // inclusive bounds; unset for an empty set

  std::size_t size() const { return keys.size() - 1; }
  int32_t position(std::size_t i) const {
    return pos.empty() ? static_cast<int32_t>(i) : pos[i];
  }
};

/// Builds the level record of `coords`: packs and bounds the set in one
/// pass, then radix-sorts it unless it is already strictly ascending.
LevelKeys level_keys(const std::vector<Coord>& coords);

}  // namespace ts
