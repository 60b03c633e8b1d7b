// Kernel map construction — the "Mapping" stage (paper §2.1, Alg. 1, §4.4).
//
// A kernel map M = {(p_j, q_k, W_n)} lists, for every kernel offset n,
// which input point j contributes to which output point k. Map search
// iterates over output points, computes each candidate input coordinate
// r = s*q + delta, and queries the coordinate index (conventional hashmap
// or collision-free grid). For submanifold layers, maps for offset delta
// and -delta are transposes of each other, so only half the offsets need
// searching (§4.2.1 / §4.4 "symmetry of submanifold maps"); the center
// offset is the identity and needs no queries at all.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/conv_config.hpp"
#include "core/kernel_offsets.hpp"
#include "core/level_keys.hpp"
#include "hash/coords.hpp"

namespace ts {

/// Map-search backend selection (paper §4.4 chooses per layer between the
/// conventional hashmap and the collision-free grid).
enum class MapBackend { kHashMap, kGrid };

/// One input-output pair for a given kernel offset.
struct MapEntry {
  int32_t in = 0;   // index into input point list
  int32_t out = 0;  // index into output point list
  friend bool operator==(const MapEntry&, const MapEntry&) = default;
};

/// Instrumentation gathered while building a map (fed to the cost model).
struct MapBuildStats {
  std::size_t queries = 0;        // coordinate index lookups issued
  std::size_t index_accesses = 0; // DRAM accesses those lookups cost
  std::size_t build_accesses = 0; // DRAM accesses to build the index
  bool used_symmetry = false;
  MapBackend backend = MapBackend::kHashMap;
};

/// Per-offset input/output pairs for one convolution layer.
struct KernelMap {
  int kernel_size = 3;
  std::vector<std::vector<MapEntry>> maps;  // [kernel_volume][entries]
  MapBuildStats stats;

  int volume() const { return static_cast<int>(maps.size()); }
  std::size_t size(int n) const { return maps[static_cast<std::size_t>(n)].size(); }
  std::size_t total() const {
    std::size_t t = 0;
    for (const auto& m : maps) t += m.size();
    return t;
  }
  /// Per-offset map sizes (the Figure 12 statistic).
  std::vector<std::size_t> sizes() const {
    std::vector<std::size_t> s;
    s.reserve(maps.size());
    for (const auto& m : maps) s.push_back(m.size());
    return s;
  }
};

struct MapSearchOptions {
  MapBackend backend = MapBackend::kHashMap;
  /// Use the submanifold symmetry to search only half the offsets and
  /// infer the mirrored maps (stride-1 odd-kernel layers only).
  bool use_symmetry = false;
};

/// Builds the kernel map by searching, for every output coordinate q and
/// offset delta, the input coordinate s*q + delta (Alg. 1). For transposed
/// convolutions the relation is inverted: candidate input (q - delta)/s.
///
/// `in_coords` and `out_coords` are both expressed at their own stride
/// level (i.e. already divided by tensor stride). Throws
/// std::invalid_argument for a kernel size or stride below 1, and when
/// symmetric search applies (`use_symmetry` on a submanifold geometry)
/// but the two coordinate sets differ.
KernelMap build_kernel_map(const std::vector<Coord>& in_coords,
                           const std::vector<Coord>& out_coords,
                           const ConvGeometry& geom,
                           const MapSearchOptions& opts);

/// True when a build with this geometry and these options reads its
/// coordinate sets' level records: forward grid builds that search at
/// least one offset (a symmetric k=1 build searches none).
bool map_search_reads_levels(const ConvGeometry& geom,
                             const MapSearchOptions& opts);

/// build_kernel_map on level records the caller keeps: when
/// map_search_reads_levels(geom, opts), `in_level` and `out_level` must
/// be level_keys(in_coords) and level_keys(out_coords); otherwise they
/// are not read and may be null. Same maps and stats as the overload
/// above, which builds the records itself.
KernelMap build_kernel_map(const std::vector<Coord>& in_coords,
                           const std::vector<Coord>& out_coords,
                           const ConvGeometry& geom,
                           const MapSearchOptions& opts,
                           const LevelKeys* in_level,
                           const LevelKeys* out_level);

/// The stats of a grid-backend forward build that searches `searched`
/// offsets for each of `n_out` outputs over `n_in` inputs: one query per
/// (offset, output), and the grid's one-access rule (paper §4.4) for the
/// index. The merge-join and the map a downsample emits
/// (downsample_level_with_map) both take their stats from here.
MapBuildStats grid_forward_stats(std::size_t searched, std::size_t n_in,
                                 std::size_t n_out, bool symmetric);

/// Returns the transpose of `km` (inputs and outputs swapped, offsets
/// mirrored) — how cached downsample maps are reused by the matching
/// transposed convolution in the decoder.
KernelMap transpose_kernel_map(const KernelMap& km);

}  // namespace ts
