// 4-D voxel coordinates (batch, x, y, z) and their packed 64-bit keys.
//
// Sparse convolution's mapping step (paper §2.1) records nonzero input
// coordinates in a hash table keyed by the coordinate; "the hash function
// can simply be flattening the coordinate of each dimension into an
// integer". We pack (b, x, y, z) into one uint64 (10+18+18+18 bits) so a
// single integer compare/hash handles the full coordinate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace ts {

/// A voxel coordinate: batch index plus 3 spatial dimensions.
struct Coord {
  int32_t b = 0;
  int32_t x = 0;
  int32_t y = 0;
  int32_t z = 0;

  friend bool operator==(const Coord&, const Coord&) = default;
  friend auto operator<=>(const Coord&, const Coord&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Coord& c) {
  return os << "(" << c.b << "," << c.x << "," << c.y << "," << c.z << ")";
}

/// Spatial coordinates must fit in 18 signed bits after biasing.
inline constexpr int32_t kCoordSpatialMin = -(1 << 17);
inline constexpr int32_t kCoordSpatialMax = (1 << 17) - 1;
inline constexpr int32_t kCoordBatchMax = (1 << 10) - 1;

/// Packs a coordinate into a unique 64-bit key (bijective on the valid
/// range). Layout: [batch:10][x:18][y:18][z:18].
inline uint64_t pack_coord(const Coord& c) {
  const uint64_t b = static_cast<uint32_t>(c.b) & 0x3ffu;
  const uint64_t x = static_cast<uint32_t>(c.x - kCoordSpatialMin) & 0x3ffffu;
  const uint64_t y = static_cast<uint32_t>(c.y - kCoordSpatialMin) & 0x3ffffu;
  const uint64_t z = static_cast<uint32_t>(c.z - kCoordSpatialMin) & 0x3ffffu;
  return (b << 54) | (x << 36) | (y << 18) | z;
}

inline Coord unpack_coord(uint64_t key) {
  Coord c;
  c.z = static_cast<int32_t>(key & 0x3ffffu) + kCoordSpatialMin;
  c.y = static_cast<int32_t>((key >> 18) & 0x3ffffu) + kCoordSpatialMin;
  c.x = static_cast<int32_t>((key >> 36) & 0x3ffffu) + kCoordSpatialMin;
  c.b = static_cast<int32_t>((key >> 54) & 0x3ffu);
  return c;
}

inline bool coord_in_packable_range(const Coord& c) {
  const auto ok = [](int32_t v) {
    return v >= kCoordSpatialMin && v <= kCoordSpatialMax;
  };
  return c.b >= 0 && c.b <= kCoordBatchMax && ok(c.x) && ok(c.y) && ok(c.z);
}

/// Computes the inclusive coordinate bounding box of a point set.
/// Returns false (and leaves lo/hi untouched) for an empty set.
inline bool coord_bounds(const std::vector<Coord>& coords, Coord& lo,
                         Coord& hi) {
  if (coords.empty()) return false;
  lo = hi = coords[0];
  for (const Coord& c : coords) {
    lo.b = std::min(lo.b, c.b);
    lo.x = std::min(lo.x, c.x);
    lo.y = std::min(lo.y, c.y);
    lo.z = std::min(lo.z, c.z);
    hi.b = std::max(hi.b, c.b);
    hi.x = std::max(hi.x, c.x);
    hi.y = std::max(hi.y, c.y);
    hi.z = std::max(hi.z, c.z);
  }
  return true;
}

/// 64-bit mix (splitmix64 finalizer) — the hash function applied to packed
/// coordinate keys in the conventional hashmap.
inline uint64_t hash_key(uint64_t k) {
  k += 0x9e3779b97f4a7c15ull;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
  return k ^ (k >> 31);
}

struct CoordHash {
  std::size_t operator()(const Coord& c) const {
    return static_cast<std::size_t>(hash_key(pack_coord(c)));
  }
};

}  // namespace ts
