#include "data/voxelize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "hash/coords.hpp"

namespace ts {

SparseTensor voxelize(const std::vector<Point3>& points,
                      const VoxelSpec& voxels, int batch) {
  // Always-on boundary contracts (ROADMAP "Hardening"): identical in
  // Debug and Release. A bad voxel size or batch index would otherwise
  // quantize points to garbage cells or alias packed coordinate keys.
  if (!(voxels.voxel_size_m > 0) || !std::isfinite(voxels.voxel_size_m))
    throw std::invalid_argument(
        "voxelize: voxel_size_m must be positive and finite, got " +
        std::to_string(voxels.voxel_size_m));
  if (batch < 0 || batch > kCoordBatchMax)
    throw std::invalid_argument(
        "voxelize: batch index " + std::to_string(batch) +
        " outside the packable range [0, " +
        std::to_string(kCoordBatchMax) + "]");
  const float inv = static_cast<float>(1.0 / voxels.voxel_size_m);

  struct Accum {
    std::size_t idx;
    float x = 0, y = 0, z = 0, inten = 0, time = 0;
    int count = 0;
  };
  std::unordered_map<uint64_t, Accum> grid;
  grid.reserve(points.size());

  std::vector<Coord> coords;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point3& p = points[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z))
      throw std::invalid_argument(
          "voxelize: point " + std::to_string(i) +
          " has a non-finite coordinate");
    const Coord c{batch, static_cast<int32_t>(std::floor(p.x * inv)),
                  static_cast<int32_t>(std::floor(p.y * inv)),
                  static_cast<int32_t>(std::floor(p.z * inv))};
    auto [it, inserted] = grid.try_emplace(pack_coord(c));
    if (inserted) {
      it->second.idx = coords.size();
      coords.push_back(c);
    }
    Accum& a = it->second;
    a.x += p.x * inv - static_cast<float>(c.x);
    a.y += p.y * inv - static_cast<float>(c.y);
    a.z += p.z * inv - static_cast<float>(c.z);
    a.inten += p.intensity;
    a.time += p.time;
    a.count += 1;
  }

  // Shift coordinates to be nonnegative.
  Coord lo{batch, 0, 0, 0};
  if (!coords.empty()) {
    lo = coords[0];
    Coord hi = coords[0];
    for (const Coord& c : coords) {
      lo.x = std::min(lo.x, c.x);
      lo.y = std::min(lo.y, c.y);
      lo.z = std::min(lo.z, c.z);
      hi.x = std::max(hi.x, c.x);
      hi.y = std::max(hi.y, c.y);
      hi.z = std::max(hi.z, c.z);
    }
    const int64_t span = std::max(
        {static_cast<int64_t>(hi.x) - lo.x, static_cast<int64_t>(hi.y) - lo.y,
         static_cast<int64_t>(hi.z) - lo.z});
    if (span > kCoordSpatialMax)
      throw std::invalid_argument(
          "voxelize: scan spans " + std::to_string(span) +
          " voxels along one axis, exceeding the packable coordinate "
          "range of " + std::to_string(kCoordSpatialMax) +
          " (increase voxel_size_m or crop the scan)");
    for (Coord& c : coords) {
      c.x -= lo.x;
      c.y -= lo.y;
      c.z -= lo.z;
    }
  }

  Matrix feats(coords.size(), static_cast<std::size_t>(
                                  std::max(voxels.feature_channels, 4)));
  // det-lint: allow(unordered-iter): each voxel writes only its own row
  // a.idx, so visiting order cannot change the features.
  for (const auto& [key, a] : grid) {
    const float n = static_cast<float>(a.count);
    float* row = feats.row(a.idx);
    row[0] = a.x / n - 0.5f;
    row[1] = a.y / n - 0.5f;
    row[2] = a.z / n - 0.5f;
    row[3] = a.inten / n;
    if (feats.cols() >= 5) row[4] = a.time / n;
  }
  return SparseTensor(std::move(coords), std::move(feats));
}

SparseTensor make_input(const LidarSpec& lidar, const VoxelSpec& voxels,
                        uint64_t seed) {
  return voxelize(generate_scan(lidar, seed), voxels);
}

SparseTensor merge_batches(const std::vector<SparseTensor>& scans) {
  if (scans.size() > static_cast<std::size_t>(kCoordBatchMax) + 1)
    throw std::invalid_argument(
        "merge_batches: " + std::to_string(scans.size()) +
        " scans exceed the packable batch range of " +
        std::to_string(kCoordBatchMax + 1));
  std::size_t total = 0;
  std::size_t channels = 0;
  for (std::size_t b = 0; b < scans.size(); ++b) {
    const SparseTensor& s = scans[b];
    if (s.stride() != 1)
      throw std::invalid_argument(
          "merge_batches: scan " + std::to_string(b) + " has stride " +
          std::to_string(s.stride()) +
          "; only stride-1 tensors can be batched");
    if (channels != 0 && s.channels() != channels)
      throw std::invalid_argument(
          "merge_batches: scan " + std::to_string(b) + " has " +
          std::to_string(s.channels()) + " channels but earlier scans have " +
          std::to_string(channels));
    channels = s.channels();
    total += s.num_points();
  }
  std::vector<Coord> coords;
  coords.reserve(total);
  Matrix feats(total, channels);
  std::size_t row = 0;
  for (std::size_t b = 0; b < scans.size(); ++b) {
    const SparseTensor& s = scans[b];
    for (std::size_t i = 0; i < s.num_points(); ++i) {
      Coord c = s.coords()[i];
      c.b = static_cast<int32_t>(b);
      coords.push_back(c);
      std::copy(s.feats().row(i), s.feats().row(i) + channels,
                feats.row(row++));
    }
  }
  return SparseTensor(std::move(coords), std::move(feats));
}

}  // namespace ts
