// Synthetic LiDAR generator and voxelizer tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "data/lidar.hpp"
#include "data/voxelize.hpp"

namespace ts {
namespace {

TEST(Lidar, DeterministicInSeed) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 100;
  const auto a = generate_scan(spec, 7);
  const auto b = generate_scan(spec, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
    EXPECT_EQ(a[i].z, b[i].z);
  }
}

TEST(Lidar, DifferentSeedsDifferentScenes) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 100;
  const auto a = generate_scan(spec, 1);
  const auto b = generate_scan(spec, 2);
  // Same ray grid but different scene geometry -> different points.
  int diff = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    if (a[i].x != b[i].x) ++diff;
  EXPECT_GT(diff, static_cast<int>(std::min(a.size(), b.size()) / 4));
}

TEST(Lidar, PointsWithinRangeAndScene) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = 200;
  for (const Point3& p : generate_scan(spec, 3)) {
    const double r = std::sqrt(p.x * p.x + p.y * p.y);
    EXPECT_LT(r, spec.max_range_m + 1.0);
    EXPECT_GT(p.z, -1.0);   // nothing below ground
    EXPECT_LT(p.z, 10.0);   // nothing above buildings
    EXPECT_GE(p.intensity, 0.0f);
  }
}

TEST(Lidar, BeamCountsMatchDatasets) {
  EXPECT_EQ(semantic_kitti_spec().beams, 64);
  EXPECT_EQ(nuscenes_spec(1).beams, 32);
  EXPECT_EQ(waymo_spec(1).beams, 64);
  EXPECT_EQ(nuscenes_spec(10).frames, 10);
}

TEST(Lidar, MultiFrameAggregationGrowsPointCount) {
  LidarSpec one = nuscenes_spec(1);
  one.azimuth_steps = 150;
  LidarSpec three = nuscenes_spec(3);
  three.azimuth_steps = 150;
  const auto a = generate_scan(one, 5);
  const auto b = generate_scan(three, 5);
  EXPECT_GT(b.size(), 2 * a.size());
  // Older frames carry a positive time tag.
  float max_time = 0;
  for (const Point3& p : b) max_time = std::max(max_time, p.time);
  EXPECT_GT(max_time, 0.1f);
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t fnv1a(uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Chains the point count and every point's bytes onto `h`.
uint64_t digest_scan(uint64_t h, const std::vector<Point3>& pts) {
  const uint64_t n = pts.size();
  h = fnv1a(h, &n, sizeof(n));
  return fnv1a(h, pts.data(), pts.size() * sizeof(Point3));
}

/// `spec` with a crowded scene: more boxes than the caster keeps on the
/// stack (50) and than one 64-bit mask word holds.
LidarSpec crowded(LidarSpec spec) {
  spec.num_vehicles = 60;
  spec.num_walls = 20;
  return spec;
}

TEST(Lidar, GoldenScanDigests) {
  // Pins every scan bit for bit: point count, order, coordinates,
  // intensity and time. The digests were computed from the brute-force
  // ray caster (every ray against every box); any faster caster must
  // reproduce them. Never refresh them to make a change pass.
  static_assert(sizeof(Point3) == 5 * sizeof(float), "no padding bytes");
  struct Case {
    const char* name;
    LidarSpec spec;
    int azimuth_steps;  // 0 keeps the preset's full resolution
    int frames;         // 0 keeps the preset's frame count
    uint64_t seeds;     // seeds 1..seeds, chained into one digest
    uint64_t expected;
  };
  // Full-resolution presets, then perfbench-scale azimuths over many
  // seeds with several frames, so the sensor origin moves into and
  // around the boxes. The crowded scenes, one also with more azimuth
  // steps than any preset, take the caster's heap scratch.
  const Case cases[] = {
      {"kitti-full", semantic_kitti_spec(), 0, 0, 2, 0x2b64765fbba5e976ull},
      {"nuscenes10-full", nuscenes_spec(10), 0, 0, 1, 0x2e6304600228b49cull},
      {"waymo3-full", waymo_spec(3), 0, 0, 2, 0x8058b9253f3c7eb7ull},
      {"kitti-az45-f3", semantic_kitti_spec(), 45, 3, 100,
       0xafe8ea25d898e809ull},
      {"nuscenes10-az32", nuscenes_spec(10), 32, 0, 100,
       0x91fdef485cc76042ull},
      {"waymo3-az55", waymo_spec(3), 55, 0, 100, 0xd43f689578e632c5ull},
      {"waymo3-crowded-az1200", crowded(waymo_spec(3)), 1200, 0, 1,
       0xdc411f9b01886088ull},
      {"waymo3-crowded-az55", crowded(waymo_spec(3)), 55, 0, 100,
       0x03fa32f4ac07328eull},
  };
  for (const Case& c : cases) {
    LidarSpec spec = c.spec;
    if (c.azimuth_steps > 0) spec.azimuth_steps = c.azimuth_steps;
    if (c.frames > 0) spec.frames = c.frames;
    uint64_t h = kFnvOffset;
    for (uint64_t seed = 1; seed <= c.seeds; ++seed)
      h = digest_scan(h, generate_scan(spec, seed));
    char got[32];
    std::snprintf(got, sizeof(got), "0x%016" PRIx64, h);
    EXPECT_EQ(h, c.expected) << c.name << " digest " << got;
  }
}

TEST(Voxelize, CoordsNonNegativeAndUnique) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 150;
  const SparseTensor t = make_input(spec, segmentation_voxels(), 11);
  ASSERT_GT(t.num_points(), 100u);
  std::unordered_set<uint64_t> seen;
  for (const Coord& c : t.coords()) {
    EXPECT_GE(c.x, 0);
    EXPECT_GE(c.y, 0);
    EXPECT_GE(c.z, 0);
    EXPECT_EQ(c.b, 0);
    EXPECT_TRUE(seen.insert(pack_coord(c)).second) << "duplicate voxel";
  }
  EXPECT_EQ(t.stride(), 1);
  EXPECT_EQ(t.channels(), 4u);
}

TEST(Voxelize, FeatureOffsetsWithinVoxel) {
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 120;
  const SparseTensor t = make_input(spec, detection_voxels(), 13);
  for (std::size_t i = 0; i < t.num_points(); ++i) {
    const float* row = t.feats().row(i);
    // Mean in-voxel offsets, centered: within [-0.5, 0.5].
    EXPECT_GE(row[0], -0.51f);
    EXPECT_LE(row[0], 0.51f);
    EXPECT_GE(row[3], 0.0f);  // intensity
    EXPECT_LE(row[3], 1.0f);
  }
}

TEST(Voxelize, FiveChannelModeCarriesTime) {
  LidarSpec spec = nuscenes_spec(3);
  spec.azimuth_steps = 100;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  const SparseTensor t = make_input(spec, vox, 17);
  EXPECT_EQ(t.channels(), 5u);
  float max_age = 0;
  for (std::size_t i = 0; i < t.num_points(); ++i)
    max_age = std::max(max_age, t.feats().row(i)[4]);
  EXPECT_GT(max_age, 0.05f);
}

TEST(Voxelize, CoarserVoxelsFewerPoints) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 200;
  const auto pts = generate_scan(spec, 19);
  VoxelSpec fine;
  fine.voxel_size_m = 0.05;
  VoxelSpec coarse;
  coarse.voxel_size_m = 0.2;
  EXPECT_GT(voxelize(pts, fine).num_points(),
            voxelize(pts, coarse).num_points());
}

TEST(Voxelize, DatasetSparsityOrdering) {
  // Fig. 12's premise: nuScenes (32-beam) workloads are much smaller than
  // SemanticKITTI (64-beam) at the segmentation voxel size.
  LidarSpec sk = semantic_kitti_spec();
  LidarSpec ns = nuscenes_spec(1);
  const double scale = 0.4;
  sk.azimuth_steps = static_cast<int>(sk.azimuth_steps * scale);
  ns.azimuth_steps = static_cast<int>(ns.azimuth_steps * scale);
  const auto t_sk = make_input(sk, segmentation_voxels(), 23);
  const auto t_ns = make_input(ns, segmentation_voxels(), 23);
  EXPECT_GT(t_sk.num_points(), 2 * t_ns.num_points());
}

}  // namespace
}  // namespace ts
