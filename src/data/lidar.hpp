// Synthetic rotating-LiDAR scan generation.
//
// The paper evaluates on SemanticKITTI (64-beam, ~0.05m voxels),
// nuScenes-LiDARSeg (32-beam, ~0.1m voxels, 1/3/10-frame aggregation) and
// Waymo Open (64-beam, long range). Those datasets are not available
// offline, so we synthesize scans with the same structure: a ray-cast
// scene (ground plane + parked vehicles + building walls) sampled by a
// spinning multi-beam sensor. What matters for the paper's performance
// results is the voxel count, sparsity pattern, and the per-offset kernel
// map size distribution (Fig. 12) — all of which are functions of the
// scan geometry this generator reproduces. Scene scale is reduced
// relative to the real datasets so the CPU-based engines stay fast; all
// engines see identical inputs, so relative results are unaffected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ts {

struct Point3 {
  float x = 0, y = 0, z = 0;
  float intensity = 0;
  float time = 0;  // frame age in seconds (multi-frame aggregation)
};

/// Sensor + scene parameters for one synthetic dataset.
struct LidarSpec {
  std::string name;
  int beams = 64;
  int azimuth_steps = 900;       // columns per revolution
  double fov_up_deg = 2.0;
  double fov_down_deg = -24.8;
  double max_range_m = 80.0;
  double sensor_height_m = 1.73;
  int num_vehicles = 24;
  int num_walls = 10;
  double dropout = 0.08;          // fraction of rays returning nothing
  double range_noise_m = 0.006;
  int frames = 1;                 // multi-frame aggregation count
  double ego_speed_mps = 5.0;     // ego motion between frames
  double frame_dt_s = 0.1;
};

/// Voxelization parameters (paper §2: coordinates are quantized points).
struct VoxelSpec {
  double voxel_size_m = 0.1;
  int feature_channels = 4;  // [x,y,z offsets within voxel, intensity]
};

/// Dataset presets roughly matching the paper's three benchmarks.
LidarSpec semantic_kitti_spec();
LidarSpec nuscenes_spec(int frames);
LidarSpec waymo_spec(int frames);

VoxelSpec segmentation_voxels();  // 0.05 m, MinkUNet configs
VoxelSpec detection_voxels();     // 0.1 m, CenterPoint configs

/// Generates one (possibly multi-frame aggregated) scan. Deterministic in
/// `seed`; different seeds give different scenes (the "samples" of the
/// paper's tuning subset). Throws std::invalid_argument, before any work,
/// on fewer than one beam, azimuth step or frame, more rays than an int
/// holds, a negative box count, a non-finite real field, a field of view
/// outside -90 <= fov_down_deg <= fov_up_deg <= 90, a non-positive
/// max_range_m or range_noise_m, or a dropout outside [0, 1].
std::vector<Point3> generate_scan(const LidarSpec& spec, uint64_t seed);

}  // namespace ts
