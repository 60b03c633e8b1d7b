// Golden digest pin for kernel-map construction.
//
// Runs MinkUNet-0.5x (SemanticKITTI-like, 0.05 m voxels) and CenterPoint
// (Waymo-3-frame-like, 0.1 m voxels) cost-only over fixed-seed scans at
// scale 0.05, with a KernelMapCache attached so every map the layer stack
// builds is captured exactly once. The cache's snapshot lists the maps in
// build order; each map's entries are hashed (FNV-1a) in emission order,
// offset by offset, together with its four build stats: queries,
// index_accesses, build_accesses and used_symmetry.
//
// Pinned per model: the symmetric grid search of torchsparse_config(),
// the direct grid search of spconv_config() and the hashmap probe loop of
// baseline_config(). The MinkUNet stack also runs on a two-scan batch, so
// batch indices above zero reach the builders. The map builders may be
// rewritten for host speed, but must not move an entry, reorder one or
// change a counter: a failure here means map construction changed, not
// that a constant needs refreshing.
//
// The constants were computed on the per-offset sorted merge-join
// builder, before the column-fused builder replaced it, and are unchanged
// by that rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "core/kernel_map_cache.hpp"
#include "data/lidar.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/minkunet.hpp"

namespace ts {
namespace {

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

uint64_t fnv1a_u64(uint64_t h, uint64_t v) { return fnv1a(h, &v, sizeof(v)); }

LidarSpec scaled(LidarSpec spec) {
  spec.azimuth_steps = std::max(
      32, static_cast<int>(std::lround(spec.azimuth_steps * 0.05)));
  return spec;
}

struct MapDigest {
  std::size_t maps = 0;     // kernel maps the stack built
  std::size_t entries = 0;  // summed entries over all of them
  uint64_t hash = kFnvOffset;
};

/// Runs `model` on `input` under `cfg` and digests every kernel map built.
MapDigest digest_maps(const ModelFn& model, const SparseTensor& input,
                      const EngineConfig& cfg) {
  RunOptions opt;
  opt.numerics = false;
  opt.simulate_cache = false;
  opt.map_cache = std::make_shared<KernelMapCache>(std::size_t(1) << 32);
  run_model(model, input, rtx2080ti(), cfg, opt);
  MapDigest d;
  for (const MapCacheSnapshotEntry& e : opt.map_cache->export_snapshot().entries) {
    if (!e.payload.kmap) continue;  // a downsampled coordinate set
    const KernelMap& km = *e.payload.kmap;
    ++d.maps;
    d.hash = fnv1a_u64(d.hash, static_cast<uint64_t>(km.kernel_size));
    d.hash = fnv1a_u64(d.hash, km.maps.size());
    for (const auto& m : km.maps) {
      d.entries += m.size();
      d.hash = fnv1a_u64(d.hash, m.size());
      d.hash = fnv1a(d.hash, m.data(), m.size() * sizeof(MapEntry));
    }
    d.hash = fnv1a_u64(d.hash, km.stats.queries);
    d.hash = fnv1a_u64(d.hash, km.stats.index_accesses);
    d.hash = fnv1a_u64(d.hash, km.stats.build_accesses);
    d.hash = fnv1a_u64(d.hash, km.stats.used_symmetry ? 1 : 0);
  }
  return d;
}

ModelFn minkunet_model() {
  auto net = std::make_shared<spnn::MinkUNet>(
      0.5, static_cast<std::size_t>(segmentation_voxels().feature_channels),
      19, /*seed=*/2000);
  return [net](const SparseTensor& x, ExecContext& ctx) { net->forward(x, ctx); };
}

VoxelSpec centerpoint_voxels() {
  VoxelSpec v = detection_voxels();
  v.feature_channels = 5;  // CenterPoint input width
  return v;
}

ModelFn centerpoint_model() {
  auto net = std::make_shared<spnn::CenterPoint>(
      static_cast<std::size_t>(centerpoint_voxels().feature_channels),
      /*seed=*/2000);
  return [net](const SparseTensor& x, ExecContext& ctx) { net->run(x, ctx); };
}

SparseTensor kitti_scan(uint64_t seed) {
  return make_input(scaled(semantic_kitti_spec()), segmentation_voxels(),
                    seed);
}

SparseTensor kitti_batch() {
  return merge_batches({kitti_scan(2), kitti_scan(3)});
}

SparseTensor waymo_scan(uint64_t seed) {
  return make_input(scaled(waymo_spec(3)), centerpoint_voxels(), seed);
}

void expect_digest(const MapDigest& got, const MapDigest& want) {
  EXPECT_EQ(got.maps, want.maps);
  EXPECT_EQ(got.entries, want.entries);
  EXPECT_EQ(got.hash, want.hash) << std::hex << "got 0x" << got.hash;
}

TEST(KernelMapGolden, MinkUNetSymmetricGrid) {
  expect_digest(digest_maps(minkunet_model(), kitti_scan(1),
                            torchsparse_config()),
                {14, 40002, 0xe4bbda125b0b3abull});
}

TEST(KernelMapGolden, MinkUNetDirectGrid) {
  expect_digest(digest_maps(minkunet_model(), kitti_scan(1),
                            spconv_config(Precision::kFP16)),
                {14, 40002, 0x55e151a08bd7ac8full});
}

TEST(KernelMapGolden, MinkUNetHashMap) {
  expect_digest(digest_maps(minkunet_model(), kitti_scan(1),
                            baseline_config()),
                {14, 40002, 0xf49c20a0c44ff0f5ull});
}

TEST(KernelMapGolden, MinkUNetBatchedSymmetricGrid) {
  expect_digest(digest_maps(minkunet_model(), kitti_batch(),
                            torchsparse_config()),
                {14, 60091, 0xcbc82299968c848aull});
}

TEST(KernelMapGolden, CenterPointSymmetricGrid) {
  expect_digest(digest_maps(centerpoint_model(), waymo_scan(1),
                            torchsparse_config()),
                {7, 412621, 0x1dbc949da6415dbaull});
}

TEST(KernelMapGolden, CenterPointDirectGrid) {
  expect_digest(digest_maps(centerpoint_model(), waymo_scan(1),
                            spconv_config(Precision::kFP16)),
                {7, 412621, 0xc8815a3b7d679086ull});
}

TEST(KernelMapGolden, CenterPointHashMap) {
  expect_digest(digest_maps(centerpoint_model(), waymo_scan(1),
                            baseline_config()),
                {7, 412621, 0x62831736750cf5ccull});
}

}  // namespace
}  // namespace ts
