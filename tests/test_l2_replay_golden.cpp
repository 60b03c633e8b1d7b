// Golden L2-counter pin for the cache replay.
//
// Runs MinkUNet-0.5x cost-only over one small seeded SemanticKITTI-like
// scan with the L2 replay on, once per replay loop of the engine:
// locality-aware fused (torchsparse_config()), fused weight-stationary
// (locality_aware = false), per-offset (baseline_config()) and
// fetch-on-demand (minkowski_config()). The device is rtx2080ti() with the
// L2 shrunk to 256 KiB, so the matmul_touch ranges span far more lines
// than the whole cache and exercise CacheSim's streaming-range path as
// well as its per-line path.
//
// Pinned: the simulator's hits, read misses, write misses and write-backs
// after the pass, and the timeline's DRAM bytes. CacheSim may be rewritten
// for host speed, but must not move any of these: a failure here means
// the replay changed the modeled traffic, not that a constant needs
// refreshing.
//
// The constants were computed on the scalar-probe, line-at-a-time
// CacheSim, before the SSE2 tag probe and the closed-form streaming
// ranges replaced it, and are unchanged by that rewrite.
#include <gtest/gtest.h>

#include <cstddef>

#include "data/lidar.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/minkunet.hpp"

namespace ts {
namespace {

struct L2Counters {
  std::size_t hits, read_misses, write_misses, writebacks;
  double timeline_dram_bytes;
};

L2Counters replay_counters(const EngineConfig& cfg) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 32;
  const VoxelSpec vox = segmentation_voxels();
  spnn::MinkUNet net(0.5, static_cast<std::size_t>(vox.feature_channels), 19,
                     /*seed=*/2000);
  const SparseTensor x = make_input(spec, vox, /*seed=*/1);
  DeviceSpec dev = rtx2080ti();
  dev.l2_bytes = 256.0 * 1024;
  RunOptions opt;
  opt.numerics = false;
  opt.simulate_cache = true;
  ExecContext ctx = make_run_context(dev, cfg, opt);
  const ModelFn model = [&net](const SparseTensor& in, ExecContext& c) {
    net.forward(in, c);
  };
  const Timeline t = run_in_context(model, x, ctx);
  return {ctx.l2.hits(), ctx.l2.read_misses(), ctx.l2.write_misses(),
          ctx.l2.writebacks(), t.dram_bytes()};
}

void expect_counters(const EngineConfig& cfg, const L2Counters& want) {
  const L2Counters got = replay_counters(cfg);
  EXPECT_EQ(got.hits, want.hits) << cfg.name;
  EXPECT_EQ(got.read_misses, want.read_misses) << cfg.name;
  EXPECT_EQ(got.write_misses, want.write_misses) << cfg.name;
  EXPECT_EQ(got.writebacks, want.writebacks) << cfg.name;
  EXPECT_EQ(got.timeline_dram_bytes, want.timeline_dram_bytes) << cfg.name;
}

TEST(L2ReplayGolden, LocalityAwareFused) {
  expect_counters(torchsparse_config(),
                  {171270, 135829, 183715, 181668, 126773522.0});
}

TEST(L2ReplayGolden, FusedWeightStationary) {
  EngineConfig cfg = torchsparse_config();
  cfg.locality_aware = false;
  expect_counters(cfg, {211622, 156041, 179887, 178233, 127895186.0});
}

TEST(L2ReplayGolden, PerOffset) {
  expect_counters(baseline_config(),
                  {457194, 406957, 713292, 711306, 336514916.0});
}

TEST(L2ReplayGolden, FetchOnDemand) {
  expect_counters(minkowski_config(),
                  {148942, 133194, 90419, 88371, 169859036.0});
}

}  // namespace
}  // namespace ts
