// SECOND-style detector tests (plain sparse middle encoder + BEV RPN).
#include <gtest/gtest.h>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "gpusim/device.hpp"
#include "nn/second.hpp"

namespace ts {
namespace {

SparseTensor waymo_input(int azimuth, uint64_t seed) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = azimuth;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  return make_input(spec, vox, seed);
}

TEST(Second, RunsEndToEnd) {
  const SparseTensor x = waymo_input(120, 21);
  spnn::SecondDetector det(5, 22);
  EngineConfig cfg = torchsparse_config();
  cfg.precision = Precision::kFP32;
  ExecContext ctx(rtx2080ti(), cfg);
  ctx.compute_numerics = true;
  const spnn::SecondOutput out = det.run(x, ctx);
  EXPECT_EQ(out.middle_out.stride(), 8);
  EXPECT_GT(out.middle_out.num_points(), 0u);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kDense2D), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kNMS), 0.0);
  for (std::size_t i = 1; i < out.detections.size(); ++i)
    EXPECT_GE(out.detections[i - 1].score, out.detections[i].score);
}

TEST(Second, ConvCollectionCoversMiddleEncoder) {
  spnn::SecondDetector det(5, 23);
  // stem + 3 stages x (2 submanifold + 1 downsample) = 10 convs.
  EXPECT_EQ(det.convs().size(), 10u);
}

TEST(Second, FasterUnderTorchSparseThanBaseline) {
  const SparseTensor x = waymo_input(300, 24);
  spnn::SecondDetector det(5, 25);
  auto run = [&](const EngineConfig& cfg) {
    ExecContext ctx(rtx2080ti(), cfg);
    ctx.compute_numerics = false;
    SparseTensor fresh(x.coords(), x.feats());
    det.run(fresh, ctx);
    return ctx.timeline.total_seconds();
  };
  EXPECT_LT(run(torchsparse_config()), run(baseline_config()));
}

}  // namespace
}  // namespace ts
