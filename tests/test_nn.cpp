// spnn layer and model tests: BatchNorm/ReLU numerics, residual blocks,
// U-Net wiring, CenterPoint pipeline, dense 2-D substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <unordered_set>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/dense2d.hpp"
#include "nn/minkunet.hpp"

namespace ts {
namespace {

SparseTensor random_tensor(int n, int extent, std::size_t channels,
                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::uniform_real_distribution<float> f(-1.0f, 1.0f);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const Coord c{0, d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  Matrix feats(coords.size(), channels);
  for (std::size_t i = 0; i < feats.size(); ++i) feats.data()[i] = f(rng);
  return SparseTensor(std::move(coords), std::move(feats));
}

ExecContext fp32_ctx() {
  EngineConfig cfg = torchsparse_config();
  cfg.precision = Precision::kFP32;
  ExecContext ctx(rtx2080ti(), cfg);
  ctx.compute_numerics = true;
  return ctx;
}

TEST(Layers, ReluClampsNegatives) {
  SparseTensor x = random_tensor(50, 8, 4, 1);
  ExecContext ctx = fp32_ctx();
  spnn::ReLU relu;
  const SparseTensor y = relu.forward(x, ctx);
  for (std::size_t i = 0; i < y.feats().size(); ++i) {
    EXPECT_GE(y.feats().data()[i], 0.0f);
    EXPECT_EQ(y.feats().data()[i], std::max(0.0f, x.feats().data()[i]));
  }
}

TEST(Layers, ReluKeepsSignedZeroAndNaN) {
  // Bit semantics of the clamp: only values that compare < 0 become +0.
  auto from_bits = [](uint32_t u) {
    float f;
    std::memcpy(&f, &u, sizeof f);
    return f;
  };
  auto bits = [](float f) {
    uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
  };
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> in = {
      -0.0f,                   // kept: -0 < 0 is false
      from_bits(0x7fc12345u),  // quiet NaN with a payload, kept
      from_bits(0xffc00001u),  // negative quiet NaN, kept
      -inf,                    // -> +0
      from_bits(0x80000001u),  // smallest negative subnormal -> +0
      from_bits(0x807fffffu),  // largest negative subnormal -> +0
      inf,                     // kept
      -2.5f,                   // -> +0
      0.75f};                  // kept
  const std::vector<uint32_t> want = {
      0x80000000u, 0x7fc12345u, 0xffc00001u, 0u, 0u, 0u,
      bits(inf),   0u,          bits(0.75f)};
  std::vector<Coord> coords;
  for (int i = 0; i < static_cast<int>(in.size()); ++i)
    coords.push_back({0, i, 0, 0});
  Matrix feats(in.size(), 1);
  std::copy(in.begin(), in.end(), feats.data());
  const SparseTensor x(std::move(coords), std::move(feats));
  ExecContext ctx = fp32_ctx();
  spnn::ReLU relu;
  const SparseTensor y = relu.forward(x, ctx);
  ASSERT_EQ(y.feats().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(bits(y.feats().data()[i]), want[i]) << "element " << i;
}

TEST(Layers, BatchNormAffine) {
  SparseTensor x = random_tensor(40, 8, 6, 2);
  std::mt19937_64 rng(3);
  spnn::BatchNorm bn(6, rng);
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = bn.forward(x, ctx);
  // Affine per channel: equal inputs map to equal outputs; order-preserving
  // per channel (positive scale).
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t r = 1; r < x.num_points(); ++r) {
      const bool lt_in = x.feats().at(r - 1, c) < x.feats().at(r, c);
      const bool lt_out = y.feats().at(r - 1, c) < y.feats().at(r, c);
      if (x.feats().at(r - 1, c) != x.feats().at(r, c)) {
        EXPECT_EQ(lt_in, lt_out);
      }
    }
  }
}

TEST(Layers, AddAndConcatFeatures) {
  SparseTensor a = random_tensor(30, 6, 4, 4);
  SparseTensor b(a.coords_ptr(), a.feats(), a.stride(), a.cache());
  ExecContext ctx = fp32_ctx();
  const SparseTensor sum = spnn::add_features(a, b, ctx);
  for (std::size_t i = 0; i < sum.feats().size(); ++i)
    EXPECT_FLOAT_EQ(sum.feats().data()[i], 2.0f * a.feats().data()[i]);

  const SparseTensor cat = spnn::concat_features(a, b, ctx);
  EXPECT_EQ(cat.channels(), 8u);
  EXPECT_EQ(cat.feats().at(5, 2), a.feats().at(5, 2));
  EXPECT_EQ(cat.feats().at(5, 6), a.feats().at(5, 2));
}

TEST(Layers, ResidualBlockPreservesCoordsAndChannels) {
  SparseTensor x = random_tensor(80, 8, 8, 5);
  std::mt19937_64 rng(6);
  spnn::ResidualBlock block(8, 16, 3, rng);
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = block.forward(x, ctx);
  EXPECT_EQ(y.coords(), x.coords());
  EXPECT_EQ(y.channels(), 16u);
  // ReLU at the end: nonnegative.
  for (std::size_t i = 0; i < y.feats().size(); ++i)
    EXPECT_GE(y.feats().data()[i], 0.0f);
}

TEST(Layers, ConvCollectionFindsAllConvs) {
  std::mt19937_64 rng(7);
  spnn::ResidualBlock with_shortcut(8, 16, 3, rng);
  spnn::ResidualBlock identity(16, 16, 3, rng);
  std::vector<spnn::Conv3d*> convs;
  with_shortcut.collect_convs(convs);
  EXPECT_EQ(convs.size(), 3u);  // conv1, conv2, 1x1 shortcut
  convs.clear();
  identity.collect_convs(convs);
  EXPECT_EQ(convs.size(), 2u);  // identity shortcut has no conv
}

TEST(Layers, LayerIdsAreUnique) {
  std::mt19937_64 rng(8);
  spnn::Conv3d a(4, 4, 3, 1, false, rng), b(4, 4, 3, 1, false, rng);
  EXPECT_NE(a.layer_id(), b.layer_id());
}

TEST(MinkUNet, ForwardPreservesInputCoordinates) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 80;
  const SparseTensor x = make_input(spec, segmentation_voxels(), 9);
  spnn::MinkUNet net(0.25, 4, 19, 10);
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = net.forward(x, ctx);
  EXPECT_EQ(y.coords(), x.coords());  // U-Net returns to stride 1
  EXPECT_EQ(y.channels(), 19u);
  EXPECT_EQ(y.stride(), 1);
  // 4 encoder levels built coordinate sets for strides 2..16.
  for (int s : {1, 2, 4, 8, 16})
    EXPECT_TRUE(x.cache()->coords_at_stride.count(s)) << s;
}

TEST(MinkUNet, WidthScalesConvCount) {
  spnn::MinkUNet half(0.5, 4, 19, 11);
  spnn::MinkUNet full(1.0, 4, 19, 12);
  EXPECT_EQ(half.convs().size(), full.convs().size());
  EXPECT_GT(full.convs().size(), 30u);  // stem + 4 down + 4 up + head
}

TEST(MinkUNet, TimelineCoversAllSparseStages) {
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 80;
  const SparseTensor x = make_input(spec, segmentation_voxels(), 13);
  spnn::MinkUNet net(0.25, 4, 16, 14);
  ExecContext ctx(rtx3090(), torchsparse_config());
  ctx.compute_numerics = false;
  net.forward(x, ctx);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kMapping), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kGather), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kScatter), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kMatMul), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kMisc), 0.0);
  EXPECT_EQ(ctx.timeline.stage_seconds(Stage::kDense2D), 0.0);
  EXPECT_EQ(ctx.timeline.stage_seconds(Stage::kNMS), 0.0);
}

TEST(Dense2d, SparseToBevSumsOverZ) {
  std::vector<Coord> coords = {{0, 1, 2, 0}, {0, 1, 2, 5}, {0, 3, 0, 1}};
  Matrix feats(3, 2);
  feats.at(0, 0) = 1.0f;
  feats.at(1, 0) = 2.0f;
  feats.at(2, 1) = 7.0f;
  SparseTensor x(coords, feats);
  ExecContext ctx = fp32_ctx();
  const spnn::DenseBEV bev = spnn::sparse_to_bev(x, ctx);
  EXPECT_EQ(bev.w, 4);
  EXPECT_EQ(bev.h, 3);
  EXPECT_EQ(bev.data.at(0, 2 * 4 + 1), 3.0f);  // z-collapsed sum
  EXPECT_EQ(bev.data.at(1, 0 * 4 + 3), 7.0f);
}

TEST(Dense2d, Conv2dChargesDense2DStage) {
  std::mt19937_64 rng(15);
  spnn::Conv2d conv(4, 8, rng);
  spnn::DenseBEV bev;
  bev.h = bev.w = 16;
  bev.data.resize(4, 256);
  for (std::size_t i = 0; i < bev.data.size(); ++i)
    bev.data.data()[i] = 0.1f * static_cast<float>(i % 7);
  ExecContext ctx = fp32_ctx();
  const spnn::DenseBEV out = conv.forward(bev, ctx);
  EXPECT_EQ(out.channels(), 8);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kDense2D), 0.0);
}

TEST(Dense2d, IoUProperties) {
  spnn::Detection a{10, 10, 2, 2, 1.0f};
  EXPECT_FLOAT_EQ(spnn::bev_iou(a, a), 1.0f);
  spnn::Detection far{100, 100, 2, 2, 1.0f};
  EXPECT_FLOAT_EQ(spnn::bev_iou(a, far), 0.0f);
  spnn::Detection half{12, 10, 2, 2, 1.0f};  // 50% x-overlap
  EXPECT_NEAR(spnn::bev_iou(a, half), 1.0f / 3.0f, 1e-5f);
}

TEST(CenterPoint, RunsEndToEndAndDetects) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = 120;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  const SparseTensor x = make_input(spec, vox, 16);
  spnn::CenterPoint net(5, 17);
  ExecContext ctx = fp32_ctx();
  const spnn::CenterPointOutput out = net.run(x, ctx);
  EXPECT_EQ(out.backbone_out.stride(), 8);
  EXPECT_GT(out.backbone_out.num_points(), 0u);
  // Detection stages charged.
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kDense2D), 0.0);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kNMS), 0.0);
  // NMS postcondition: no two kept boxes overlap above threshold.
  for (std::size_t i = 0; i < out.detections.size(); ++i)
    for (std::size_t j = i + 1; j < out.detections.size(); ++j)
      EXPECT_LE(spnn::bev_iou(out.detections[i], out.detections[j]), 0.5f);
}

TEST(CenterPoint, DetectionsSortedByScore) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = 100;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  const SparseTensor x = make_input(spec, vox, 18);
  spnn::CenterPoint net(5, 19);
  ExecContext ctx = fp32_ctx();
  const auto out = net.run(x, ctx);
  for (std::size_t i = 1; i < out.detections.size(); ++i)
    EXPECT_GE(out.detections[i - 1].score, out.detections[i].score);
}

}  // namespace
}  // namespace ts
