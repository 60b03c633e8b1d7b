// Degenerate-input robustness: empty tensors, single points, layers with
// no matches — the failure-injection corners of the engine — plus the
// API-boundary error contracts that must hold identically in Debug and
// Release (descriptive exceptions, never NDEBUG-stripped asserts).
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/conv3d.hpp"
#include "core/downsample.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "io/serialize.hpp"
#include "nn/dense2d.hpp"
#include "nn/layers.hpp"
#include "nn/minkunet.hpp"
#include "nn/pooling.hpp"

namespace ts {
namespace {

ExecContext fp32_ctx() {
  EngineConfig cfg = torchsparse_config();
  cfg.precision = Precision::kFP32;
  ExecContext ctx(rtx2080ti(), cfg);
  ctx.compute_numerics = true;
  return ctx;
}

Conv3dParams conv(int k, int s, std::size_t ci, std::size_t co,
                  uint64_t seed) {
  std::mt19937_64 rng(seed);
  Conv3dParams p;
  p.geom = ConvGeometry{k, s, false};
  p.weights = spnn::make_conv_weights(k, ci, co, rng);
  return p;
}

TEST(EdgeCases, EmptyTensorThroughSubmanifoldConv) {
  SparseTensor x({}, Matrix(0, 4));
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = sparse_conv3d(x, conv(3, 1, 4, 8, 1), ctx);
  EXPECT_EQ(y.num_points(), 0u);
  EXPECT_EQ(y.channels(), 8u);
}

TEST(EdgeCases, EmptyTensorThroughStridedConv) {
  SparseTensor x({}, Matrix(0, 4));
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = sparse_conv3d(x, conv(2, 2, 4, 4, 2), ctx);
  EXPECT_EQ(y.num_points(), 0u);
  EXPECT_EQ(y.stride(), 2);
}

TEST(EdgeCases, EmptyDownsample) {
  DownsampleCounters c;
  const auto out = downsample_coords({}, 2, 2, true, true, &c);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(c.kept, 0u);
}

TEST(EdgeCases, SinglePointNetwork) {
  std::vector<Coord> coords = {{0, 100, 100, 20}};
  Matrix feats(1, 4, 1.0f);
  SparseTensor x(coords, feats);
  spnn::MinkUNet net(0.25, 4, 5, 3);
  ExecContext ctx = fp32_ctx();
  const SparseTensor y = net.forward(x, ctx);
  EXPECT_EQ(y.num_points(), 1u);
  EXPECT_EQ(y.channels(), 5u);
  for (std::size_t c = 0; c < 5; ++c)
    EXPECT_TRUE(std::isfinite(y.feats().at(0, c)));
}

TEST(EdgeCases, VoxelizeEmptyPointList) {
  const SparseTensor t = voxelize({}, segmentation_voxels());
  EXPECT_EQ(t.num_points(), 0u);
}

TEST(EdgeCases, ZeroDropoutAndFullDropout) {
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 60;
  spec.dropout = 0.0;
  const auto full = generate_scan(spec, 4);
  spec.dropout = 1.0;
  const auto none = generate_scan(spec, 4);
  EXPECT_GT(full.size(), 100u);
  EXPECT_TRUE(none.empty());
}

TEST(EdgeCases, GenerateScanRejectsInvalidSpecs) {
  // Each bad field throws before the scan allocates or divides by
  // azimuth_steps, in Debug and Release alike. ASSERT: a case that does
  // not throw ends the test before its spec reaches the ray caster.
  LidarSpec good = nuscenes_spec(1);
  good.azimuth_steps = 32;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* what;
    void (*set)(LidarSpec&);
  };
  const Bad bad[] = {
      {"beams < 1", [](LidarSpec& s) { s.beams = -1; }},
      {"frames < 1", [](LidarSpec& s) { s.frames = -2; }},
      {"azimuth_steps < 1", [](LidarSpec& s) { s.azimuth_steps = 0; }},
      {"rays overflow int",
       [](LidarSpec& s) { s.beams = s.azimuth_steps = 1 << 16; }},
      {"num_vehicles < 0", [](LidarSpec& s) { s.num_vehicles = -1; }},
      {"num_walls < 0", [](LidarSpec& s) { s.num_walls = -3; }},
      {"range_noise_m = 0", [](LidarSpec& s) { s.range_noise_m = 0.0; }},
      {"range_noise_m < 0", [](LidarSpec& s) { s.range_noise_m = -0.1; }},
      {"range_noise_m NaN", [](LidarSpec& s) { s.range_noise_m = kNan; }},
      {"max_range_m = 0", [](LidarSpec& s) { s.max_range_m = 0.0; }},
      {"dropout > 1", [](LidarSpec& s) { s.dropout = 1.5; }},
      {"dropout < 0", [](LidarSpec& s) { s.dropout = -0.1; }},
      {"fov_up_deg > 90", [](LidarSpec& s) { s.fov_up_deg = 95.0; }},
      {"fov_down_deg < -90", [](LidarSpec& s) { s.fov_down_deg = -100.0; }},
      {"fov_down_deg > fov_up_deg",
       [](LidarSpec& s) { s.fov_down_deg = s.fov_up_deg + 1.0; }},
      {"sensor_height_m inf", [](LidarSpec& s) { s.sensor_height_m = kInf; }},
      {"ego_speed_mps NaN", [](LidarSpec& s) { s.ego_speed_mps = kNan; }},
      {"frame_dt_s inf", [](LidarSpec& s) { s.frame_dt_s = -kInf; }},
  };
  for (const Bad& b : bad) {
    LidarSpec s = good;
    b.set(s);
    ASSERT_THROW(generate_scan(s, 1), std::invalid_argument) << b.what;
    ASSERT_THROW(make_input(s, detection_voxels(), 1), std::invalid_argument)
        << b.what;
  }
  LidarSpec quiet = good;
  quiet.range_noise_m = 0.0;
  try {
    generate_scan(quiet, 1);
    ADD_FAILURE() << "range_noise_m = 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("range_noise_m"), std::string::npos)
        << e.what();
  }

  // The edges of the valid ranges still scan: one beam, a straight-down
  // to straight-up fan, and an empty scene (ground only).
  LidarSpec edge = good;
  edge.beams = 1;
  EXPECT_FALSE(generate_scan(edge, 1).empty());
  edge.beams = 8;
  edge.fov_down_deg = -90.0;
  edge.fov_up_deg = 90.0;
  edge.num_vehicles = 0;
  edge.num_walls = 0;
  EXPECT_FALSE(generate_scan(edge, 1).empty());
}

TEST(EdgeCases, ConvWhereNoOffsetsMatch) {
  // Points spaced 10 apart: K=3 dilation-1 finds only the center.
  std::vector<Coord> coords;
  for (int i = 0; i < 5; ++i) coords.push_back({0, 10 * i, 0, 0});
  Matrix feats(5, 3, 0.5f);
  SparseTensor x(coords, feats);
  ExecContext ctx = fp32_ctx();
  const Conv3dParams p = conv(3, 1, 3, 3, 5);
  const SparseTensor y = sparse_conv3d(x, p, ctx);
  Matrix expect;
  mm(feats, p.weights[13], expect);
  EXPECT_LT(max_abs_diff(y.feats(), expect), 1e-6f);
}

TEST(EdgeCases, RepeatedForwardIsDeterministic) {
  LidarSpec spec = nuscenes_spec(1);
  spec.azimuth_steps = 60;
  const SparseTensor x = make_input(spec, segmentation_voxels(), 6);
  spnn::MinkUNet net(0.25, 4, 5, 7);
  ExecContext a = fp32_ctx(), b = fp32_ctx();
  const SparseTensor ya =
      net.forward(SparseTensor(x.coords(), x.feats()), a);
  const SparseTensor yb =
      net.forward(SparseTensor(x.coords(), x.feats()), b);
  EXPECT_EQ(max_abs_diff(ya.feats(), yb.feats()), 0.0f);
  EXPECT_DOUBLE_EQ(a.timeline.total_seconds(), b.timeline.total_seconds());
}

TEST(EdgeCases, GlobalPoolRejectsNegativeBatchIndex) {
  // Regression (ROADMAP "Hardening"): a negative batch index used to
  // index out of bounds under NDEBUG; it must throw the same descriptive
  // error in Debug and Release.
  std::vector<Coord> coords = {{0, 1, 1, 1}, {-3, 2, 2, 2}};
  Matrix feats(2, 4, 1.0f);
  SparseTensor x(coords, feats);
  ExecContext ctx = fp32_ctx();
  try {
    spnn::global_pool(x, spnn::PoolKind::kAvg, ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "global_pool: negative batch index -3 at point 1");
  }
  EXPECT_THROW(spnn::global_pool(x, spnn::PoolKind::kMax, ctx),
               std::invalid_argument);
}

TEST(EdgeCases, GlobalPoolEmptyTensor) {
  SparseTensor x({}, Matrix(0, 4));
  ExecContext ctx = fp32_ctx();
  const Matrix out = spnn::global_pool(x, spnn::PoolKind::kAvg, ctx);
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 4u);
}

TEST(EdgeCases, GlobalPoolRejectsBatchIndexPastPackableRange) {
  // Regression (ROADMAP "Hardening", nn/pooling sweep): a batch index
  // past the packable range cannot come from any valid tensor; inferring
  // the batch count from it would make the output allocation itself the
  // failure (max+1 rows, or signed overflow at INT32_MAX). It must be a
  // descriptive invalid_argument in Debug and Release alike.
  std::vector<Coord> coords = {{0, 1, 1, 1},
                               {std::numeric_limits<int32_t>::max(), 2, 2, 2}};
  SparseTensor x(coords, Matrix(2, 4, 1.0f));
  ExecContext ctx = fp32_ctx();
  try {
    spnn::global_pool(x, spnn::PoolKind::kAvg, ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the packable batch range"),
              std::string::npos);
  }
  std::vector<Coord> big = {{kCoordBatchMax + 1, 1, 1, 1}};
  SparseTensor y(big, Matrix(1, 4, 1.0f));
  EXPECT_THROW(spnn::global_pool(y, spnn::PoolKind::kMax, ctx),
               std::invalid_argument);
  // The top of the packable range itself is legal.
  std::vector<Coord> edge = {{kCoordBatchMax, 1, 1, 1}};
  SparseTensor z(edge, Matrix(1, 4, 1.0f));
  const Matrix out = spnn::global_pool(z, spnn::PoolKind::kMax, ctx);
  EXPECT_EQ(out.rows(), static_cast<std::size_t>(kCoordBatchMax) + 1);
}

TEST(EdgeCases, GlobalPoolDeclaredBatchCountValidatesAndShapes) {
  // The serving-head overload: the declared count fixes the output shape
  // (empty batches pool to zero) and turns an index past it into a
  // descriptive error instead of a silent mis-index.
  std::vector<Coord> coords = {{0, 1, 1, 1}, {2, 2, 2, 2}};
  Matrix feats(2, 3);
  feats.at(0, 0) = 4.0f;
  feats.at(1, 1) = 6.0f;
  SparseTensor x(coords, feats);
  ExecContext ctx = fp32_ctx();

  const Matrix out = spnn::global_pool(x, spnn::PoolKind::kAvg, 4, ctx);
  ASSERT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.at(0, 0), 4.0f);
  EXPECT_EQ(out.at(1, 0), 0.0f);  // declared-but-empty batch
  EXPECT_EQ(out.at(2, 1), 6.0f);
  EXPECT_EQ(out.at(3, 2), 0.0f);

  try {
    spnn::global_pool(x, spnn::PoolKind::kAvg, 2, ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "global_pool: batch index 2 at point 1 is out of range "
                 "for declared batch count 2");
  }
  EXPECT_THROW(spnn::global_pool(x, spnn::PoolKind::kAvg, -1, ctx),
               std::invalid_argument);
  EXPECT_THROW(spnn::global_pool(x, spnn::PoolKind::kMax, 0, ctx),
               std::invalid_argument);  // points exist past count 0
}

TEST(EdgeCases, SerializeSaveToFailedStreamThrows) {
  // Regression (ROADMAP "Hardening"): saving into a failed/full stream
  // must be a loud runtime_error, not a silently truncated file.
  std::vector<Coord> coords = {{0, 1, 2, 3}};
  const SparseTensor t(coords, Matrix(1, 2, 0.5f));
  std::ostringstream os;
  os.setstate(std::ios::badbit);
  EXPECT_THROW(io::save_tensor(os, t), std::runtime_error);
  std::ostringstream ps;
  ps.setstate(std::ios::badbit);
  EXPECT_THROW(io::save_points(ps, {Point3{1, 2, 3, 0.5f, 0.0f}}),
               std::runtime_error);
}

TEST(EdgeCases, SerializeSaveToUnopenablePathThrows) {
  std::vector<Coord> coords = {{0, 1, 2, 3}};
  const SparseTensor t(coords, Matrix(1, 2, 0.5f));
  EXPECT_THROW(io::save_tensor_file("/nonexistent-dir/x.tsten", t),
               std::runtime_error);
  EXPECT_THROW(io::save_points_file("/nonexistent-dir/x.tspts", {}),
               std::runtime_error);
}

TEST(EdgeCases, BatchNormChannelMismatchThrows) {
  // Regression (ROADMAP "Hardening"): an NDEBUG build used to scale
  // features with out-of-bounds gamma/beta reads; now a descriptive
  // exception in Debug and Release, on cost-only passes too.
  std::mt19937_64 rng(11);
  spnn::BatchNorm bn(8, rng);
  std::vector<Coord> coords = {{0, 1, 1, 1}};
  SparseTensor x(coords, Matrix(1, 4, 1.0f));
  ExecContext ctx = fp32_ctx();
  try {
    bn.forward(x, ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "spnn::BatchNorm: input has 4 channels but the layer was "
                 "built for 8");
  }
  ctx.compute_numerics = false;  // the contract is not numerics-gated
  EXPECT_THROW(bn.forward(x, ctx), std::invalid_argument);
}

TEST(EdgeCases, AddFeaturesShapeMismatchThrows) {
  std::vector<Coord> c1 = {{0, 1, 1, 1}};
  std::vector<Coord> c2 = {{0, 1, 1, 1}, {0, 2, 2, 2}};
  SparseTensor a(c1, Matrix(1, 4, 1.0f));
  SparseTensor b(c2, Matrix(2, 4, 1.0f));
  SparseTensor c(c1, Matrix(1, 3, 1.0f));
  ExecContext ctx = fp32_ctx();
  EXPECT_THROW(spnn::add_features(a, b, ctx), std::invalid_argument);
  EXPECT_THROW(spnn::add_features(a, c, ctx), std::invalid_argument);
  EXPECT_THROW(spnn::concat_features(a, b, ctx), std::invalid_argument);
}

TEST(EdgeCases, FeaturelessTensorRejectedByNumerics) {
  // A cost-only tensor carries coordinates and a channel count but no
  // features. Every numerics read must reject it with a descriptive
  // error instead of indexing the empty matrix.
  std::vector<Coord> coords = {{0, 1, 1, 1}, {0, 2, 1, 1}, {0, 2, 2, 1}};
  const SparseTensor full(coords, Matrix(3, 4, 1.0f));
  const SparseTensor shape = full.shape_with_fresh_cache();
  ASSERT_TRUE(full.has_features());
  ASSERT_FALSE(shape.has_features());
  EXPECT_EQ(shape.num_points(), 3u);
  EXPECT_EQ(shape.channels(), 4u);
  EXPECT_EQ(shape.coords_ptr(), full.coords_ptr());  // shared, not copied

  ExecContext ctx = fp32_ctx();
  try {
    sparse_conv3d(shape, conv(3, 1, 4, 8, 3), ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "sparse_conv3d: input has no features (3 points, 4 "
                 "channels): a cost-only tensor cannot feed a numerics pass");
  }
  EXPECT_THROW(spnn::add_features(shape, full, ctx), std::invalid_argument);
  EXPECT_THROW(spnn::add_features(full, shape, ctx), std::invalid_argument);
  EXPECT_THROW(spnn::concat_features(shape, full, ctx),
               std::invalid_argument);
  EXPECT_THROW(spnn::concat_features(full, shape, ctx),
               std::invalid_argument);
  EXPECT_THROW(spnn::global_pool(shape, spnn::PoolKind::kAvg, ctx),
               std::invalid_argument);
  EXPECT_THROW(spnn::global_pool(shape, spnn::PoolKind::kMax, 1, ctx),
               std::invalid_argument);
  EXPECT_THROW(spnn::sparse_to_bev(shape, ctx), std::invalid_argument);
  EXPECT_EQ(ctx.timeline.total_seconds(), 0.0);  // rejected before charging

  // A numerics run rejects a feature-less input before copying it, and
  // the feature-carrying constructors reject a row count that is not the
  // point count.
  const ModelFn model = [](const SparseTensor& in, ExecContext& c) {
    sparse_conv3d(in, conv(3, 1, 4, 8, 3), c);
  };
  RunOptions numerics;
  numerics.numerics = true;
  try {
    run_model(model, shape, rtx2080ti(), torchsparse_config(), numerics);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "run_in_context: input has no features (3 points, 4 "
                 "channels): a cost-only tensor cannot feed a numerics pass");
  }
  ExecContext run_ctx = make_run_context(rtx2080ti(), torchsparse_config(),
                                         numerics);
  EXPECT_THROW(run_in_context(model, SparseTensor(shape), run_ctx),
               std::invalid_argument);
  try {
    (void)SparseTensor(coords, Matrix(2, 4));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "SparseTensor: 3 points but 2 feature rows");
  }
  EXPECT_THROW(SparseTensor(full.coords_ptr(), Matrix(), 1, full.cache()),
               std::invalid_argument);

  // Dense maps follow the same rule.
  spnn::DenseBEV bev_shape;
  bev_shape.c = 4;
  bev_shape.h = bev_shape.w = 3;
  std::mt19937_64 rng(5);
  const spnn::Conv2d conv2d(4, 2, rng);
  EXPECT_THROW(conv2d.forward(bev_shape, ctx), std::invalid_argument);
  EXPECT_THROW(spnn::decode_and_nms(bev_shape, bev_shape, 4, 0.1f, 0.5f, ctx),
               std::invalid_argument);

  // Cost-only, the same calls carry shapes and allocate no features.
  ctx.compute_numerics = false;
  const SparseTensor y = sparse_conv3d(shape, conv(3, 1, 4, 8, 3), ctx);
  EXPECT_FALSE(y.has_features());
  EXPECT_EQ(y.channels(), 8u);
  EXPECT_EQ(y.num_points(), 3u);
  const SparseTensor cat = spnn::concat_features(shape, full, ctx);
  EXPECT_FALSE(cat.has_features());
  EXPECT_EQ(cat.channels(), 8u);
  EXPECT_FALSE(spnn::add_features(shape, full, ctx).has_features());
  EXPECT_TRUE(spnn::global_pool(shape, spnn::PoolKind::kAvg, ctx).empty());
  const spnn::DenseBEV bev = spnn::sparse_to_bev(shape, ctx);
  EXPECT_FALSE(bev.has_features());
  EXPECT_EQ(bev.channels(), 4);
  EXPECT_EQ(bev.h, 3);
  EXPECT_EQ(bev.w, 3);
  const spnn::DenseBEV out = conv2d.forward(bev, ctx);
  EXPECT_FALSE(out.has_features());
  EXPECT_EQ(out.channels(), 2);
  EXPECT_GT(ctx.timeline.total_seconds(), 0.0);
}

TEST(EdgeCases, Conv2dRejectsChannelMismatch) {
  // Always on, like BatchNorm's: a mis-wired head must not read past the
  // input's channel rows on a numerics pass, nor be charged silently on a
  // cost-only one.
  std::mt19937_64 rng(6);
  const spnn::Conv2d conv2d(4, 2, rng);
  spnn::DenseBEV bev;
  bev.c = 3;
  bev.h = bev.w = 2;
  bev.data.resize(3, 4);
  ExecContext ctx = fp32_ctx();
  try {
    conv2d.forward(bev, ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "spnn::Conv2d: input has 3 channels but the layer "
                 "expects 4");
  }
  ctx.compute_numerics = false;
  EXPECT_THROW(conv2d.forward(bev, ctx), std::invalid_argument);
}

TEST(EdgeCases, VoxelizeRejectsBadSpecAndPoints) {
  VoxelSpec bad = segmentation_voxels();
  bad.voxel_size_m = 0.0;
  EXPECT_THROW(voxelize({Point3{1, 2, 3, 0.5f, 0.0f}}, bad),
               std::invalid_argument);
  bad.voxel_size_m = -0.1;
  EXPECT_THROW(voxelize({Point3{1, 2, 3, 0.5f, 0.0f}}, bad),
               std::invalid_argument);
  EXPECT_THROW(
      voxelize({Point3{1, 2, 3, 0.5f, 0.0f}}, segmentation_voxels(), -1),
      std::invalid_argument);
  EXPECT_THROW(
      voxelize({Point3{1, 2, 3, 0.5f, 0.0f}}, segmentation_voxels(),
               kCoordBatchMax + 1),
      std::invalid_argument);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(voxelize({Point3{nan, 0, 0, 0.5f, 0.0f}},
                        segmentation_voxels()),
               std::invalid_argument);
}

TEST(EdgeCases, VoxelizeRejectsUnpackableSpan) {
  // Two points farther apart than the packable 18-bit coordinate range.
  VoxelSpec spec = segmentation_voxels();
  spec.voxel_size_m = 0.001;  // 1mm voxels blow up the span
  std::vector<Point3> pts = {Point3{0, 0, 0, 0.5f, 0.0f},
                             Point3{1000, 0, 0, 0.5f, 0.0f}};
  EXPECT_THROW(voxelize(pts, spec), std::invalid_argument);
}

TEST(EdgeCases, MergeBatchesRejectsStridedAndMismatchedScans) {
  std::vector<Coord> coords = {{0, 2, 2, 2}};
  const SparseTensor fine(coords, Matrix(1, 4, 1.0f));
  // A stride-2 tensor (derived constructor) must be rejected.
  const SparseTensor strided(fine.coords_ptr(), Matrix(1, 4, 1.0f), 2,
                             fine.cache());
  EXPECT_THROW(merge_batches({fine, strided}), std::invalid_argument);
  const SparseTensor narrow(coords, Matrix(1, 3, 1.0f));
  EXPECT_THROW(merge_batches({fine, narrow}), std::invalid_argument);
}

TEST(EdgeCases, LargeCoordinatesStayInPackableRange) {
  LidarSpec spec = waymo_spec(3);
  spec.azimuth_steps = 100;
  const SparseTensor t = make_input(spec, segmentation_voxels(), 8);
  for (const Coord& c : t.coords())
    ASSERT_TRUE(coord_in_packable_range(c));
}

}  // namespace
}  // namespace ts
