// Engine presets, the runner, workloads, and cross-engine performance
// orderings that the paper's Figure 11 reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/minkunet.hpp"
#include "nn/second.hpp"

namespace ts {
namespace {

TEST(Presets, FiveSystemsInPaperOrder) {
  const auto engines = paper_engines();
  ASSERT_EQ(engines.size(), 5u);
  EXPECT_EQ(engines[0].name, "Baseline");
  EXPECT_EQ(engines[1].name, "MinkowskiEngine");
  EXPECT_EQ(engines[2].name, "SpConv (FP32)");
  EXPECT_EQ(engines[3].name, "SpConv (FP16)");
  EXPECT_EQ(engines[4].name, "TorchSparse");
}

TEST(Presets, AxesMatchPaperDescriptions) {
  const EngineConfig base = baseline_config();
  EXPECT_EQ(base.precision, Precision::kFP32);
  EXPECT_EQ(base.grouping, GroupingStrategy::kSeparate);
  EXPECT_EQ(base.map_backend, MapBackend::kHashMap);
  EXPECT_FALSE(base.fused_downsample);

  const EngineConfig me = minkowski_config();
  EXPECT_GT(me.fod_threshold, 0.0);

  const EngineConfig sp16 = spconv_config(Precision::kFP16);
  EXPECT_EQ(sp16.map_backend, MapBackend::kGrid);
  EXPECT_EQ(sp16.precision, Precision::kFP16);
  EXPECT_FALSE(sp16.vectorized);  // scalar FP16 (§4.3.1)

  const EngineConfig tsrs = torchsparse_config();
  EXPECT_TRUE(tsrs.vectorized);
  EXPECT_TRUE(tsrs.locality_aware);
  EXPECT_EQ(tsrs.grouping, GroupingStrategy::kAdaptive);
  EXPECT_TRUE(tsrs.symmetric_map_search);
}

class EngineOrdering : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(make_minkunet_workload(
        "SK-MinkUNet (0.5x)", "SemanticKITTI", 0.5, 1, /*seed=*/91,
        /*scale=*/0.35, /*tune_sample_count=*/1));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  static Workload* workload_;
};

Workload* EngineOrdering::workload_ = nullptr;

TEST_F(EngineOrdering, TorchSparseIsFastestOnTensorCoreDevices) {
  const DeviceSpec dev = rtx2080ti();
  RunOptions opt;
  opt.tuned = tune_for(workload_->model, workload_->tune_samples, dev,
                       torchsparse_config());
  double baseline_t = 0, ts_t = 0;
  for (const EngineConfig& cfg : paper_engines()) {
    RunOptions o = cfg.name == "TorchSparse" ? opt : RunOptions{};
    const Timeline t = run_model(workload_->model, workload_->input, dev,
                                 cfg, o);
    if (cfg.name == "Baseline") baseline_t = t.total_seconds();
    if (cfg.name == "TorchSparse") ts_t = t.total_seconds();
    EXPECT_GT(t.total_seconds(), 0.0) << cfg.name;
  }
  // Paper: ~1.7x over baseline on 2080Ti for segmentation.
  EXPECT_GT(baseline_t / ts_t, 1.3);
  EXPECT_LT(baseline_t / ts_t, 3.5);
}

TEST_F(EngineOrdering, TorchSparseBeatsBaselineWithoutTensorCores) {
  // Paper §5.2: on GTX 1080Ti (no FP16 tensor cores) TorchSparse still
  // achieves ~1.5x over the baseline — the gain is not tensor-core native.
  const DeviceSpec dev = gtx1080ti();
  const Timeline base =
      run_model(workload_->model, workload_->input, dev, baseline_config());
  RunOptions opt;
  opt.tuned = tune_for(workload_->model, workload_->tune_samples, dev,
                       torchsparse_config());
  const Timeline tsrs = run_model(workload_->model, workload_->input, dev,
                                  torchsparse_config(), opt);
  EXPECT_GT(base.total_seconds() / tsrs.total_seconds(), 1.2);
}

TEST_F(EngineOrdering, SpConvFp16BeatsFp32OnTensorCores) {
  const DeviceSpec dev = rtx3090();
  const Timeline fp32 = run_model(workload_->model, workload_->input, dev,
                                  spconv_config(Precision::kFP32));
  const Timeline fp16 = run_model(workload_->model, workload_->input, dev,
                                  spconv_config(Precision::kFP16));
  EXPECT_LT(fp16.total_seconds(), fp32.total_seconds());
}

TEST_F(EngineOrdering, DeviceSpeedOrderingHolds) {
  // Faster GPUs finish sooner under the same engine.
  const EngineConfig cfg = torchsparse_config();
  const Timeline t3090 =
      run_model(workload_->model, workload_->input, rtx3090(), cfg);
  const Timeline t2080 =
      run_model(workload_->model, workload_->input, rtx2080ti(), cfg);
  const Timeline t1080 =
      run_model(workload_->model, workload_->input, gtx1080ti(), cfg);
  EXPECT_LT(t3090.total_seconds(), t2080.total_seconds());
  EXPECT_LT(t2080.total_seconds(), t1080.total_seconds());
}

TEST(Runner, FreshInputIsolatesCaches) {
  Workload w = make_minkunet_workload("tiny", "nuScenes", 0.25, 1, 95, 0.2,
                                      1);
  const SparseTensor a = fresh_input(w.input);
  const SparseTensor b = fresh_input(w.input);
  EXPECT_NE(a.cache().get(), b.cache().get());
  EXPECT_EQ(a.coords(), b.coords());
}

TEST(Runner, RecorderProducesOneRecordPerConvLayer) {
  Workload w = make_minkunet_workload("tiny", "nuScenes", 0.25, 1, 96, 0.2,
                                      1);
  const auto records = record_workloads(w.model, {w.input}, rtx2080ti(),
                                        torchsparse_config());
  ASSERT_EQ(records.size(), 1u);
  // MinkUNet(0.25): 2 stem + 4*(1+2*2...) — at least 30 conv layers.
  EXPECT_GT(records[0].size(), 30u);
  for (const LayerRecord& r : records[0]) {
    EXPECT_GE(r.layer_id, 0);
    EXPECT_FALSE(r.map_sizes.empty());
    EXPECT_GT(r.c_out, 0u);
  }
}

TEST(Workloads, PaperSetHasSevenEntries) {
  const auto ws = paper_workloads(/*seed=*/7, /*scale=*/0.12, 1);
  ASSERT_EQ(ws.size(), 7u);
  EXPECT_EQ(ws[0].name, "SK-MinkUNet (1.0x)");
  EXPECT_FALSE(ws[0].is_detection);
  EXPECT_TRUE(ws[4].is_detection);
  EXPECT_EQ(ws[4].dataset, "nuScenes");
  for (const Workload& w : ws) {
    EXPECT_GT(w.input.num_points(), 100u) << w.name;
    EXPECT_FALSE(w.tune_samples.empty()) << w.name;
  }
}

TEST(Workloads, MultiFrameInputsAreLarger) {
  const auto ws = paper_workloads(/*seed=*/8, /*scale=*/0.15, 1);
  const auto& ns3 = ws[2];  // NS-MinkUNet (3f)
  const auto& ns1 = ws[3];  // NS-MinkUNet (1f)
  EXPECT_GT(ns3.input.num_points(), ns1.input.num_points());
}

// ---- Feature-free cost-only passes: whole models.

/// What one pass left behind: its timeline, and each output's shape and
/// whether that output holds feature storage.
struct PassResult {
  Timeline timeline;
  std::vector<std::array<std::size_t, 3>> shapes;
  std::vector<bool> has_features;

  void note(const SparseTensor& t) {
    shapes.push_back({t.num_points(), t.channels(),
                      static_cast<std::size_t>(t.stride())});
    has_features.push_back(t.has_features());
  }
  void note(const spnn::DenseBEV& m) {
    shapes.push_back({static_cast<std::size_t>(m.c),
                      static_cast<std::size_t>(m.h),
                      static_cast<std::size_t>(m.w)});
    has_features.push_back(m.has_features());
  }
};

/// Runs a model and notes its outputs into the pass result.
using NotingModel =
    std::function<void(const SparseTensor&, ExecContext&, PassResult&)>;

ExecContext pass_context(bool numerics, bool l2_replay) {
  RunOptions opt;
  opt.numerics = numerics;
  opt.simulate_cache = l2_replay;
  return make_run_context(rtx3090(), torchsparse_config(), opt);
}

PassResult run_pass(const NotingModel& net, const SparseTensor& input,
                    bool numerics, bool l2_replay) {
  PassResult r;
  ExecContext ctx = pass_context(numerics, l2_replay);
  r.timeline = run_in_context(
      [&](const SparseTensor& x, ExecContext& c) { net(x, c, r); }, input,
      ctx);
  return r;
}

void expect_bit_equal(const Timeline& a, const Timeline& b) {
  for (std::size_t s = 0; s < kNumStages; ++s)
    EXPECT_EQ(a.stage_seconds(static_cast<Stage>(s)),
              b.stage_seconds(static_cast<Stage>(s)))
        << to_string(static_cast<Stage>(s));
  EXPECT_EQ(a.total_seconds(), b.total_seconds());
  EXPECT_EQ(a.dram_bytes(), b.dram_bytes());
  EXPECT_EQ(a.kernel_launches(), b.kernel_launches());
  EXPECT_EQ(a.flops(), b.flops());
}

/// A cost-only pass must return every output with a numerics pass's
/// shape but no feature storage, charge a bit-equal timeline with L2
/// replay on and off, and leave the caller's input as it was.
void expect_cost_only_matches_numerics(const NotingModel& net,
                                       const SparseTensor& input) {
  const Matrix feats_before = input.feats();
  for (const bool l2 : {true, false}) {
    SCOPED_TRACE(l2 ? "L2 replay" : "analytic L2");
    const PassResult num = run_pass(net, input, true, l2);
    const PassResult cost = run_pass(net, input, false, l2);
    ASSERT_FALSE(num.shapes.empty());
    EXPECT_EQ(cost.shapes, num.shapes);
    for (std::size_t i = 0; i < num.shapes.size(); ++i) {
      EXPECT_TRUE(num.has_features[i]) << "output " << i;
      EXPECT_FALSE(cost.has_features[i]) << "output " << i;
    }
    expect_bit_equal(cost.timeline, num.timeline);

    // The consuming overload charges the same and takes the input.
    SparseTensor owned = fresh_input(input);
    ExecContext ctx = pass_context(false, l2);
    PassResult moved;
    moved.timeline = run_in_context(
        [&](const SparseTensor& x, ExecContext& c) { net(x, c, moved); },
        std::move(owned), ctx);
    EXPECT_EQ(moved.shapes, num.shapes);
    expect_bit_equal(moved.timeline, num.timeline);
  }
  EXPECT_TRUE(input.has_features());
  EXPECT_EQ(input.feats(), feats_before);
  EXPECT_TRUE(input.cache()->kmaps.empty());  // passes use their own cache
}

/// A detection scan cropped to a 256 x 256 voxel window around its mean
/// point (near the sensor, where the points are dense) and moved to the
/// origin, so that the dense BEV heads of the numerics passes stay small.
SparseTensor detection_input(uint64_t seed) {
  LidarSpec spec = waymo_spec(1);
  spec.azimuth_steps = 360;
  VoxelSpec vox = detection_voxels();
  vox.feature_channels = 5;
  const SparseTensor scan = make_input(spec, vox, seed);
  int64_t sum_x = 0, sum_y = 0;
  for (const Coord& c : scan.coords()) {
    sum_x += c.x;
    sum_y += c.y;
  }
  const auto n = static_cast<int64_t>(scan.num_points());
  const auto x0 = static_cast<int32_t>(sum_x / n) - 128;
  const auto y0 = static_cast<int32_t>(sum_y / n) - 128;
  std::vector<Coord> coords;
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < scan.num_points(); ++i) {
    Coord c = scan.coords()[i];
    if (c.x < x0 || c.x >= x0 + 256 || c.y < y0 || c.y >= y0 + 256) continue;
    c.x -= x0;
    c.y -= y0;
    coords.push_back(c);
    rows.push_back(i);
  }
  EXPECT_GT(rows.size(), 1000u);  // still a scan's worth of work
  Matrix feats(rows.size(), scan.channels());
  for (std::size_t r = 0; r < rows.size(); ++r)
    std::copy(scan.feats().row(rows[r]),
              scan.feats().row(rows[r]) + scan.channels(), feats.row(r));
  return SparseTensor(std::move(coords), std::move(feats));
}

TEST(CostOnly, MinkUNetCarriesShapesNotFeatures) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 120;
  const SparseTensor x = make_input(spec, segmentation_voxels(), 41);
  spnn::MinkUNet net(0.25, 4, 19, 42);
  expect_cost_only_matches_numerics(
      [&](const SparseTensor& in, ExecContext& ctx, PassResult& r) {
        r.note(net.forward(in, ctx));
      },
      x);
}

TEST(CostOnly, CenterPointCarriesShapesNotFeatures) {
  const SparseTensor x = detection_input(43);
  spnn::CenterPoint net(5, 44);
  expect_cost_only_matches_numerics(
      [&](const SparseTensor& in, ExecContext& ctx, PassResult& r) {
        const spnn::CenterPointOutput out = net.run(in, ctx);
        r.note(out.backbone_out);
        r.note(out.heatmap);
        r.note(out.boxes);
      },
      x);
}

TEST(CostOnly, SecondCarriesShapesNotFeatures) {
  const SparseTensor x = detection_input(45);
  spnn::SecondDetector net(5, 46);
  expect_cost_only_matches_numerics(
      [&](const SparseTensor& in, ExecContext& ctx, PassResult& r) {
        const spnn::SecondOutput out = net.run(in, ctx);
        r.note(out.middle_out);
        r.note(out.score);
        r.note(out.boxes);
      },
      x);
}

}  // namespace
}  // namespace ts
