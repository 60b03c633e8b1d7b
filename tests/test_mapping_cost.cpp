// Mapping cost-model tests: the Fig. 13 optimization levers must each
// reduce modeled mapping time, in isolation and cumulatively.
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "core/conv3d.hpp"
#include "core/downsample.hpp"
#include "core/mapping_cost.hpp"
#include "engines/presets.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"

namespace ts {
namespace {

std::vector<Coord> random_coords(int n, int extent, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::vector<Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < n) {
    const Coord c{0, d(rng), d(rng), d(rng)};
    if (seen.insert(pack_coord(c)).second) coords.push_back(c);
  }
  return coords;
}

/// Modeled mapping seconds for a full conv under config knobs.
double mapping_seconds(const std::vector<Coord>& coords, int kernel,
                       int stride, MapBackend backend, bool fused,
                       bool simplified, bool symmetric) {
  EngineConfig cfg = baseline_config();
  cfg.map_backend = backend;
  cfg.fused_downsample = fused;
  cfg.simplified_control = simplified;
  cfg.symmetric_map_search = symmetric;
  ExecContext ctx(rtx2080ti(), cfg);
  ctx.compute_numerics = false;
  std::mt19937_64 rng(1);
  Conv3dParams p;
  p.geom = ConvGeometry{kernel, stride, false};
  p.weights = spnn::make_conv_weights(kernel, 8, 8, rng);
  SparseTensor x(coords, Matrix(coords.size(), 8));
  sparse_conv3d(x, p, ctx);
  return ctx.timeline.stage_seconds(Stage::kMapping);
}

TEST(MappingCost, GridBeatsHashmap) {
  const auto coords = random_coords(20000, 40, 2);
  EXPECT_LT(mapping_seconds(coords, 3, 1, MapBackend::kGrid, false, false,
                            false),
            mapping_seconds(coords, 3, 1, MapBackend::kHashMap, false,
                            false, false));
}

TEST(MappingCost, FusedDownsampleBeatsStaged) {
  const auto coords = random_coords(20000, 40, 3);
  EXPECT_LT(mapping_seconds(coords, 3, 2, MapBackend::kGrid, true, false,
                            false),
            mapping_seconds(coords, 3, 2, MapBackend::kGrid, false, false,
                            false));
}

TEST(MappingCost, SimplifiedControlHelps) {
  const auto coords = random_coords(20000, 40, 4);
  EXPECT_LT(mapping_seconds(coords, 3, 2, MapBackend::kGrid, true, true,
                            false),
            mapping_seconds(coords, 3, 2, MapBackend::kGrid, true, false,
                            false));
}

TEST(MappingCost, SymmetryHelpsSubmanifoldLayers) {
  const auto coords = random_coords(20000, 40, 5);
  EXPECT_LT(mapping_seconds(coords, 3, 1, MapBackend::kGrid, true, true,
                            true),
            mapping_seconds(coords, 3, 1, MapBackend::kGrid, true, true,
                            false));
}

TEST(MappingCost, FullStackGivesSubstantialCumulativeGain) {
  // Fig. 13's overall message: the full mapping stack is several times
  // faster than the hashmap + staged + control-heavy baseline.
  const auto coords = random_coords(30000, 44, 6);
  const double base = mapping_seconds(coords, 3, 2, MapBackend::kHashMap,
                                      false, false, false);
  const double opt =
      mapping_seconds(coords, 3, 2, MapBackend::kGrid, true, true, true);
  EXPECT_GT(base / opt, 2.0);
  EXPECT_LT(base / opt, 8.0);
}

TEST(MappingCost, TransposeChargeIsTiny) {
  EngineConfig cfg = torchsparse_config();
  ExecContext ctx(rtx3090(), cfg);
  charge_map_transpose(100000, ctx);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kMapping), 0.0);
  EXPECT_LT(ctx.timeline.stage_seconds(Stage::kMapping), 1e-4);
}

TEST(MappingCost, ElementwiseScalesWithTensorSize) {
  EngineConfig cfg = torchsparse_config();
  ExecContext a(rtx3090(), cfg), b(rtx3090(), cfg);
  charge_elementwise(1000, 64, a);
  charge_elementwise(100000, 64, b);
  EXPECT_LT(a.timeline.stage_seconds(Stage::kMisc),
            b.timeline.stage_seconds(Stage::kMisc));
}

TEST(MappingCost, DownsampleCountersFeedTimeline) {
  const auto coords = random_coords(5000, 30, 7);
  DownsampleCounters c;
  downsample_coords(coords, 2, 2, false, false, &c);
  EngineConfig cfg = baseline_config();
  ExecContext ctx(rtx2080ti(), cfg);
  apply_map_charge(downsample_charge(c, ctx), ctx);
  EXPECT_GT(ctx.timeline.stage_seconds(Stage::kMapping), 0.0);
  EXPECT_EQ(ctx.timeline.kernel_launches(), c.kernel_launches);
  EXPECT_DOUBLE_EQ(ctx.timeline.dram_bytes(), c.dram_bytes);
}

TEST(MappingCost, FasterDeviceMapsFaster) {
  const auto coords = random_coords(15000, 38, 8);
  const double t3090 = [&] {
    EngineConfig cfg = baseline_config();
    ExecContext ctx(rtx3090(), cfg);
    std::mt19937_64 rng(1);
    Conv3dParams p;
    p.geom = ConvGeometry{3, 2, false};
    p.weights = spnn::make_conv_weights(3, 4, 4, rng);
    SparseTensor x(coords, Matrix(coords.size(), 4));
    ctx.compute_numerics = false;
    sparse_conv3d(x, p, ctx);
    return ctx.timeline.stage_seconds(Stage::kMapping);
  }();
  const double t1080 = [&] {
    EngineConfig cfg = baseline_config();
    ExecContext ctx(gtx1080ti(), cfg);
    std::mt19937_64 rng(1);
    Conv3dParams p;
    p.geom = ConvGeometry{3, 2, false};
    p.weights = spnn::make_conv_weights(3, 4, 4, rng);
    SparseTensor x(coords, Matrix(coords.size(), 4));
    ctx.compute_numerics = false;
    sparse_conv3d(x, p, ctx);
    return ctx.timeline.stage_seconds(Stage::kMapping);
  }();
  EXPECT_LT(t3090, t1080);
}

}  // namespace
}  // namespace ts
