// Data movement: numerics of gather/scatter plus the §4.3 cost orderings
// (quantization, vectorization, fusion, locality) that Table 3 reports.
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "core/gather_scatter.hpp"
#include "core/kernel_map.hpp"
#include "gpusim/device.hpp"

namespace ts {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> f(-1.0f, 1.0f);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = f(rng);
  return m;
}

TEST(GatherScatter, GatherTakesOwnedRowsInMapOrder) {
  const Matrix src = random_matrix(10, 4, 1);
  const std::vector<MapEntry> map = {{3, 5}, {7, 1}, {3, 2}, {9, 4}};
  std::vector<float> dst(3 * 4);
  std::vector<int32_t> rows(3);
  std::size_t next = 0;
  // Owner of output rows [2, 6): entries 0, 2 and 3, in map order.
  ASSERT_EQ(gather_owned_rows(src, map, next, 2, 6, 3, dst.data(),
                              rows.data()),
            3u);
  EXPECT_EQ(next, 4u);
  EXPECT_EQ(rows, (std::vector<int32_t>{5, 2, 4}));
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(dst[0 * 4 + c], src.at(3, c));
    EXPECT_EQ(dst[1 * 4 + c], src.at(3, c));
    EXPECT_EQ(dst[2 * 4 + c], src.at(9, c));
  }
}

TEST(GatherScatter, GatherStopsAtCapacityAndResumes) {
  const Matrix src = random_matrix(10, 2, 2);
  const std::vector<MapEntry> map = {{1, 0}, {2, 9}, {3, 1}, {4, 0}};
  std::vector<float> dst(2 * 2);
  std::vector<int32_t> rows(2);
  std::size_t next = 0;
  ASSERT_EQ(gather_owned_rows(src, map, next, 0, 2, 2, dst.data(),
                              rows.data()),
            2u);
  EXPECT_EQ(next, 3u);  // stopped right after the second owned entry
  EXPECT_EQ(rows, (std::vector<int32_t>{0, 1}));
  ASSERT_EQ(gather_owned_rows(src, map, next, 0, 2, 2, dst.data(),
                              rows.data()),
            1u);
  EXPECT_EQ(next, 4u);
  EXPECT_EQ(rows[0], 0);
  EXPECT_EQ(dst[0], src.at(4, 0));
  EXPECT_EQ(gather_owned_rows(src, map, next, 0, 2, 2, dst.data(),
                              rows.data()),
            0u);
}

TEST(GatherScatter, ScatterAccumulatesInOrder) {
  Matrix dst(4, 2, 1.0f);
  const float psum[] = {1, 0, 2, 0, 0, 5};
  const int32_t rows[] = {2, 2, 3};
  scatter_add_owned_rows(psum, rows, 3, dst);
  EXPECT_EQ(dst.at(2, 0), 4.0f);  // 1 + 1 + 2
  EXPECT_EQ(dst.at(3, 1), 6.0f);  // 1 + 5
  EXPECT_EQ(dst.at(0, 0), 1.0f);  // untouched
}

// ---- Cost-model orderings (Table 3). ----

/// Builds a synthetic submanifold-like kernel map over `n` points where
/// each point participates in `deg` offset maps.
KernelMap synthetic_map(std::size_t n, int volume, int deg, uint64_t seed) {
  std::mt19937_64 rng(seed);
  KernelMap km;
  km.kernel_size = 3;
  km.maps.resize(static_cast<std::size_t>(volume));
  for (std::size_t j = 0; j < n; ++j) {
    std::unordered_set<int> used;
    for (int t = 0; t < deg; ++t) {
      const int o = static_cast<int>(rng() % static_cast<uint64_t>(volume));
      if (!used.insert(o).second) continue;
      km.maps[static_cast<std::size_t>(o)].push_back(
          {static_cast<int32_t>(j),
           static_cast<int32_t>(rng() % n)});
    }
  }
  return km;
}

struct MovementCase {
  Precision precision;
  bool vectorized;
  bool fused;
  bool locality;
};

double movement_seconds(const KernelMap& km, std::size_t n,
                        std::size_t channels, const MovementCase& mc,
                        bool simulate_cache = true) {
  EngineConfig cfg;
  cfg.precision = mc.precision;
  cfg.vectorized = mc.vectorized;
  cfg.fused_gather_scatter = mc.fused;
  cfg.locality_aware = mc.locality;
  ExecContext ctx(rtx2080ti(), cfg);
  ctx.simulate_cache = simulate_cache;
  std::vector<int> offsets;
  for (int o = 0; o < km.volume(); ++o)
    if (km.size(o) > 0) offsets.push_back(o);
  charge_gather_scatter(km, offsets, n, n, channels, channels, ctx);
  return ctx.timeline.data_movement_seconds();
}

class MovementOrdering : public ::testing::TestWithParam<bool> {};

TEST_P(MovementOrdering, Table3LadderHolds) {
  const bool sim = GetParam();
  // Working set deliberately larger than the 2080Ti L2 (paper §4.3.2) and
  // big enough that payload, not kernel launches, dominates — the regime
  // of the paper's Table 3 measurements.
  const std::size_t n = 60000, channels = 128;
  const KernelMap km = synthetic_map(n, 27, 16, 7);

  const double fp32 =
      movement_seconds(km, n, channels,
                       {Precision::kFP32, false, false, false}, sim);
  const double fp16_scalar =
      movement_seconds(km, n, channels,
                       {Precision::kFP16, false, false, false}, sim);
  const double fp16_vec =
      movement_seconds(km, n, channels,
                       {Precision::kFP16, true, false, false}, sim);
  const double fused =
      movement_seconds(km, n, channels,
                       {Precision::kFP16, true, true, false}, sim);
  const double locality =
      movement_seconds(km, n, channels,
                       {Precision::kFP16, true, true, true}, sim);

  // Quantization alone helps a little (paper: 1.32x); vectorization is
  // the big jump (1.93x); fusion alone is modest (2.02x); locality is the
  // other big jump (2.72x).
  EXPECT_LT(fp16_scalar, fp32);
  EXPECT_GT(fp32 / fp16_scalar, 1.1);
  EXPECT_LT(fp32 / fp16_scalar, 1.7);   // far from the theoretical 2x
  EXPECT_GT(fp32 / fp16_vec, 1.55);     // close to 2x
  EXPECT_LT(fused, fp16_vec * 1.05);    // fusing never hurts much
  EXPECT_GT(fp32 / locality, 2.2);      // the full §4.3 stack
  EXPECT_LT(locality, fused);
}

INSTANTIATE_TEST_SUITE_P(CacheSimOnOff, MovementOrdering,
                         ::testing::Values(true, false));

TEST(MovementCost, Int8AcceleratesGatherOnlyModestly) {
  const std::size_t n = 20000, channels = 64;
  const KernelMap km = synthetic_map(n, 27, 8, 8);
  const double fp16 = movement_seconds(
      km, n, channels, {Precision::kFP16, true, true, true});
  const double int8 = movement_seconds(
      km, n, channels, {Precision::kINT8, true, true, true});
  // INT8 helps (smaller gather reads) but far less than 2x, because the
  // scatter stays 16-bit (paper §4.3.1).
  EXPECT_LT(int8, fp16);
  EXPECT_LT(fp16 / int8, 1.5);
}

TEST(MovementCost, EmptyMapCostsNothing) {
  KernelMap km;
  km.kernel_size = 3;
  km.maps.resize(27);
  EngineConfig cfg;
  ExecContext ctx(rtx3090(), cfg);
  charge_gather_scatter(km, {}, 100, 100, 8, 8, ctx);
  EXPECT_EQ(ctx.timeline.total_seconds(), 0.0);
}

TEST(MovementCost, UnfusedLaunchesTwoKernelsPerOffset) {
  const KernelMap km = synthetic_map(500, 27, 4, 9);
  int nonzero = 0;
  std::vector<int> offsets;
  for (int o = 0; o < 27; ++o)
    if (km.size(o) > 0) {
      offsets.push_back(o);
      ++nonzero;
    }
  EngineConfig cfg;
  cfg.fused_gather_scatter = false;
  cfg.locality_aware = false;
  ExecContext ctx(rtx2080ti(), cfg);
  charge_gather_scatter(km, offsets, 500, 500, 16, 16, ctx);
  EXPECT_EQ(ctx.timeline.kernel_launches(),
            static_cast<std::size_t>(2 * nonzero));

  EngineConfig fused_cfg;
  fused_cfg.fused_gather_scatter = true;
  fused_cfg.locality_aware = true;
  ExecContext fctx(rtx2080ti(), fused_cfg);
  charge_gather_scatter(km, offsets, 500, 500, 16, 16, fctx);
  EXPECT_EQ(fctx.timeline.kernel_launches(), 2u);
}

TEST(MovementCost, LocalityAwareMovesFewerDramBytes) {
  const std::size_t n = 30000;
  const KernelMap km = synthetic_map(n, 27, 10, 10);
  std::vector<int> offsets;
  for (int o = 0; o < 27; ++o)
    if (km.size(o) > 0) offsets.push_back(o);

  auto bytes_for = [&](bool locality) {
    EngineConfig cfg;
    cfg.precision = Precision::kFP16;
    cfg.vectorized = true;
    cfg.fused_gather_scatter = true;
    cfg.locality_aware = locality;
    ExecContext ctx(rtx2080ti(), cfg);
    charge_gather_scatter(km, offsets, n, n, 64, 64, ctx);
    return ctx.timeline.dram_bytes();
  };
  EXPECT_LT(bytes_for(true), bytes_for(false));
}

}  // namespace
}  // namespace ts
