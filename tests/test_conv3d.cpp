// Sparse convolution end-to-end correctness: every engine preset and every
// optimization combination must agree with the dense volumetric reference,
// and the row-partitioned numerics with the serial loop, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <initializer_list>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/conv3d.hpp"
#include "core/dense_reference.hpp"
#include "core/downsample.hpp"
#include "core/kernel_map.hpp"
#include "core/kernel_map_cache.hpp"
#include "core/level_keys.hpp"
#include "engines/presets.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "tensor/half.hpp"
#include "tensor/host_pool.hpp"

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

Conv3dParams random_conv(int kernel, int stride, bool transposed,
                         std::size_t c_in, std::size_t c_out,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  Conv3dParams p;
  p.geom = ConvGeometry{kernel, stride, transposed};
  p.weights = spnn::make_conv_weights(kernel, c_in, c_out, rng);
  return p;
}

ExecContext make_ctx(const EngineConfig& cfg) {
  ExecContext ctx(rtx2080ti(), cfg);
  ctx.compute_numerics = true;
  return ctx;
}

EngineConfig fp32_torchsparse() {
  EngineConfig cfg = torchsparse_config();
  cfg.precision = Precision::kFP32;  // exact comparison against oracle
  return cfg;
}

TEST(Conv3d, SubmanifoldMatchesDenseReferenceExactly) {
  const SparseTensor x = random_tensor(200, 10, 8, 1);
  const Conv3dParams p = random_conv(3, 1, false, 8, 12, 2);
  ExecContext ctx = make_ctx(fp32_torchsparse());
  const SparseTensor y = sparse_conv3d(x, p, ctx);
  const Matrix ref =
      dense_reference_conv(x.coords(), x.feats(), y.coords(), p);
  EXPECT_LT(max_abs_diff(y.feats(), ref), 2e-5f);
  EXPECT_EQ(y.coords(), x.coords());  // P_out == P_in (paper §2)
  EXPECT_EQ(y.stride(), 1);
}

TEST(Conv3d, StridedConvProducesDownsampledCoords) {
  const SparseTensor x = random_tensor(300, 12, 4, 3);
  const Conv3dParams p = random_conv(2, 2, false, 4, 8, 4);
  ExecContext ctx = make_ctx(fp32_torchsparse());
  const SparseTensor y = sparse_conv3d(x, p, ctx);
  EXPECT_EQ(y.stride(), 2);
  const auto expect = downsample_coords(x.coords(), 2, 2, true, true);
  EXPECT_EQ(y.coords(), expect);
  const Matrix ref =
      dense_reference_conv(x.coords(), x.feats(), y.coords(), p);
  EXPECT_LT(max_abs_diff(y.feats(), ref), 2e-5f);
}

TEST(Conv3d, OddKernelStride2MatchesReference) {
  const SparseTensor x = random_tensor(250, 14, 6, 5);
  const Conv3dParams p = random_conv(3, 2, false, 6, 10, 6);
  ExecContext ctx = make_ctx(fp32_torchsparse());
  const SparseTensor y = sparse_conv3d(x, p, ctx);
  const Matrix ref =
      dense_reference_conv(x.coords(), x.feats(), y.coords(), p);
  EXPECT_LT(max_abs_diff(y.feats(), ref), 2e-5f);
}

TEST(Conv3d, TransposedConvRestoresFineCoords) {
  const SparseTensor x = random_tensor(300, 12, 4, 7);
  ExecContext ctx = make_ctx(fp32_torchsparse());
  const Conv3dParams down = random_conv(2, 2, false, 4, 8, 8);
  const SparseTensor mid = sparse_conv3d(x, down, ctx);
  const Conv3dParams up = random_conv(2, 2, true, 8, 4, 9);
  const SparseTensor y = sparse_conv3d(mid, up, ctx);
  EXPECT_EQ(y.stride(), 1);
  EXPECT_EQ(y.coords(), x.coords());  // exactly the cached fine coords
  const Matrix ref =
      dense_reference_conv(mid.coords(), mid.feats(), y.coords(), up);
  EXPECT_LT(max_abs_diff(y.feats(), ref), 2e-4f);
}

TEST(Conv3d, TransposedWithoutCachedCoordsThrows) {
  const SparseTensor x = random_tensor(50, 8, 4, 10);
  const Conv3dParams up = random_conv(2, 2, true, 4, 4, 11);
  ExecContext ctx = make_ctx(fp32_torchsparse());
  EXPECT_THROW(sparse_conv3d(x, up, ctx), std::runtime_error);
}

TEST(Conv3d, KernelSize1IsPointwiseLinear) {
  const SparseTensor x = random_tensor(100, 10, 8, 12);
  const Conv3dParams p = random_conv(1, 1, false, 8, 16, 13);
  ExecContext ctx = make_ctx(fp32_torchsparse());
  const SparseTensor y = sparse_conv3d(x, p, ctx);
  Matrix ref;
  mm(x.feats(), p.weights[0], ref);
  EXPECT_LT(max_abs_diff(y.feats(), ref), 2e-5f);
}

TEST(Conv3d, MapCacheReusedAcrossLayersAtSameStride) {
  const SparseTensor x = random_tensor(200, 10, 4, 14);
  const Conv3dParams p1 = random_conv(3, 1, false, 4, 4, 15);
  const Conv3dParams p2 = random_conv(3, 1, false, 4, 4, 16);
  ExecContext ctx = make_ctx(fp32_torchsparse());
  const SparseTensor y1 = sparse_conv3d(x, p1, ctx);
  const double mapping_after_first =
      ctx.timeline.stage_seconds(Stage::kMapping);
  const SparseTensor y2 = sparse_conv3d(y1, p2, ctx);
  // Second submanifold layer reuses the cached map: zero mapping cost.
  EXPECT_DOUBLE_EQ(ctx.timeline.stage_seconds(Stage::kMapping),
                   mapping_after_first);
  EXPECT_EQ(x.cache()->kmaps.size(), 1u);
}

/// Every engine preset (plus FP32 variants of TorchSparse with each
/// grouping strategy) computes the same convolution.
class EngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, AllConfigsAgreeWithReference) {
  const int scenario = GetParam();
  const int kernel = scenario % 2 ? 3 : 2;
  const int stride = scenario % 2 ? 1 : 2;
  const SparseTensor x =
      random_tensor(150 + 10 * scenario, 10, 8, 20u + scenario);
  const Conv3dParams p =
      random_conv(kernel, stride, false, 8, 8, 30u + scenario);

  ExecContext ref_ctx = make_ctx(fp32_torchsparse());
  const SparseTensor ref = sparse_conv3d(x, p, ref_ctx);

  std::vector<EngineConfig> configs = paper_engines();
  for (auto g : {GroupingStrategy::kSymmetric, GroupingStrategy::kFixed,
                 GroupingStrategy::kDenseAll}) {
    EngineConfig c = fp32_torchsparse();
    c.grouping = g;
    c.name = "torchsparse-" + to_string(g);
    configs.push_back(c);
  }
  EngineConfig fod = fp32_torchsparse();
  fod.dataflow = Dataflow::kFetchOnDemand;
  fod.name = "fetch-on-demand";
  configs.push_back(fod);

  for (const EngineConfig& cfg : configs) {
    SparseTensor fresh(x.coords(), x.feats());
    ExecContext ctx = make_ctx(cfg);
    const SparseTensor y = sparse_conv3d(fresh, p, ctx);
    ASSERT_EQ(y.num_points(), ref.num_points()) << cfg.name;
    EXPECT_EQ(y.coords(), ref.coords()) << cfg.name;
    // FP16 engines round features at every buffer boundary.
    const float tol = cfg.precision == Precision::kFP32 ? 2e-5f : 2e-2f;
    EXPECT_LT(max_abs_diff(y.feats(), ref.feats()), tol) << cfg.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, EngineEquivalence,
                         ::testing::Range(0, 6));

TEST(Conv3d, Int8PrecisionStaysCloseToFp32) {
  const SparseTensor x = random_tensor(200, 10, 16, 40);
  const Conv3dParams p = random_conv(3, 1, false, 16, 16, 41);
  ExecContext ref_ctx = make_ctx(fp32_torchsparse());
  const SparseTensor ref = sparse_conv3d(x, p, ref_ctx);

  EngineConfig cfg = torchsparse_config();
  cfg.precision = Precision::kINT8;
  SparseTensor fresh(x.coords(), x.feats());
  ExecContext ctx = make_ctx(cfg);
  const SparseTensor y = sparse_conv3d(fresh, p, ctx);
  EXPECT_LT(max_abs_diff(y.feats(), ref.feats()), 0.15f);
}

TEST(Conv3d, RecorderCapturesLayerWorkloads) {
  const SparseTensor x = random_tensor(100, 8, 4, 50);
  const Conv3dParams p = random_conv(3, 1, false, 4, 8, 51);
  ExecContext ctx = make_ctx(torchsparse_config());
  std::vector<LayerRecord> records;
  ctx.recorder = &records;
  ctx.layer_id = 7;
  sparse_conv3d(x, p, ctx);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].layer_id, 7);
  EXPECT_EQ(records[0].map_sizes.size(), 27u);
  EXPECT_EQ(records[0].c_in, 4u);
  EXPECT_EQ(records[0].c_out, 8u);
  EXPECT_TRUE(records[0].submanifold);
}

TEST(Conv3d, CostOnlyModeSkipsNumericsButKeepsShapes) {
  const SparseTensor x = random_tensor(100, 8, 4, 60);
  const Conv3dParams p = random_conv(3, 1, false, 4, 8, 61);
  ExecContext ctx(rtx3090(), torchsparse_config());
  ctx.compute_numerics = false;
  const SparseTensor y = sparse_conv3d(x, p, ctx);
  EXPECT_EQ(y.num_points(), x.num_points());
  EXPECT_EQ(y.channels(), 8u);
  EXPECT_GT(ctx.timeline.total_seconds(), 0.0);
  // A cost-only pass carries the output's shape, not feature storage.
  EXPECT_FALSE(y.has_features());
  EXPECT_TRUE(y.feats().empty());
}

// ---- Row-partitioned numerics (conv_numerics) against the serial loop.

/// Runs every job serially, partitions in reverse order: a schedule no
/// pool produces, so numerics that depended on partition order would
/// diverge here.
class ReverseSerialRunner final : public PartitionRunner {
 public:
  void start(std::size_t parts, PartitionFn fn) override {
    for (std::size_t p = parts; p-- > 0;) fn(p);
  }
  void join() override {}
};

/// The serial numerics loop, naively: offsets in ascending order; the
/// in-place offset adds x * W onto out; every other offset gathers its
/// rows, rounds them as one matrix, multiplies them in the naive
/// per-element order, rounds the psums if asked and adds them in map
/// order; outputs are rounded last.
Matrix serial_numerics(const Matrix& x, const KernelMap& km,
                       const std::vector<Matrix>& w, int in_place,
                       Precision prec, bool round_psums, std::size_t n_out) {
  const std::size_t c_in = x.cols(), c_out = w.front().cols();
  Matrix out(n_out, c_out);
  for (std::size_t n = 0; n < km.maps.size(); ++n) {
    const std::vector<MapEntry>& m = km.maps[n];
    if (m.empty()) continue;
    if (static_cast<int>(n) == in_place) {
      for (std::size_t i = 0; i < n_out; ++i)
        for (std::size_t j = 0; j < c_out; ++j) {
          float acc = out.at(i, j);
          for (std::size_t p = 0; p < c_in; ++p)
            acc += x.at(i, p) * w[n].at(p, j);
          out.at(i, j) = acc;
        }
      continue;
    }
    Matrix f(m.size(), c_in);
    for (std::size_t i = 0; i < m.size(); ++i)
      for (std::size_t p = 0; p < c_in; ++p)
        f.at(i, p) = x.at(static_cast<std::size_t>(m[i].in), p);
    f.quantize(prec);
    for (std::size_t i = 0; i < m.size(); ++i)
      for (std::size_t j = 0; j < c_out; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < c_in; ++p)
          acc += f.at(i, p) * w[n].at(p, j);
        if (round_psums && prec != Precision::kFP32) acc = fp16_round(acc);
        out.at(static_cast<std::size_t>(m[i].out), j) += acc;
      }
  }
  if (prec != Precision::kFP32) out.quantize(Precision::kFP16);
  return out;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// One layer's numerics inputs: features, map, weights, output rows.
struct NumericsCase {
  std::string name;
  Matrix x;
  KernelMap km;
  std::vector<Matrix> w;
  int in_place = -1;
  bool round_psums = true;  // false: the fetch-on-demand dataflow
  std::size_t n_out = 0;
};

/// Features in [-1, 1) with a quarter exact zeros, as after a ReLU.
Matrix relu_like(std::size_t rows, std::size_t cols, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> f(-1.0f, 1.0f);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng() % 4 == 0 ? 0.0f : f(rng);
  return m;
}

/// The geometries and dataflows sparse_conv3d runs, on `points` random
/// points: submanifold with the center in place and gathered,
/// fetch-on-demand, stride-2 downsample and its transposed conv. 40
/// output channels cover a 32-column panel and its tail.
std::vector<NumericsCase> numerics_cases(int points, int extent,
                                         uint64_t seed) {
  constexpr std::size_t kIn = 8, kOut = 40;
  const SparseTensor t = random_tensor(points, extent, kIn, seed);
  const std::vector<Coord>& fine = t.coords();
  std::mt19937_64 rng(seed + 1);
  MapSearchOptions sym;
  sym.use_symmetry = true;
  const ConvGeometry sub{3, 1, false};
  const KernelMap sub_map = build_kernel_map(fine, fine, sub, sym);
  const int center = center_offset_index(3);
  const std::vector<Coord> coarse =
      downsample_coords(fine, 2, 2, /*fused=*/true, /*simplified=*/true);
  const KernelMap down_map =
      build_kernel_map(fine, coarse, ConvGeometry{2, 2, false}, {});

  std::vector<NumericsCase> cases;
  const Matrix x = relu_like(fine.size(), kIn, seed + 2);
  const auto w3 = spnn::make_conv_weights(3, kIn, kOut, rng);
  const auto w2 = spnn::make_conv_weights(2, kIn, kOut, rng);
  cases.push_back({"submanifold, center in place", x, sub_map, w3, center,
                   true, fine.size()});
  cases.push_back({"submanifold, center gathered", x, sub_map, w3, -1, true,
                   fine.size()});
  cases.push_back({"fetch-on-demand", x, sub_map, w3, -1, false,
                   fine.size()});
  cases.push_back({"stride-2 downsample", x, down_map, w2, -1, true,
                   coarse.size()});
  cases.push_back({"transposed", relu_like(coarse.size(), kIn, seed + 3),
                   transpose_kernel_map(down_map), w2, -1, true,
                   fine.size()});
  return cases;
}

constexpr Precision kPrecisions[] = {Precision::kFP32, Precision::kFP16,
                                     Precision::kINT8};

Matrix serial_numerics(const NumericsCase& c, Precision prec) {
  return serial_numerics(c.x, c.km, c.w, c.in_place, prec, c.round_psums,
                         c.n_out);
}

/// conv_numerics at every count in `parts` on the pool and in reverse
/// serial order must give the serial loop's bits.
void expect_partitioned_matches(const NumericsCase& c, Precision prec,
                                std::initializer_list<std::size_t> parts) {
  const Matrix want = serial_numerics(c, prec);
  PoolRunner pool;
  ReverseSerialRunner reverse;
  for (std::size_t n : parts)
    for (PartitionRunner* run : {static_cast<PartitionRunner*>(&pool),
                                 static_cast<PartitionRunner*>(&reverse)}) {
      Matrix got(c.n_out, c.w.front().cols());
      conv_numerics(c.x, c.km, c.w, c.in_place, prec, c.round_psums, n,
                    *run, got);
      EXPECT_TRUE(same_bits(got, want))
          << c.name << ", " << to_string(prec) << ", " << n
          << " partitions" << (run == &pool ? "" : ", reverse order");
    }
}

TEST(ConvNumericsPartition, EveryDataflowMatchesSerialAtEveryPartitionCount) {
  for (const NumericsCase& c : numerics_cases(400, 9, 100))
    for (Precision prec : kPrecisions)
      expect_partitioned_matches(c, prec, {1, 2, 3, 4, 7});
}

TEST(ConvNumericsPartition, FewerOutputRowsThanPartitions) {
  // Three points in a row: every offset's map has at most three entries,
  // and at 4 and 7 partitions some partitions own no rows.
  std::mt19937_64 rng(200);
  const std::vector<Coord> coords = {{0, 1, 1, 1}, {0, 1, 1, 2}, {0, 1, 2, 2}};
  const KernelMap km =
      build_kernel_map(coords, coords, ConvGeometry{3, 1, false}, {});
  NumericsCase c{"three points", relu_like(3, 8, 201), km,
                 spnn::make_conv_weights(3, 8, 40, rng),
                 center_offset_index(3), true, 3};
  for (Precision prec : kPrecisions)
    expect_partitioned_matches(c, prec, {1, 2, 3, 4, 7});
}

TEST(ConvNumericsPartition, Int8ScaleComesFromAnotherPartitionsRows) {
  // Offset n's largest input feeds the last output row only, so at 2 or
  // more partitions every other partition must quantize offset n with a
  // maximum that lies outside its own rows.
  NumericsCase c = numerics_cases(400, 9, 300)[1];  // center gathered
  const int center = center_offset_index(3);
  std::size_t n = 0;
  MapEntry last{};
  for (std::size_t o = 0; o < c.km.maps.size(); ++o) {
    if (static_cast<int>(o) == center) continue;
    for (const MapEntry& e : c.km.maps[o])
      if (e.out > last.out) {
        last = e;
        n = o;
      }
  }
  ASSERT_EQ(static_cast<std::size_t>(last.out), c.n_out - 1);
  c.x.at(static_cast<std::size_t>(last.in), 0) = 40.0f;
  for (const MapEntry& e : c.km.maps[n])
    if (e.in == last.in) ASSERT_EQ(e.out, last.out);
  expect_partitioned_matches(c, Precision::kINT8, {2, 3, 4, 7});
}

TEST(ConvNumericsPartition, EnginePartitionCountMatchesSerial) {
  // Large enough that the engine's own count splits the rows.
  const std::size_t parts = numerics_partitions(3000, host_parallelism());
  EXPECT_EQ(numerics_partitions(3000, 1), 1u);
  for (const NumericsCase& c : numerics_cases(3000, 24, 400))
    expect_partitioned_matches(c, Precision::kFP16, {parts});
}

TEST(ConvNumericsPartition, ConcurrentCallersMatchSerial) {
  // One caller holds the pool and the other runs its partitions inline;
  // both get the serial bits.
  const std::vector<NumericsCase> cases = numerics_cases(600, 11, 500);
  const NumericsCase& c = cases[0];
  const Matrix want = serial_numerics(c, Precision::kFP16);
  std::atomic<bool> go{false};
  bool same[2] = {false, false};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t)
    callers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      bool ok = true;
      for (int rep = 0; rep < 4; ++rep) {
        PoolRunner run;
        Matrix got(c.n_out, c.w.front().cols());
        conv_numerics(c.x, c.km, c.w, c.in_place, Precision::kFP16, true, 4,
                      run, got);
        ok = ok && same_bits(got, want);
      }
      same[t] = ok;
    });
  go.store(true);
  for (std::thread& t : callers) t.join();
  EXPECT_TRUE(same[0]);
  EXPECT_TRUE(same[1]);
}

TEST(ConvNumericsPartition, RejectsMisshapenWeights) {
  NumericsCase c = numerics_cases(50, 5, 600)[0];
  PoolRunner pool;
  Matrix out(c.n_out, 40);
  c.w[5] = Matrix(8, 39);
  EXPECT_THROW(conv_numerics(c.x, c.km, c.w, c.in_place, Precision::kFP32,
                             true, 2, pool, out),
               std::invalid_argument);
  c.w[5] = Matrix(8, 40);
  c.w.pop_back();
  EXPECT_THROW(conv_numerics(c.x, c.km, c.w, c.in_place, Precision::kFP32,
                             true, 2, pool, out),
               std::invalid_argument);
}

/// Coordinates spread over every digit of a packed key: negative and
/// edge-of-range values, batches 0-3 and one near kCoordBatchMax. With
/// `dups`, about a third of them repeat an earlier coordinate.
std::vector<Coord> digit_spread_coords(int n, bool dups, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(-8, 8);
  const int32_t batches[] = {0, 1, 2, 3, kCoordBatchMax - 1};
  const int32_t origins[] = {0, kCoordSpatialMin + 8, kCoordSpatialMax - 8};
  std::vector<Coord> coords;
  while (static_cast<int>(coords.size()) < n) {
    if (dups && !coords.empty() && rng() % 3 == 0) {
      coords.push_back(coords[rng() % coords.size()]);
      continue;
    }
    const int32_t o = origins[rng() % 3];
    const int32_t b = batches[rng() % 5];
    const int32_t x = o + d(rng), y = o + d(rng), z = d(rng);
    coords.push_back({b, x, y, z});
  }
  return coords;
}

TEST(LevelKeys, RadixSortMatchesStdSort) {
  std::mt19937_64 rng(21);
  for (const uint64_t mask :
       {~uint64_t{0}, uint64_t{0xff00ff0000ff00ff}, uint64_t{0}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{5000}}) {
      SCOPED_TRACE(::testing::Message() << "mask=" << mask << " n=" << n);
      std::vector<uint64_t> keys(n), tmp(n);
      std::vector<int32_t> pos(n), pos_tmp(n);
      std::vector<std::pair<uint64_t, int32_t>> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        const uint64_t high = rng() & mask;
        keys[i] = high | (rng() % 4);  // many equal keys
        pos[i] = static_cast<int32_t>(i);
        want[i] = {keys[i], pos[i]};
      }
      std::sort(want.begin(), want.end());
      std::vector<uint64_t> alone = keys, alone_tmp(n);
      const uint64_t* sorted = radix_sort_keys(keys.data(), tmp.data(),
                                               pos.data(), pos_tmp.data(), n);
      const int32_t* sorted_pos =
          sorted == keys.data() ? pos.data() : pos_tmp.data();
      const uint64_t* sorted_alone = radix_sort_keys(
          alone.data(), alone_tmp.data(), nullptr, nullptr, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(sorted[i], want[i].first) << i;
        ASSERT_EQ(sorted_pos[i], want[i].second) << i;
        ASSERT_EQ(sorted_alone[i], want[i].first) << i;
      }
    }
  }
}

/// A level record's order equals std::sort on (key, position) pairs, so
/// equal coordinates keep ascending position order; its bounds equal
/// coord_bounds; a strictly ascending set keeps its order.
TEST(LevelKeys, TieOrderMatchesPairSort) {
  for (bool dups : {false, true}) {
    const auto coords = digit_spread_coords(3000, dups, 22);
    std::vector<std::pair<uint64_t, int32_t>> want;
    for (std::size_t i = 0; i < coords.size(); ++i)
      want.push_back({pack_coord(coords[i]), static_cast<int32_t>(i)});
    std::sort(want.begin(), want.end());
    const LevelKeys level = level_keys(coords);
    ASSERT_EQ(level.size(), coords.size());
    ASSERT_EQ(level.pos.size(), coords.size());
    for (std::size_t i = 0; i < coords.size(); ++i) {
      ASSERT_EQ(level.keys[i], want[i].first) << i;
      ASSERT_EQ(level.position(i), want[i].second) << i;
    }
    EXPECT_EQ(level.keys.back(), ~uint64_t{0});
    Coord lo, hi;
    ASSERT_TRUE(coord_bounds(coords, lo, hi));
    EXPECT_EQ(level.lo, lo);
    EXPECT_EQ(level.hi, hi);

    std::vector<Coord> ascending = coords;
    std::sort(ascending.begin(), ascending.end());
    ascending.erase(std::unique(ascending.begin(), ascending.end()),
                    ascending.end());
    const LevelKeys in_place = level_keys(ascending);
    EXPECT_TRUE(in_place.pos.empty());
    for (std::size_t i = 0; i < ascending.size(); ++i)
      ASSERT_EQ(in_place.keys[i], pack_coord(ascending[i])) << i;
  }
}

/// The conv path builds maps on level records kept in the tensor cache;
/// the vector API builds its own. For sorted, unsorted and duplicated
/// sets, on both backends, with the cross-request map cache off and on,
/// a k in {1, 2, 3} layer stack (stride 1, stride 2, then stride 1 on the
/// coarse level) must leave the maps, their stats and the coarse
/// coordinates that the vector API gives for the same sets.
TEST(LevelKeys, ConvPathMapsEqualVectorApi) {
  enum class Kind { kSorted, kUnsorted, kDuplicated };
  for (Kind kind : {Kind::kSorted, Kind::kUnsorted, Kind::kDuplicated}) {
    std::vector<Coord> coords =
        digit_spread_coords(600, kind == Kind::kDuplicated, 23);
    if (kind == Kind::kSorted) {
      std::sort(coords.begin(), coords.end());
      coords.erase(std::unique(coords.begin(), coords.end()), coords.end());
    }
    for (MapBackend backend : {MapBackend::kGrid, MapBackend::kHashMap}) {
      for (bool map_cache : {false, true}) {
        EngineConfig cfg = torchsparse_config();
        cfg.map_backend = backend;
        ExecContext ctx(rtx2080ti(), cfg);
        ctx.compute_numerics = false;
        ctx.simulate_cache = false;
        if (map_cache)
          ctx.map_cache = std::make_shared<KernelMapCache>(std::size_t(64)
                                                           << 20);
        for (int k : {1, 2, 3}) {
          // The second pass with the map cache on hits every product.
          for (int pass = 0; pass < (map_cache ? 2 : 1); ++pass) {
            SCOPED_TRACE(::testing::Message()
                         << "kind=" << static_cast<int>(kind)
                         << " backend=" << static_cast<int>(backend)
                         << " map_cache=" << map_cache << " k=" << k
                         << " pass=" << pass);
            SparseTensor x(coords, Matrix(coords.size(), 4));
            x = sparse_conv3d(x, random_conv(k, 1, false, 4, 4, 1), ctx);
            x = sparse_conv3d(x, random_conv(k, 2, false, 4, 4, 2), ctx);
            x = sparse_conv3d(x, random_conv(k, 1, false, 4, 4, 3), ctx);
            const TensorCache& cache = *x.cache();
            const auto& fine = *cache.coords_at_stride.at(1);
            const auto& coarse = *cache.coords_at_stride.at(2);
            EXPECT_EQ(coarse, downsample_coords(fine, k, 2, true, true));
            ASSERT_EQ(cache.kmaps.size(), 3u);
            for (const auto& [key, km] : cache.kmaps) {
              const ConvGeometry geom{key.kernel_size, key.stride, false,
                                      key.dilation};
              const MapSearchOptions opts{
                  backend, cfg.symmetric_map_search && geom.is_submanifold()};
              const auto& in = *cache.coords_at_stride.at(key.tensor_stride);
              const auto& out = *cache.coords_at_stride.at(
                  key.tensor_stride * key.stride);
              const KernelMap want = build_kernel_map(in, out, geom, opts);
              EXPECT_EQ(km->maps, want.maps) << "stride " << key.stride;
              EXPECT_EQ(km->stats.queries, want.stats.queries);
              EXPECT_EQ(km->stats.index_accesses, want.stats.index_accesses);
              EXPECT_EQ(km->stats.build_accesses, want.stats.build_accesses);
              EXPECT_EQ(km->stats.used_symmetry, want.stats.used_symmetry);
              EXPECT_EQ(km->stats.backend, want.stats.backend);
            }
            // A pass whose products all hit the cache builds no record.
            if (pass == 1)
              for (const auto& [stride, level] : cache.levels_at_stride)
                EXPECT_EQ(level.keys, nullptr) << "stride " << stride;
          }
        }
      }
    }
  }
}

/// The vector API's map of a forward layer between two sets: what a
/// conv-path map must equal.
KernelMap vector_api_map(const std::vector<Coord>& in,
                         const std::vector<Coord>& out, int kernel, int stride,
                         MapBackend backend, int dilation = 1) {
  return build_kernel_map(in, out,
                          ConvGeometry{kernel, stride, false, dilation},
                          MapSearchOptions{backend, false});
}

void expect_same_map(const KernelMap& got, const KernelMap& want) {
  EXPECT_EQ(got.maps, want.maps);
  EXPECT_EQ(got.stats.queries, want.stats.queries);
  EXPECT_EQ(got.stats.index_accesses, want.stats.index_accesses);
  EXPECT_EQ(got.stats.build_accesses, want.stats.build_accesses);
  EXPECT_EQ(got.stats.used_symmetry, want.stats.used_symmetry);
  EXPECT_EQ(got.stats.backend, want.stats.backend);
}

/// Does the tensor cache hold a level record at `stride`? A level can
/// hold its content digest alone.
bool has_record(const TensorCache& cache, int stride) {
  const auto it = cache.levels_at_stride.find(stride);
  return it != cache.levels_at_stride.end() && it->second.keys != nullptr;
}

/// A cost-only grid-backend context, with a cross-request map cache when
/// `map_cache`.
ExecContext cost_only_ctx(MapBackend backend, bool map_cache) {
  EngineConfig cfg = torchsparse_config();
  cfg.map_backend = backend;
  ExecContext ctx(rtx2080ti(), cfg);
  ctx.compute_numerics = false;
  ctx.simulate_cache = false;
  if (map_cache)
    ctx.map_cache = std::make_shared<KernelMapCache>(std::size_t(64) << 20);
  return ctx;
}

// A downsample on the grid backend emits its strided layer's map, and the
// layer uses it: the map builds no input-level record, which only the
// merge-join reads (TensorCache::levels_at_stride keeps the coarse
// record the downsample deposited, and no stride-1 one).
TEST(DownsampleMap, LayerUsesTheEmittedMap) {
  const auto coords = digit_spread_coords(600, true, 24);
  for (bool map_cache : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "map_cache=" << map_cache);
    ExecContext ctx = cost_only_ctx(MapBackend::kGrid, map_cache);
    SparseTensor x(coords, Matrix(coords.size(), 4));
    const SparseTensor y =
        sparse_conv3d(x, random_conv(3, 2, false, 4, 4, 1), ctx);
    const TensorCache& cache = *y.cache();
    EXPECT_FALSE(has_record(cache, 1));
    EXPECT_TRUE(has_record(cache, 2));
    expect_same_map(*cache.kmaps.at(MapKey{1, 3, 2, 1}),
                    vector_api_map(coords, y.coords(), 3, 2,
                                   MapBackend::kGrid));
  }
}

// (a) Coarse coordinates from the cross-request cache come without a map:
// the strided map misses, the merge-join builds it (reading both levels'
// records) and gives the vector API's map.
TEST(DownsampleMap, CachedCoordsBuildTheMapByMergeJoin) {
  const auto coords = digit_spread_coords(600, false, 25);
  ExecContext ctx = cost_only_ctx(MapBackend::kGrid, true);
  MapCachePayload seed;
  seed.coords = std::make_shared<const std::vector<Coord>>(downsample_coords(
      coords, 3, 2, ctx.cfg.fused_downsample, ctx.cfg.simplified_control,
      &seed.ds_counters));
  ASSERT_TRUE(ctx.map_cache->admit(
      salt_cache_key(downsample_cache_key(coords, 3, 2,
                                          ctx.cfg.fused_downsample,
                                          ctx.cfg.simplified_control),
                     ctx.cache_namespace),
      seed));
  SparseTensor x(coords, Matrix(coords.size(), 4));
  const SparseTensor y =
      sparse_conv3d(x, random_conv(3, 2, false, 4, 4, 1), ctx);
  EXPECT_EQ(y.coords_ptr(), seed.coords);
  const MapCacheStats stats = ctx.map_cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  const TensorCache& cache = *y.cache();
  EXPECT_EQ(cache.levels_at_stride.count(1), 1u);
  expect_same_map(*cache.kmaps.at(MapKey{1, 3, 2, 1}),
                  vector_api_map(coords, y.coords(), 3, 2, MapBackend::kGrid));
}

// (b) Two strided layers of different K read one level: the first
// downsamples and uses its map; the second finds the coarse level made
// with the other K, so the merge-join builds its map.
TEST(DownsampleMap, SecondKernelSizeOnOneLevelUsesMergeJoin) {
  const auto coords = digit_spread_coords(600, false, 26);
  for (bool map_cache : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "map_cache=" << map_cache);
    ExecContext ctx = cost_only_ctx(MapBackend::kGrid, map_cache);
    SparseTensor x(coords, Matrix(coords.size(), 4));
    const SparseTensor a =
        sparse_conv3d(x, random_conv(2, 2, false, 4, 4, 1), ctx);
    EXPECT_FALSE(has_record(*a.cache(), 1));
    const SparseTensor b =
        sparse_conv3d(x, random_conv(3, 2, false, 4, 4, 2), ctx);
    EXPECT_EQ(b.coords_ptr(), a.coords_ptr());
    const TensorCache& cache = *b.cache();
    EXPECT_TRUE(has_record(cache, 1));
    expect_same_map(*cache.kmaps.at(MapKey{1, 2, 2, 1}),
                    vector_api_map(coords, a.coords(), 2, 2,
                                   MapBackend::kGrid));
    expect_same_map(*cache.kmaps.at(MapKey{1, 3, 2, 1}),
                    vector_api_map(coords, a.coords(), 3, 2,
                                   MapBackend::kGrid));
  }
}

// (c) The hashmap backend's stats are probe counts: its downsample emits
// no map, and its strided maps are the probe loop's.
TEST(DownsampleMap, HashMapBackendNeverTakesAMap) {
  const auto coords = digit_spread_coords(600, true, 27);
  for (bool map_cache : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "map_cache=" << map_cache);
    ExecContext ctx = cost_only_ctx(MapBackend::kHashMap, map_cache);
    SparseTensor x(coords, Matrix(coords.size(), 4));
    const SparseTensor y =
        sparse_conv3d(x, random_conv(3, 2, false, 4, 4, 1), ctx);
    const TensorCache& cache = *y.cache();
    const KernelMap& km = *cache.kmaps.at(MapKey{1, 3, 2, 1});
    EXPECT_EQ(km.stats.backend, MapBackend::kHashMap);
    expect_same_map(km, vector_api_map(coords, y.coords(), 3, 2,
                                       MapBackend::kHashMap));
  }
}

// A dilated strided layer searches s*q + dil*delta, which the downsample's
// sweep does not: its downsample emits no map, and the merge-join builds
// the dilated one.
TEST(DownsampleMap, DilatedStridedLayerUsesMergeJoin) {
  const auto coords = digit_spread_coords(600, false, 30);
  ExecContext ctx = cost_only_ctx(MapBackend::kGrid, false);
  Conv3dParams conv = random_conv(3, 2, false, 4, 4, 1);
  conv.geom.dilation = 2;
  SparseTensor x(coords, Matrix(coords.size(), 4));
  const SparseTensor y = sparse_conv3d(x, conv, ctx);
  const TensorCache& cache = *y.cache();
  EXPECT_EQ(cache.levels_at_stride.count(1), 1u);
  expect_same_map(*cache.kmaps.at(MapKey{1, 3, 2, 2}),
                  vector_api_map(coords, y.coords(), 3, 2, MapBackend::kGrid,
                                 2));
}

// (d) Two threads resolve the same strided layer on one KernelMapCache,
// racing for both the coordinates and the map; each gets the vector
// API's map, whichever build won.
TEST(DownsampleMap, ConcurrentResolvesOnOneCacheAgree) {
  const auto coords = digit_spread_coords(2000, true, 28);
  const std::vector<Coord> coarse = downsample_coords(coords, 3, 2, true, true);
  const KernelMap want =
      vector_api_map(coords, coarse, 3, 2, MapBackend::kGrid);
  const Conv3dParams conv = random_conv(3, 2, false, 4, 4, 1);
  for (int round = 0; round < 6; ++round) {
    const auto shared =
        std::make_shared<KernelMapCache>(std::size_t(64) << 20);
    std::atomic<bool> go{false};
    std::shared_ptr<const KernelMap> got[2];
    std::shared_ptr<const std::vector<Coord>> got_coords[2];
    std::vector<std::thread> callers;
    for (int t = 0; t < 2; ++t)
      callers.emplace_back([&, t] {
        ExecContext ctx = cost_only_ctx(MapBackend::kGrid, false);
        ctx.map_cache = shared;
        SparseTensor x(coords, Matrix(coords.size(), 4));
        while (!go.load()) std::this_thread::yield();
        const SparseTensor y = sparse_conv3d(x, conv, ctx);
        got[t] = y.cache()->kmaps.at(MapKey{1, 3, 2, 1});
        got_coords[t] = y.coords_ptr();
      });
    go.store(true);
    for (std::thread& t : callers) t.join();
    for (int t = 0; t < 2; ++t) {
      SCOPED_TRACE(::testing::Message() << "round=" << round << " t=" << t);
      EXPECT_EQ(*got_coords[t], coarse);
      expect_same_map(*got[t], want);
    }
  }
}

// (e) A second pass hits the cache for both products, and a downsample
// whose strided map hits while its coordinates miss uses the cached map:
// the emitted map is dropped.
TEST(DownsampleMap, CacheHitsTakeTheCachedMap) {
  const auto coords = digit_spread_coords(600, false, 29);
  const Conv3dParams conv = random_conv(3, 2, false, 4, 4, 1);
  ExecContext ctx = cost_only_ctx(MapBackend::kGrid, true);
  for (int pass = 0; pass < 2; ++pass) {
    SparseTensor x(coords, Matrix(coords.size(), 4));
    sparse_conv3d(x, conv, ctx);
  }
  const MapCacheStats warm = ctx.map_cache->stats();
  EXPECT_EQ(warm.hits, 2u);

  // Only the strided map is cached; the downsample misses and emits.
  ExecContext map_only = cost_only_ctx(MapBackend::kGrid, true);
  const std::vector<Coord> coarse = downsample_coords(coords, 3, 2, true, true);
  const ConvGeometry geom{3, 2, false, 1};
  const MapSearchOptions opts{MapBackend::kGrid, false};
  MapCachePayload seed;
  seed.kmap = std::make_shared<const KernelMap>(
      build_kernel_map(coords, coarse, geom, opts));
  ASSERT_TRUE(map_only.map_cache->admit(
      salt_cache_key(kernel_map_cache_key(coords, coarse, geom, opts),
                     map_only.cache_namespace),
      seed));
  SparseTensor x(coords, Matrix(coords.size(), 4));
  const SparseTensor y = sparse_conv3d(x, conv, map_only);
  const MapCacheStats stats = map_only.map_cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(y.cache()->kmaps.at(MapKey{1, 3, 2, 1}), seed.kmap);
}

// A level whose coordinate set is replaced keys its products by the new
// set's contents: after a tensor with other coordinates takes over a
// level the tensor cache has already keyed, its submanifold map and its
// downsample resolve under the new set's keys.
TEST(LevelDigest, ReplacedSetIsKeyedByItsOwnContents) {
  const auto a = digit_spread_coords(600, false, 31);
  const auto b = digit_spread_coords(600, false, 32);
  ASSERT_NE(a, b);
  ExecContext ctx = cost_only_ctx(MapBackend::kGrid, true);
  std::vector<MapCacheEvent> events;
  ctx.cache_events = &events;
  const Conv3dParams sub = random_conv(3, 1, false, 4, 4, 1);
  const Conv3dParams down = random_conv(3, 2, false, 4, 4, 2);
  const MapSearchOptions sub_opts{MapBackend::kGrid,
                                  ctx.cfg.symmetric_map_search};
  const MapSearchOptions down_opts{MapBackend::kGrid, false};
  auto expect_keys = [&](const std::vector<Coord>& fine,
                         const TensorCache& cache) {
    const std::vector<Coord>& coarse = *cache.coords_at_stride.at(2);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].key,
              salt_cache_key(kernel_map_cache_key(fine, fine, sub.geom,
                                                  sub_opts),
                             ctx.cache_namespace));
    EXPECT_EQ(events[1].key,
              salt_cache_key(downsample_cache_key(
                                 fine, 3, 2, ctx.cfg.fused_downsample,
                                 ctx.cfg.simplified_control),
                             ctx.cache_namespace));
    EXPECT_EQ(events[2].key,
              salt_cache_key(kernel_map_cache_key(fine, coarse, down.geom,
                                                  down_opts),
                             ctx.cache_namespace));
  };

  SparseTensor x(a, Matrix(a.size(), 4));
  sparse_conv3d(sparse_conv3d(x, sub, ctx), down, ctx);
  expect_keys(a, *x.cache());

  // The stride-1 level now holds `b`; the products built on `a` go.
  const std::shared_ptr<TensorCache> cache = x.cache();
  const auto b_ptr = std::make_shared<const std::vector<Coord>>(b);
  cache->coords_at_stride[1] = b_ptr;
  cache->coords_at_stride.erase(2);
  cache->kmaps.clear();
  events.clear();
  const SparseTensor y(b_ptr, Matrix(b.size(), 4), 1, cache);
  sparse_conv3d(sparse_conv3d(y, sub, ctx), down, ctx);
  expect_keys(b, *cache);
}

}  // namespace
}  // namespace ts
