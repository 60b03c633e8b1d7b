// Sparse convolution end-to-end correctness: every engine preset and every
// optimization combination must agree with the dense volumetric reference,
// and the row-partitioned numerics with the serial loop, bit for bit.
#include <gtest/gtest.h>

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
  for (std::size_t i = 0; i < y.feats().size(); ++i)
    EXPECT_EQ(y.feats().data()[i], 0.0f);
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

}  // namespace
}  // namespace ts
