// google-benchmark microbenchmarks for the substrate kernels: synthetic
// scan ray casting, coordinate hashing, map search (synthetic sets and a
// real scan's layer stack), output-coordinate construction on real
// scans (alone and emitting the strided kernel map), the conv gather,
// one layer's row-partitioned numerics, GEMM on the segmentation
// workload's shapes, the L2 cache simulator (serial and set-partitioned),
// FP16 quantization of a feature matrix, and ReLU on one.
//
// These measure the *host implementation* (this repo runs the algorithms
// on CPU); the paper-facing performance numbers come from the cost model
// in the fig*/table* binaries.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/conv3d.hpp"
#include "core/downsample.hpp"
#include "core/gather_scatter.hpp"
#include "core/kernel_map.hpp"
#include "data/lidar.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"
#include "hash/flat_hashmap.hpp"
#include "tensor/host_pool.hpp"
#include "nn/layers.hpp"
#include "tensor/matrix.hpp"

namespace {

std::vector<ts::Coord> make_coords(int n, int extent, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> d(0, extent);
  std::vector<ts::Coord> coords;
  coords.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    coords.push_back({0, d(rng), d(rng), d(rng)});
  return coords;
}

// Args are {preset, full}: 0 = semantic_kitti_spec(), 1 = waymo_spec(3),
// 2 = waymo_spec(1); full = 0 scales the azimuth steps by 0.05 as the
// perfbench workloads do (seg-numerics, det-costonly and the served
// detection scans), full = 1 keeps the preset's resolution. Iterations
// cycle over eight scenes; items/s is points generated per second.
void BM_GenerateScan(benchmark::State& state) {
  const int preset = static_cast<int>(state.range(0));
  ts::LidarSpec spec = preset == 0   ? ts::semantic_kitti_spec()
                       : preset == 1 ? ts::waymo_spec(3)
                                     : ts::waymo_spec(1);
  if (state.range(1) == 0)
    spec.azimuth_steps = std::max(
        32, static_cast<int>(std::lround(spec.azimuth_steps * 0.05)));
  int64_t points = 0;
  uint64_t seed = 0;
  for (auto _ : state) {
    const auto scan = ts::generate_scan(spec, 1 + seed++ % 8);
    benchmark::DoNotOptimize(scan.data());
    points += static_cast<int64_t>(scan.size());
  }
  state.SetItemsProcessed(points);
}
BENCHMARK(BM_GenerateScan)
    ->ArgNames({"preset", "full"})
    ->ArgsProduct({{0, 1, 2}, {0}})
    ->Args({1, 1});

void BM_FlatHashMapBuild(benchmark::State& state) {
  const auto coords = make_coords(static_cast<int>(state.range(0)), 256, 1);
  for (auto _ : state) {
    ts::FlatHashMap m(coords.size());
    for (std::size_t i = 0; i < coords.size(); ++i)
      m.insert(coords[i], static_cast<int64_t>(i));
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(coords.size()));
}
BENCHMARK(BM_FlatHashMapBuild)->Arg(10000)->Arg(100000);

// Args are {points, grid, kernel}: a direct submanifold search at K=3,
// and at K=1 the symmetric build, which searches nothing and emits the
// identity map (the conv path's K=1 submanifold layers).
void BM_MapSearch(benchmark::State& state) {
  const bool grid = state.range(1) != 0;
  const auto coords = make_coords(static_cast<int>(state.range(0)), 128, 2);
  const int kernel = static_cast<int>(state.range(2));
  const ts::ConvGeometry geom{kernel, 1, false};
  ts::MapSearchOptions opts;
  opts.backend = grid ? ts::MapBackend::kGrid : ts::MapBackend::kHashMap;
  opts.use_symmetry = kernel == 1;
  for (auto _ : state) {
    auto km = ts::build_kernel_map(coords, coords, geom, opts);
    benchmark::DoNotOptimize(km.total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(coords.size()) *
                          ts::kernel_volume(kernel));
}
BENCHMARK(BM_MapSearch)
    ->ArgNames({"points", "grid", "kernel"})
    ->Args({20000, 0, 3})
    ->Args({20000, 1, 3})
    ->Args({20000, 1, 1});

void BM_SymmetricMapSearch(benchmark::State& state) {
  const auto coords = make_coords(20000, 128, 2);
  ts::ConvGeometry geom{3, 1, false};
  ts::MapSearchOptions opts{ts::MapBackend::kGrid, true};
  for (auto _ : state) {
    auto km = ts::build_kernel_map(coords, coords, geom, opts);
    benchmark::DoNotOptimize(km.total());
  }
}
BENCHMARK(BM_SymmetricMapSearch);

/// The coordinate levels of one fixed-seed scan at scale 0.05, as the
/// workloads' layer stacks see them: level 0 in voxelizer order, each
/// later level the key-sorted downsample_coords output of the one above
/// (K=2 for MinkUNet's segmentation scans, K=3 for CenterPoint's
/// detection scans).
const std::vector<std::vector<ts::Coord>>& scan_levels(bool detection) {
  static const auto build = [](bool det) {
    ts::LidarSpec spec = det ? ts::waymo_spec(3) : ts::semantic_kitti_spec();
    spec.azimuth_steps = std::max(
        32, static_cast<int>(std::lround(spec.azimuth_steps * 0.05)));
    const ts::VoxelSpec vox =
        det ? ts::detection_voxels() : ts::segmentation_voxels();
    std::vector<std::vector<ts::Coord>> levels(4);
    levels[0] = ts::make_input(spec, vox, /*seed=*/1).coords();
    for (std::size_t l = 1; l < levels.size(); ++l)
      levels[l] =
          ts::downsample_coords(levels[l - 1], det ? 3 : 2, 2, true, true);
    return levels;
  };
  static const auto seg = build(false);
  static const auto det = build(true);
  return detection ? det : seg;
}

// Args are {detection, level, strided}: the grid-backend map builds of a
// real scan's layer stack. strided = 0 is the symmetric submanifold K=3
// layer at `level`; strided = 1 is the stride-2 downsample from `level`
// to the next (K=2 on segmentation scans, K=3 on detection scans).
void BM_MapSearchScan(benchmark::State& state) {
  const bool det = state.range(0) != 0;
  const auto level = static_cast<std::size_t>(state.range(1));
  const bool strided = state.range(2) != 0;
  const auto& levels = scan_levels(det);
  const auto& in = levels[level];
  const auto& out = strided ? levels[level + 1] : in;
  const ts::ConvGeometry geom{strided && !det ? 2 : 3, strided ? 2 : 1,
                              false};
  const ts::MapSearchOptions opts{ts::MapBackend::kGrid, !strided};
  for (auto _ : state) {
    auto km = ts::build_kernel_map(in, out, geom, opts);
    benchmark::DoNotOptimize(km.total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_MapSearchScan)
    ->ArgNames({"det", "level", "strided"})
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3}, {0}})
    ->ArgsProduct({{0, 1}, {0, 1, 2}, {1}});

/// The voxelized input of one fixed-seed scan: segmentation (MinkUNet's
/// SemanticKITTI-like scan) or detection (CenterPoint's Waymo 3-frame
/// scan), at scale 0.05 as the workloads run it or at the preset's full
/// resolution.
const std::vector<ts::Coord>& scan_input(bool detection, bool full) {
  if (!full) return scan_levels(detection)[0];
  static const auto build = [](bool det) {
    const ts::LidarSpec spec =
        det ? ts::waymo_spec(3) : ts::semantic_kitti_spec();
    const ts::VoxelSpec vox =
        det ? ts::detection_voxels() : ts::segmentation_voxels();
    return ts::make_input(spec, vox, /*seed=*/1).coords();
  };
  static const auto seg = build(false);
  static const auto det = build(true);
  return detection ? det : seg;
}

// Args are {kernel, full}: the stride-2 output coordinates of a scan's
// voxelized input, K=2 on the segmentation scan (MinkUNet's downsample)
// and K=3 on the detection scan (CenterPoint's), at serving scale
// (full = 0) or full resolution (full = 1). Items are input points.
void BM_DownsampleCoords(benchmark::State& state) {
  const int kernel = static_cast<int>(state.range(0));
  const auto& in = scan_input(kernel == 3, state.range(1) != 0);
  for (auto _ : state) {
    auto out = ts::downsample_coords(in, kernel, 2, true, true);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["points"] = static_cast<double>(in.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.size()));
}
BENCHMARK(BM_DownsampleCoords)
    ->ArgNames({"kernel", "full"})
    ->ArgsProduct({{2, 3}, {0, 1}});

// BM_DownsampleCoords's scans, also emitting the strided layer's kernel
// map: at full = 0 it replaces BM_DownsampleCoords plus the strided
// BM_MapSearchScan of level 0 on the conv path.
void BM_DownsampleWithMap(benchmark::State& state) {
  const int kernel = static_cast<int>(state.range(0));
  const auto& in = scan_input(kernel == 3, state.range(1) != 0);
  for (auto _ : state) {
    auto out =
        ts::downsample_level_with_map(in, nullptr, kernel, 2, true, true);
    benchmark::DoNotOptimize(out.map->total());
  }
  state.counters["points"] = static_cast<double>(in.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.size()));
}
BENCHMARK(BM_DownsampleWithMap)
    ->ArgNames({"kernel", "full"})
    ->ArgsProduct({{2, 3}, {0, 1}});

/// Random [-1,1) matrix with about half its entries exactly zero when
/// `zero_half` is set (a gathered feature matrix after ReLU).
ts::Matrix random_matrix(std::size_t r, std::size_t c, bool zero_half,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  ts::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = zero_half && (rng() & 1u) ? 0.0f : dist(rng);
  return m;
}

// Args are {m, k, n}: the dominant GEMM shapes of MinkUNet-0.5x on
// SemanticKITTI-like scans at scale 0.05 (the seg-numerics workload),
// with half of A zero. 130x128x128 alone is 44% of its GEMM time. The
// last three are the time-weighted median row counts of the 128x128,
// 192x128 and 64x48 GEMMs as they run inside that workload.
void BM_BlockedGemm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const ts::Matrix a = random_matrix(m, k, true, 1);
  const ts::Matrix b = random_matrix(k, n, false, 2);
  ts::Matrix out;
  for (auto _ : state) {
    ts::mm(a, b, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m * k * n * 2));
}
BENCHMARK(BM_BlockedGemm)
    ->Args({130, 128, 128})
    ->Args({173, 192, 128})
    ->Args({175, 48, 48})
    ->Args({2425, 48, 19})
    ->Args({282, 128, 128})
    ->Args({321, 192, 128})
    ->Args({1858, 64, 48});

// The conv numerics' gather for one owner of all 100k output rows: 64-float
// rows from 50k random inputs, into a buffer made once.
void BM_GatherRows(benchmark::State& state) {
  const std::size_t n = 50000, entries = 100000;
  ts::Matrix src(n, 64, 1.0f);
  std::mt19937_64 rng(3);
  std::vector<ts::MapEntry> map(entries);
  for (std::size_t i = 0; i < entries; ++i)
    map[i] = {static_cast<int32_t>(rng() % n), static_cast<int32_t>(i)};
  std::shuffle(map.begin(), map.end(), rng);
  std::vector<float> dst(entries * 64);
  std::vector<int32_t> rows(entries);
  for (auto _ : state) {
    std::size_t next = 0;
    benchmark::DoNotOptimize(ts::gather_owned_rows(
        src, map, next, 0, entries, entries, dst.data(), rows.data()));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(entries * 64 * 4));
}
BENCHMARK(BM_GatherRows);

// One MinkUNet-0.5x-shaped layer's numerics: the 3^3 submanifold conv,
// 64 -> 64 channels in FP16 with the center in place, on the level of the
// scan_levels segmentation stack nearest 2.5k points. Arg: 0 runs the
// engine's partition count on the pool, 1 runs one partition (what a
// caller without the pool runs). Items are map entries.
void BM_ConvNumerics(benchmark::State& state) {
  const auto& levels = scan_levels(false);
  const auto& coords = *std::min_element(
      levels.begin(), levels.end(), [](const auto& a, const auto& b) {
        const auto d = [](std::size_t s) {
          return s > 2500 ? s - 2500 : 2500 - s;
        };
        return d(a.size()) < d(b.size());
      });
  const ts::KernelMap km = ts::build_kernel_map(
      coords, coords, ts::ConvGeometry{3, 1, false},
      ts::MapSearchOptions{ts::MapBackend::kGrid, true});
  ts::Matrix x = random_matrix(coords.size(), 64, true, 7);
  x.quantize(ts::Precision::kFP16);
  std::mt19937_64 rng(8);
  std::vector<ts::Matrix> w = ts::spnn::make_conv_weights(3, 64, 64, rng);
  for (ts::Matrix& m : w) m.quantize(ts::Precision::kFP16);
  const int center = ts::center_offset_index(3);
  for (auto _ : state) {
    ts::PoolRunner run;
    const std::size_t parts =
        state.range(0) == 1
            ? 1
            : ts::numerics_partitions(coords.size(), run.threads());
    ts::Matrix out(coords.size(), 64);
    ts::conv_numerics(x, km, w, center, ts::Precision::kFP16, true, parts,
                      run, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["points"] = static_cast<double>(coords.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(km.total()));
}
BENCHMARK(BM_ConvNumerics)->Arg(0)->Arg(1)->UseRealTime();

// The L2 replay's two access shapes on the RTX 2080 Ti L2. Rows: the
// locality-aware gather's stream of 32-256 B feature rows, a sequential
// read of each input row interleaved with writes to its (scattered)
// gather-buffer slots.
void BM_CacheSimRows(benchmark::State& state) {
  const std::size_t row = static_cast<std::size_t>(state.range(0));
  const std::size_t n_in = 1 << 15;
  const std::size_t fanout = 3;  // slot writes per input row
  std::mt19937_64 rng(4);
  std::vector<uint64_t> slots(n_in * fanout);
  for (auto& s : slots) s = rng() % (n_in * fanout);
  ts::CacheSim l2(static_cast<std::size_t>(ts::rtx2080ti().l2_bytes));
  const uint64_t x_base = 0, f_base = uint64_t{1} << 40;
  for (auto _ : state) {
    std::size_t misses = 0;
    for (std::size_t j = 0; j < n_in; ++j) {
      misses += l2.access(x_base + j * row, row, false);
      for (std::size_t t = j * fanout; t < (j + 1) * fanout; ++t)
        misses += l2.access(f_base + slots[t] * row, row, true);
    }
    benchmark::DoNotOptimize(misses);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n_in * (fanout + 1)));
}
BENCHMARK(BM_CacheSimRows)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Ranges: matmul_touch's shape, an 8 MiB read of the gather buffer then
// an 8 MiB write of the partial sums, each larger than the whole L2.
void BM_CacheSimRange(benchmark::State& state) {
  const std::size_t bytes = std::size_t{8} << 20;
  ts::CacheSim l2(static_cast<std::size_t>(ts::rtx2080ti().l2_bytes));
  const uint64_t f_base = uint64_t{1} << 40, p_base = uint64_t{2} << 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2.access(f_base, bytes, false));
    benchmark::DoNotOptimize(l2.access(p_base, bytes, true));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * bytes / l2.line_bytes()));
}
BENCHMARK(BM_CacheSimRange);

// The two shapes above through CacheSim::replay, the set-partitioned entry
// point the engine and CacheSimPartition.* use, on the host pool: one
// partition (the serial loop, what a caller without the pool runs), one
// per hardware thread, and the engine's default of kPartitionsPerThread
// per hardware thread. Args: (row bytes,) partitions.
void partition_args(benchmark::internal::Benchmark* b, bool rows) {
  const int hw = static_cast<int>(ts::host_parallelism());
  const int per = static_cast<int>(ts::CacheSim::kPartitionsPerThread);
  for (int row : {32, 128, 256}) {
    for (int parts : {1, hw, per * hw}) {
      if (rows) {
        b->Args({row, parts});
      } else {
        b->Args({parts});
      }
    }
    if (!rows) break;
  }
}

void BM_CacheSimRowsPartitioned(benchmark::State& state) {
  const std::size_t row = static_cast<std::size_t>(state.range(0));
  const std::size_t parts = static_cast<std::size_t>(state.range(1));
  const std::size_t n_in = 1 << 15;
  const std::size_t fanout = 3;  // slot writes per input row
  std::mt19937_64 rng(4);
  std::vector<uint64_t> slots(n_in * fanout);
  for (auto& s : slots) s = rng() % (n_in * fanout);
  ts::CacheSim l2(static_cast<std::size_t>(ts::rtx2080ti().l2_bytes));
  ts::PoolRunner pool;
  const uint64_t x_base = 0, f_base = uint64_t{1} << 40;
  for (auto _ : state) {
    l2.replay(parts, pool, [&](ts::CacheSim::ReplaySink& sink) {
      for (std::size_t j = 0; j < n_in; ++j) {
        sink.access(x_base + j * row, row, false);
        for (std::size_t t = j * fanout; t < (j + 1) * fanout; ++t)
          sink.access(f_base + slots[t] * row, row, true);
      }
    });
    benchmark::DoNotOptimize(l2.hits());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n_in * (fanout + 1)));
}
BENCHMARK(BM_CacheSimRowsPartitioned)->Apply([](auto* b) {
  partition_args(b, true);
});

void BM_CacheSimRangePartitioned(benchmark::State& state) {
  const std::size_t parts = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = std::size_t{8} << 20;
  ts::CacheSim l2(static_cast<std::size_t>(ts::rtx2080ti().l2_bytes));
  ts::PoolRunner pool;
  const uint64_t f_base = uint64_t{1} << 40, p_base = uint64_t{2} << 40;
  for (auto _ : state) {
    l2.replay(parts, pool, [&](ts::CacheSim::ReplaySink& sink) {
      sink.access(f_base, bytes, false);
      sink.access(p_base, bytes, true);
    });
    benchmark::DoNotOptimize(l2.hits());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * bytes / l2.line_bytes()));
}
BENCHMARK(BM_CacheSimRangePartitioned)->Apply([](auto* b) {
  partition_args(b, false);
});

// FP16 storage rounding of one gathered feature matrix (2500 voxels x 64
// channels), as sparse_conv3d applies it to every gather and partial sum.
// Rounding is idempotent and the kernel is branch-free, so re-rounding the
// same matrix every iteration costs what the first rounding does.
void BM_QuantizeFp16(benchmark::State& state) {
  ts::Matrix m = random_matrix(2500, 64, true, 5);
  for (auto _ : state) {
    m.quantize(ts::Precision::kFP16);
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_QuantizeFp16);

// ReLU on a 2500x64 feature matrix with half of its entries negative,
// like post-BN activations: the tensor copy plus the clamp loop.
void BM_ReluForward(benchmark::State& state) {
  std::mt19937_64 rng(6);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<ts::Coord> coords(2500);
  for (std::size_t i = 0; i < coords.size(); ++i)
    coords[i] = {0, static_cast<int32_t>(i), 0, 0};
  ts::Matrix f(coords.size(), 64);
  for (std::size_t i = 0; i < f.size(); ++i) f.data()[i] = dist(rng);
  const ts::SparseTensor x(std::move(coords), std::move(f));
  ts::EngineConfig cfg = ts::torchsparse_config();
  cfg.precision = ts::Precision::kFP32;
  ts::ExecContext ctx(ts::rtx2080ti(), cfg);
  ts::spnn::ReLU relu;
  for (auto _ : state) {
    ts::SparseTensor y = relu.forward(x, ctx);
    benchmark::DoNotOptimize(y.feats().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(x.feats().size()));
}
BENCHMARK(BM_ReluForward);

}  // namespace

BENCHMARK_MAIN();
