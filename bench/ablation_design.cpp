// Ablations on design choices beyond the paper's own tables:
//   (a) L2-capacity sweep for weight-stationary vs locality-aware
//       movement — §4.3.2's claim that WS order cannot exploit *any*
//       cache because the working set dwarfs the L2, while the
//       locality-aware order is cache-size-insensitive by construction;
//   (b) skipping data movement for the center (identity) offset;
//   (c) grid vs hashmap memory-for-speed trade-off;
//   (d) symmetric map search across point-cloud sizes.
#include <cstdio>
#include <random>
#include <unordered_set>

#include "bench/bench_util.hpp"
#include "core/conv3d.hpp"
#include "core/gather_scatter.hpp"
#include "core/kernel_map.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "data/voxelize.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "hash/flat_hashmap.hpp"
#include "nn/layers.hpp"

using namespace ts;

namespace {

KernelMap layer_map(const SparseTensor& x) {
  ConvGeometry geom{3, 1, false};
  return build_kernel_map(x.coords(), x.coords(), geom,
                          {MapBackend::kGrid, false});
}

double movement_with_l2(const KernelMap& km, std::size_t n, double l2_mb,
                        bool locality) {
  DeviceSpec dev = rtx2080ti();
  dev.l2_bytes = l2_mb * 1024 * 1024;
  EngineConfig cfg = torchsparse_config();
  cfg.locality_aware = locality;
  ExecContext ctx(dev, cfg);
  std::vector<int> offsets;
  for (int o = 0; o < km.volume(); ++o)
    if (km.size(o) > 0 && o != 13) offsets.push_back(o);
  charge_gather_scatter(km, offsets, n, n, 64, 64, ctx);
  return ctx.timeline.data_movement_seconds();
}

}  // namespace

int main() {
  bench::header("Design-choice ablations",
                "extends paper §4.3.2, §4.4");

  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps = 450;
  const SparseTensor x = make_input(lidar, segmentation_voxels(), 777);
  const KernelMap km = layer_map(x);
  std::printf("layer: %zu points, %zu map entries\n", x.num_points(),
              km.total());

  // (a) L2 sweep.
  std::printf("\n(a) movement time vs modeled L2 capacity (C=64, FP16 "
              "vectorized):\n");
  std::printf("  %8s %22s %22s\n", "L2 (MB)", "weight-stationary (ms)",
              "locality-aware (ms)");
  for (double mb : {1.0, 2.75, 5.5, 12.0, 48.0}) {
    std::printf("  %8.2f %18.3f %22.3f\n", mb,
                movement_with_l2(km, x.num_points(), mb, false) * 1e3,
                movement_with_l2(km, x.num_points(), mb, true) * 1e3);
  }
  bench::note(
      "WS only benefits once L2 approaches the working set (far beyond "
      "real GPUs); locality-aware is flat — its reuse is in registers");

  // (b) Center-offset in-place computation.
  std::printf("\n(b) center (identity) offset handling:\n");
  for (bool skip : {false, true}) {
    EngineConfig cfg = torchsparse_config();
    cfg.skip_center_movement = skip;
    ExecContext ctx(rtx2080ti(), cfg);
    ctx.compute_numerics = false;
    std::mt19937_64 rng(1);
    Conv3dParams p;
    p.geom = ConvGeometry{3, 1, false};
    p.weights = spnn::make_conv_weights(3, 64, 64, rng);
    SparseTensor in(x.coords(), Matrix(x.num_points(), 64));
    sparse_conv3d(in, p, ctx);
    std::printf("  %-24s movement %7.3f ms, total %7.3f ms\n",
                skip ? "compute in place" : "gather like any offset",
                ctx.timeline.data_movement_seconds() * 1e3,
                ctx.timeline.total_seconds() * 1e3);
  }

  // (c) Map backend memory/speed trade-off. The grid spends one 8-byte
  // cell per point of the input's bounding box and exactly one access per
  // query (paper §4.4); the hashmap spends 16-byte slots at ~50% load and
  // its measured probes per query.
  std::printf("\n(c) coordinate index: memory for collision-freedom:\n");
  {
    FlatHashMap table(x.num_points());
    for (std::size_t i = 0; i < x.num_points(); ++i)
      table.insert(x.coords()[i], static_cast<int64_t>(i));
    std::size_t probes = 0;
    for (const Coord& c : x.coords()) {
      std::size_t p = 0;
      table.find(c, &p);
      probes += p;
    }
    Coord lo, hi;
    coord_bounds(x.coords(), lo, hi);
    const double cells = (hi.b - lo.b + 1.0) * (hi.x - lo.x + 1.0) *
                         (hi.y - lo.y + 1.0) * (hi.z - lo.z + 1.0);
    std::printf("  %-8s %8.1f MB, %5.2f accesses/query\n", "hashmap",
                static_cast<double>(table.capacity()) * 16.0 / 1e6,
                static_cast<double>(probes) /
                    static_cast<double>(x.num_points()));
    std::printf("  %-8s %8.1f MB, %5.2f accesses/query\n", "grid",
                cells * 8.0 / 1e6, 1.0);
  }

  // (d) Symmetric search scaling.
  std::printf("\n(d) symmetric map inference (queries issued):\n");
  for (int az : {150, 300, 600}) {
    LidarSpec l2 = semantic_kitti_spec();
    l2.azimuth_steps = az;
    const SparseTensor t = make_input(l2, segmentation_voxels(), 778);
    ConvGeometry geom{3, 1, false};
    const KernelMap plain = build_kernel_map(
        t.coords(), t.coords(), geom, {MapBackend::kGrid, false});
    const KernelMap sym = build_kernel_map(
        t.coords(), t.coords(), geom, {MapBackend::kGrid, true});
    std::printf("  N=%-7zu %9zu -> %9zu queries (%.2fx fewer)\n",
                t.num_points(), plain.stats.queries, sym.stats.queries,
                static_cast<double>(plain.stats.queries) /
                    static_cast<double>(sym.stats.queries));
  }
  return 0;
}
