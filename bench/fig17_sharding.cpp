// Figure 17 (repo extension): multi-device sharded serving sweep —
// device count x routing policy x duplicate fraction on a streaming
// MinkUNet serve with per-device modeled kernel-map caches.
//
// Sharding is where serving outgrows the paper's single-device engine;
// Tangram-style affinity placement (PAPERS.md) says the win is routing
// work to the device that already holds the warm state. Here the warm
// state is the per-device KernelMapCache, its content digests make the
// affinity signal exact, and the modeled clock makes every number
// deterministic. Sanity anchors pin the contract:
//   A1  1 device => every routing policy is bit-identical to the
//       unsharded serve path (modeled mapping/total/hit-rate/fps)
//   A2  cache_affinity beats round_robin's warm hit-rate strictly on a
//       >= 50%-duplicate stream at 2 and 4 devices
//   A3  modeled stats identical for 1 vs 4 workers per device, at every
//       device count (routing never reads lane state)
//   A4  cache off => aggregate modeled compute invariant to device count
//       (sharding is pure scheduling)
//   A5  2 devices (least_loaded, cache off) do not throughput-regress a
//       single device on the same stream
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "serve/device_group.hpp"
#include "serve/server.hpp"

using namespace ts;

namespace {

struct Cell {
  double mapping_ms = 0;
  double total_ms = 0;
  double hit_rate = 0;
  double fps = 0;
  double makespan_ms = 0;
  double util_min = 0, util_max = 0;
  double wall_ms = 0;
};

Cell run_cell(const Workload& w, const std::vector<SparseTensor>& stream,
              int devices, serve::RoutePolicy policy, int workers,
              std::size_t budget) {
  RunOptions run;
  run.borrow_input = true;  // the session queue owns the stream copies
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(workers)
      .with_run(run)
      .with_map_cache_bytes(budget)
      .with_queue_depth(stream.size() + 1)
      .with_batch_overhead(0.0005)
      .with_devices(devices)
      .with_route(policy);
  cfg.batcher.policy = serve::BatchPolicy::kImmediate;
  serve::Server server(cfg);
  const bench::WallTimer wall;
  server.start(w.model);
  // Arrivals outrun one device's capacity (0.5 ms gap vs multi-ms
  // service), so the sweep measures sharding under overload — the regime
  // where device count is the capacity knob.
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], 0.0005 * static_cast<double>(i));
  const serve::StreamReport rep = server.drain();
  Cell c;
  c.mapping_ms = rep.stats.aggregate.stage_seconds(Stage::kMapping) * 1e3;
  c.total_ms = rep.stats.aggregate.total_seconds() * 1e3;
  c.hit_rate = rep.stats.map_cache.hit_rate();
  c.fps = rep.stats.throughput_fps;
  c.makespan_ms = rep.stats.makespan_seconds * 1e3;
  c.util_min = 1.0;
  c.util_max = 0.0;
  for (const serve::DeviceShardStats& d : rep.stats.per_device) {
    c.util_min = std::min(c.util_min, d.utilization);
    c.util_max = std::max(c.util_max, d.utilization);
  }
  c.wall_ms = wall.seconds() * 1e3;
  return c;
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

bool bit_equal_cell(const Cell& a, const Cell& b) {
  return close_rel(a.mapping_ms, b.mapping_ms, 1e-12) &&
         close_rel(a.total_ms, b.total_ms, 1e-12) &&
         a.hit_rate == b.hit_rate && close_rel(a.fps, b.fps, 1e-12);
}

/// The worker-invariant slice of a cell: accounting stats (aggregate
/// compute, cache outcome) — not placement stats (fps/makespan), which
/// legitimately improve with more lanes.
bool accounting_equal_cell(const Cell& a, const Cell& b) {
  return close_rel(a.mapping_ms, b.mapping_ms, 1e-12) &&
         close_rel(a.total_ms, b.total_ms, 1e-12) && a.hit_rate == b.hit_rate;
}

}  // namespace

int main() {
  bench::header(
      "Figure 17: multi-device sharded serving",
      "repo extension — devices x routing policy x duplicate fraction on "
      "streaming MinkUNet serve with per-device kernel-map caches");
  bench::note(
      "mapping/total/hit-rate/fps/makespan/util are modeled and "
      "deterministic (submission-order per-device accounting); wall ms "
      "is host time");

  const uint64_t seed = 20260730;
  const double scale = bench::env_scale(0.35);
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, scale,
                                      /*tune_sample_count=*/1);

  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps =
      std::max(32, static_cast<int>(lidar.azimuth_steps * scale));
  const int requests = 16;
  std::vector<SparseTensor> unique_scans;
  for (int i = 0; i < requests; ++i)
    unique_scans.push_back(make_input(lidar, segmentation_voxels(),
                                      seed + 7 + static_cast<uint64_t>(i)));
  std::printf("stream: %d requests, ~%zu voxels each\n", requests,
              unique_scans[0].num_points());

  // dup-fraction d => ceil((1-d)*R) distinct scans, duplicates adjacent
  // (u0 u0 u1 u1 ...) — the layout where blind round-robin splits every
  // duplicate pair across devices and affinity routing matters most.
  auto make_stream = [&](double dup) {
    const int n_unique = std::max(
        1, static_cast<int>(std::lround((1.0 - dup) * requests)));
    std::vector<SparseTensor> stream;
    for (int i = 0; i < requests; ++i) {
      const int u = std::min(i * n_unique / requests, n_unique - 1);
      stream.push_back(unique_scans[static_cast<std::size_t>(u)]);
    }
    return stream;
  };

  const std::size_t kBudget = std::size_t(256) << 20;  // per device
  const double dups[] = {0.0, 0.5, 1.0};
  const int device_counts[] = {1, 2, 4};
  const serve::RoutePolicy policies[] = {serve::RoutePolicy::kRoundRobin,
                                         serve::RoutePolicy::kLeastLoaded,
                                         serve::RoutePolicy::kCacheAffinity};

  std::printf("\n%-5s %-4s %-15s %9s %9s %9s %8s %9s %11s %8s\n", "dup",
              "dev", "policy", "map ms", "total ms", "hit rate", "fps",
              "mkspn ms", "util rng", "wall ms");
  Cell cells[3][3][3];  // [dup][devices][policy]
  for (std::size_t di = 0; di < 3; ++di) {
    const auto stream = make_stream(dups[di]);
    for (std::size_t ni = 0; ni < 3; ++ni) {
      for (std::size_t pi = 0; pi < 3; ++pi) {
        const Cell c = run_cell(w, stream, device_counts[ni], policies[pi],
                                /*workers=*/2, kBudget);
        cells[di][ni][pi] = c;
        std::printf(
            "%-5.2f %-4d %-15s %9.3f %9.3f %9.2f %8.1f %9.2f %5.2f-%-5.2f "
            "%8.1f\n",
            dups[di], device_counts[ni], to_string(policies[pi]),
            c.mapping_ms, c.total_ms, c.hit_rate, c.fps, c.makespan_ms,
            c.util_min, c.util_max, c.wall_ms);
      }
    }
  }

  // Worker-invariance cells (dup 0.5, cache_affinity, w1 vs w4).
  Cell w1[3], w4[3];
  {
    const auto stream = make_stream(0.5);
    for (std::size_t ni = 0; ni < 3; ++ni) {
      w1[ni] = run_cell(w, stream, device_counts[ni],
                        serve::RoutePolicy::kCacheAffinity, 1, kBudget);
      w4[ni] = run_cell(w, stream, device_counts[ni],
                        serve::RoutePolicy::kCacheAffinity, 4, kBudget);
    }
  }

  // Cache-off cells (dup 0, least_loaded) across device counts.
  Cell off[3];
  {
    const auto stream = make_stream(0.0);
    for (std::size_t ni = 0; ni < 3; ++ni)
      off[ni] = run_cell(w, stream, device_counts[ni],
                         serve::RoutePolicy::kLeastLoaded, 2, 0);
  }

  const std::size_t RR = 0, LL = 1, AFF = 2;  // policy indexes
  bench::metric("fig17.n1_total_ms", cells[1][0][AFF].total_ms);
  bench::metric("fig17.dup50_n2_hit_rate_rr", cells[1][1][RR].hit_rate);
  bench::metric("fig17.dup50_n2_hit_rate_aff", cells[1][1][AFF].hit_rate);
  bench::metric("fig17.dup50_n2_mapping_ms_aff",
                cells[1][1][AFF].mapping_ms);
  bench::metric("fig17.dup100_n4_hit_rate_aff", cells[2][2][AFF].hit_rate);
  bench::metric("fig17.n2_ll_speedup_x",
                off[0].makespan_ms / off[1].makespan_ms);
  bench::metric("fig17.n4_ll_speedup_x",
                off[0].makespan_ms / off[2].makespan_ms);
  bench::metric("wall_fig17.dup50_n2_aff_ms", cells[1][1][AFF].wall_ms);

  std::printf("\n--- sanity anchors ---\n");
  bool ok = true;
  auto anchor = [&](const char* name, bool pass) {
    std::printf("%-66s %s\n", name, pass ? "OK" : "FAIL");
    ok = ok && pass;
  };
  bool a1 = true;
  for (std::size_t di = 0; di < 3; ++di)
    for (std::size_t pi = 1; pi < 3; ++pi)
      a1 = a1 && bit_equal_cell(cells[di][0][pi], cells[di][0][0]);
  anchor("A1: 1 device — every policy bit-equal to unsharded serve", a1);
  anchor("A2: affinity > round_robin warm hit-rate (dup>=50%, N=2 and 4)",
         cells[1][1][AFF].hit_rate > cells[1][1][RR].hit_rate &&
             cells[1][2][AFF].hit_rate > cells[1][2][RR].hit_rate &&
             cells[2][1][AFF].hit_rate > cells[2][1][RR].hit_rate);
  bool a3 = true;
  for (std::size_t ni = 0; ni < 3; ++ni)
    a3 = a3 && accounting_equal_cell(w1[ni], w4[ni]);
  anchor("A3: modeled stats worker-invariant (w1 == w4, every N)", a3);
  anchor("A4: cache off — aggregate compute invariant to device count",
         close_rel(off[0].total_ms, off[1].total_ms, 1e-12) &&
             close_rel(off[0].total_ms, off[2].total_ms, 1e-12));
  anchor("A5: 2 devices don't throughput-regress 1 (least_loaded, off)",
         off[1].makespan_ms <= off[0].makespan_ms * (1.0 + 1e-9));
  return ok ? 0 : 1;
}
