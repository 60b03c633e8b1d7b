// Figure 19 (repo extension): heterogeneous device fleets — device mix
// x routing policy x arrival rate on a streaming MinkUNet serve over
// the discrete-event scheduler core.
//
// The paper evaluates on three GPU generations (1080Ti / 2080Ti /
// 3090); this sweep serves one stream on modeled fleets that mix those
// tiers in a single DeviceGroup. Requests are measured once on the
// reference device (fleet.front()); heterogeneity enters the schedule
// only through estimate_aware's per-tier service scaling, so the
// comparison against tier-blind least_loaded isolates exactly what
// knowing the fleet's specs is worth. Sanity anchors pin the contract:
//   F1  fleet {2080ti x N} is bit-identical to the legacy
//       with_device + with_devices deployment (N = 1 and 2)
//   F2  mixed fleets under estimate_aware strictly beat least_loaded's
//       modeled makespan at overload (both 2- and 3-tier mixes)
//   F3  modeled stats identical for 1 vs 4 workers per device, on
//       every fleet mix (routing never reads lane state)
//   F4  a 256-device fleet schedules a 2048-request stream under the
//       sanity wall bound (the discrete-event core is O(log lanes))
//   F5  estimate_aware on a homogeneous fleet is bit-identical to
//       least_loaded (every scale factor is exactly 1)
//   F6  mixes sharing the reference tier agree on aggregate modeled
//       compute under tier-blind routing (measurement is decoupled
//       from placement; only the reference spec and the cache outcome
//       shape the aggregate timeline)
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "serve/device_group.hpp"
#include "serve/serve_policies.hpp"
#include "serve/server.hpp"

using namespace ts;

namespace {

struct Cell {
  double mapping_ms = 0;
  double total_ms = 0;
  double hit_rate = 0;
  double fps = 0;
  double makespan_ms = 0;
  double wall_ms = 0;
  serve::StreamReport report;
};

Cell run_fleet(const Workload& w, const std::vector<SparseTensor>& stream,
               const std::vector<serve::FleetTier>& tiers,
               serve::RoutePolicy policy, int workers, std::size_t budget,
               double arrival_gap) {
  serve::ServerConfig cfg;
  cfg.with_engine(torchsparse_config())
      .with_workers(workers)
      .with_fleet(tiers)
      .with_route(policy)
      .with_batch_overhead(0.0005)
      .with_map_cache_bytes(budget)
      .with_queue_depth(stream.size() + 1);
  cfg.batcher.policy = serve::BatchPolicy::kImmediate;
  const bench::WallTimer wall;
  serve::Server server(cfg);
  server.start(w.model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], arrival_gap * static_cast<double>(i));
  Cell c;
  c.report = server.drain();
  c.mapping_ms =
      c.report.stats.aggregate.stage_seconds(Stage::kMapping) * 1e3;
  c.total_ms = c.report.stats.aggregate.total_seconds() * 1e3;
  c.hit_rate = c.report.stats.map_cache.hit_rate();
  c.fps = c.report.stats.throughput_fps;
  c.makespan_ms = c.report.stats.makespan_seconds * 1e3;
  c.wall_ms = wall.seconds() * 1e3;
  return c;
}

/// The deployment fig17 benchmarks: single spec + device count, no
/// fleet vector. F1 pins the fleet path bit-identical to this.
Cell run_legacy(const Workload& w, const std::vector<SparseTensor>& stream,
                int devices, serve::RoutePolicy policy, int workers,
                std::size_t budget, double arrival_gap) {
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(workers)
      .with_devices(devices)
      .with_route(policy)
      .with_batch_overhead(0.0005)
      .with_map_cache_bytes(budget)
      .with_queue_depth(stream.size() + 1);
  cfg.batcher.policy = serve::BatchPolicy::kImmediate;
  const bench::WallTimer wall;
  serve::Server server(cfg);
  server.start(w.model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], arrival_gap * static_cast<double>(i));
  Cell c;
  c.report = server.drain();
  c.mapping_ms =
      c.report.stats.aggregate.stage_seconds(Stage::kMapping) * 1e3;
  c.total_ms = c.report.stats.aggregate.total_seconds() * 1e3;
  c.hit_rate = c.report.stats.map_cache.hit_rate();
  c.fps = c.report.stats.throughput_fps;
  c.makespan_ms = c.report.stats.makespan_seconds * 1e3;
  c.wall_ms = wall.seconds() * 1e3;
  return c;
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

bool bit_equal_cell(const Cell& a, const Cell& b) {
  return close_rel(a.mapping_ms, b.mapping_ms, 1e-12) &&
         close_rel(a.total_ms, b.total_ms, 1e-12) &&
         a.hit_rate == b.hit_rate && close_rel(a.fps, b.fps, 1e-12) &&
         close_rel(a.makespan_ms, b.makespan_ms, 1e-12);
}

/// The worker-invariant slice: accounting stats (aggregate compute,
/// cache outcome, per-device routing/busy), not placement stats.
bool accounting_equal_cell(const Cell& a, const Cell& b) {
  if (!(close_rel(a.mapping_ms, b.mapping_ms, 1e-12) &&
        close_rel(a.total_ms, b.total_ms, 1e-12) &&
        a.hit_rate == b.hit_rate))
    return false;
  const auto& pa = a.report.stats.per_device;
  const auto& pb = b.report.stats.per_device;
  if (pa.size() != pb.size()) return false;
  for (std::size_t d = 0; d < pa.size(); ++d) {
    if (pa[d].batches != pb[d].batches || pa[d].name != pb[d].name ||
        !close_rel(pa[d].busy_seconds, pb[d].busy_seconds, 1e-12) ||
        pa[d].map_cache.hits != pb[d].map_cache.hits)
      return false;
  }
  return true;
}

/// F4: synthetic singleton-batch stream over a 256-device mixed fleet,
/// scheduled directly through the discrete-event core (no measurement
/// pool — this times pure placement at fleet scale).
double schedule_256(int* devices_out) {
  const std::vector<DeviceSpec> fleet = serve::expand_fleet(
      {{gtx1080ti(), 86}, {rtx2080ti(), 85}, {rtx3090(), 85}});
  *devices_out = static_cast<int>(fleet.size());
  const std::size_t n = 2048;
  std::vector<serve::StreamResult> requests(n);
  std::vector<serve::DispatchBatch> plan;
  for (std::size_t i = 0; i < n; ++i) {
    serve::StreamResult& r = requests[i];
    r.id = i;
    r.arrival_seconds = 1e-4 * static_cast<double>(i);
    r.timeline.add(Stage::kMatMul, 1e-3 * static_cast<double>(i % 7 + 1));
    r.timeline.add(Stage::kMapping, 5e-4 * static_cast<double>(i % 3 + 1));
    r.service_seconds = r.timeline.total_seconds();
    plan.push_back({{i}, r.arrival_seconds});
  }
  serve::DeviceGroup group(fleet, 0);
  const std::unique_ptr<serve::RoutingPolicy> routing =
      serve::make_routing_policy(serve::RoutePolicy::kEstimateAware);
  const bench::WallTimer wall;
  serve::schedule_stream_dispatch(requests, plan, group, *routing,
                                  /*workers_per_device=*/2, 0.0005);
  return wall.seconds() * 1e3;
}

}  // namespace

int main() {
  bench::header(
      "Figure 19: heterogeneous device fleets",
      "repo extension — fleet mix x routing policy x arrival rate on "
      "streaming MinkUNet serve over the discrete-event scheduler");
  bench::note(
      "mapping/total/hit-rate/fps/makespan are modeled and deterministic "
      "(requests measured on the reference tier, placed with per-tier "
      "estimates); wall ms is host time");

  const uint64_t seed = 20260808;
  const double scale = bench::env_scale(0.35);
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, scale,
                                      /*tune_sample_count=*/1);

  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps =
      std::max(32, static_cast<int>(lidar.azimuth_steps * scale));
  const int requests = 16;
  // 50%-duplicate stream, duplicates adjacent — warm enough that
  // cache_affinity has a signal, varied enough that routing matters.
  std::vector<SparseTensor> unique_scans;
  for (int i = 0; i < requests / 2; ++i)
    unique_scans.push_back(make_input(lidar, segmentation_voxels(),
                                      seed + 7 + static_cast<uint64_t>(i)));
  std::vector<SparseTensor> stream;
  for (int i = 0; i < requests; ++i)
    stream.push_back(unique_scans[static_cast<std::size_t>(i / 2)]);
  std::printf("stream: %d requests (50%% duplicates), ~%zu voxels each\n",
              requests, stream[0].num_points());

  const std::size_t kBudget = std::size_t(256) << 20;  // per device
  struct Mix {
    const char* name;
    std::vector<serve::FleetTier> tiers;
  };
  const Mix mixes[] = {
      {"2080ti x2", {{rtx2080ti(), 2}}},
      {"1080ti+3090", {{gtx1080ti(), 1}, {rtx3090(), 1}}},
      {"1080ti+2080ti+3090",
       {{gtx1080ti(), 1}, {rtx2080ti(), 1}, {rtx3090(), 1}}},
  };
  const serve::RoutePolicy policies[] = {serve::RoutePolicy::kLeastLoaded,
                                         serve::RoutePolicy::kCacheAffinity,
                                         serve::RoutePolicy::kEstimateAware};
  // 0.5 ms gaps overload every mix (multi-ms services); 4 ms gaps are
  // the near-keep-up regime where routing has slack to hide in.
  const double gaps[] = {0.0005, 0.004};

  std::printf("\n%-19s %-15s %6s %9s %9s %8s %9s %8s\n", "fleet", "policy",
              "gap ms", "total ms", "hit rate", "fps", "mkspn ms",
              "wall ms");
  Cell cells[3][3][2];  // [mix][policy][gap]
  for (std::size_t mi = 0; mi < 3; ++mi) {
    for (std::size_t pi = 0; pi < 3; ++pi) {
      for (std::size_t gi = 0; gi < 2; ++gi) {
        const Cell c = run_fleet(w, stream, mixes[mi].tiers, policies[pi],
                                 /*workers=*/2, kBudget, gaps[gi]);
        cells[mi][pi][gi] = c;
        std::printf("%-19s %-15s %6.1f %9.3f %9.2f %8.1f %9.2f %8.1f\n",
                    mixes[mi].name, to_string(policies[pi]), gaps[gi] * 1e3,
                    c.total_ms, c.hit_rate, c.fps, c.makespan_ms, c.wall_ms);
      }
    }
  }

  const std::size_t LL = 0, AFF = 1, EST = 2;  // policy indexes
  // Per-tier placement of the showcase cell: 3-tier fleet,
  // estimate_aware, overload.
  std::printf("\nper-tier placement (1080ti+2080ti+3090, estimate_aware, "
              "0.5 ms gaps):\n");
  std::printf("%-4s %-22s %8s %9s %9s %5s\n", "dev", "tier", "batches",
              "busy ms", "hit rate", "util");
  for (const serve::DeviceShardStats& d :
       cells[2][EST][0].report.stats.per_device)
    std::printf("%-4d %-22s %8zu %9.2f %9.2f %5.2f\n", d.device,
                d.name.c_str(), d.batches, d.busy_seconds * 1e3,
                d.map_cache.hit_rate(), d.utilization);

  // F1 cells: legacy single-spec deployments vs single-tier fleets.
  const Cell legacy1 = run_legacy(w, stream, 1, policies[LL], 2, kBudget,
                                  gaps[0]);
  const Cell fleet1 = run_fleet(w, stream, {{rtx2080ti(), 1}}, policies[LL],
                                2, kBudget, gaps[0]);
  const Cell legacy2 = run_legacy(w, stream, 2, policies[LL], 2, kBudget,
                                  gaps[0]);

  // F3 cells: worker invariance per mix (estimate_aware, overload).
  Cell w1[3], w4[3];
  for (std::size_t mi = 0; mi < 3; ++mi) {
    w1[mi] = run_fleet(w, stream, mixes[mi].tiers, policies[EST], 1, kBudget,
                       gaps[0]);
    w4[mi] = run_fleet(w, stream, mixes[mi].tiers, policies[EST], 4, kBudget,
                       gaps[0]);
  }

  // F4 cell: 256-device placement pass.
  int big_devices = 0;
  const double big_wall_ms = schedule_256(&big_devices);
  const double kBigWallBoundMs = 2000.0;
  std::printf("\n256-device pass: %d devices, 2048 requests scheduled in "
              "%.2f ms (bound %.0f ms)\n",
              big_devices, big_wall_ms, kBigWallBoundMs);

  bench::metric("fig19.n1_total_ms", fleet1.total_ms);
  bench::metric("fig19.homog_ll_makespan_ms", cells[0][LL][0].makespan_ms);
  bench::metric("fig19.mixed2_ll_makespan_ms", cells[1][LL][0].makespan_ms);
  bench::metric("fig19.mixed2_est_makespan_ms",
                cells[1][EST][0].makespan_ms);
  bench::metric("fig19.mixed3_est_makespan_ms",
                cells[2][EST][0].makespan_ms);
  bench::metric("fig19.mixed3_est_speedup_x",
                cells[2][LL][0].makespan_ms / cells[2][EST][0].makespan_ms);
  bench::metric("fig19.mixed2_est_hit_rate", cells[1][EST][0].hit_rate);
  bench::metric("wall_fig19.mixed3_est_ms", cells[2][EST][0].wall_ms);
  bench::metric("wall_fig19.n256_schedule_ms", big_wall_ms);

  std::printf("\n--- sanity anchors ---\n");
  bool ok = true;
  auto anchor = [&](const char* name, bool pass) {
    std::printf("%-66s %s\n", name, pass ? "OK" : "FAIL");
    ok = ok && pass;
  };
  anchor("F1: single-tier fleet bit-equal to legacy deployment (N=1, 2)",
         bit_equal_cell(fleet1, legacy1) &&
             bit_equal_cell(cells[0][LL][0], legacy2));
  anchor("F2: mixed fleets: estimate_aware < least_loaded makespan",
         cells[1][EST][0].makespan_ms < cells[1][LL][0].makespan_ms &&
             cells[2][EST][0].makespan_ms < cells[2][LL][0].makespan_ms);
  bool f3 = true;
  for (std::size_t mi = 0; mi < 3; ++mi)
    f3 = f3 && accounting_equal_cell(w1[mi], w4[mi]);
  anchor("F3: modeled stats worker-invariant (w1 == w4, every mix)", f3);
  anchor("F4: 256-device schedule under sanity wall bound",
         big_wall_ms < kBigWallBoundMs);
  anchor("F5: homogeneous fleet: estimate_aware bit-equal least_loaded",
         bit_equal_cell(cells[0][EST][0], cells[0][LL][0]) &&
             bit_equal_cell(cells[0][EST][1], cells[0][LL][1]));
  // Mixes 1 and 2 both measure on the 1080Ti reference; under
  // tier-blind least_loaded their cache outcomes also match, so the
  // aggregate timeline must be identical even though the fleets differ.
  bool f6 = true;
  for (std::size_t gi = 0; gi < 2; ++gi)
    f6 = f6 &&
         close_rel(cells[1][LL][gi].total_ms, cells[2][LL][gi].total_ms,
                   1e-12) &&
         close_rel(cells[1][LL][gi].mapping_ms, cells[2][LL][gi].mapping_ms,
                   1e-12) &&
         cells[1][LL][gi].hit_rate == cells[2][LL][gi].hit_rate;
  anchor("F6: same-reference mixes agree on aggregate modeled compute", f6);
  return ok ? 0 : 1;
}
