// Serving throughput sweep (extends the paper's Fig. 14 absolute-FPS view
// to the batched serving runtime): batch size x worker count x engine
// preset on the MinkUNet segmentation workload.
//
// Per-request timelines are independent of how the batch is scheduled, so
// each engine measures its 16 scans once (Server::run_batch, a
// zero-arrival serving session) and the (batch, workers) grid is then
// swept with schedule_stream_dispatch over singleton batches at t = 0:
// every request takes the earliest-available worker lane in input order.
// Sanity anchor checked at the end: on the MinkUNet preset, 4 workers
// must deliver > 1.5x the throughput of 1 worker.
#include <algorithm>
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
#include "serve/tuned_param_store.hpp"

using namespace ts;

int main() {
  bench::header("Serving throughput: batch x workers x engine",
                "extends paper Fig. 14 (absolute FPS) to the batched "
                "concurrent serving runtime");
  bench::note(
      "throughput/latency come from the modeled deterministic schedule "
      "(earliest-available worker), so results are machine-independent");

  const uint64_t seed = 20260730;
  // Shrinks the synthetic scans; trends transfer. TS_BENCH_SCALE shrinks
  // further for the CI preset.
  const double scale = bench::env_scale(0.25);
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, scale,
                                      /*tune_sample_count=*/2);
  const DeviceSpec dev = rtx2080ti();

  // Batch of distinct scans (the workload's lidar spec, fresh seeds).
  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps = std::max(
      32, static_cast<int>(lidar.azimuth_steps * scale));
  const int max_batch = 16;
  std::vector<SparseTensor> scans;
  for (int i = 0; i < max_batch; ++i)
    scans.push_back(make_input(lidar, segmentation_voxels(),
                               seed + 100 + static_cast<uint64_t>(i)));

  const std::vector<int> batch_sizes = {1, 4, 8, 16};
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  serve::TunedParamStore store;
  // Every cell schedules on one device (no map cache); the group is
  // reset by each schedule pass.
  serve::DeviceGroup group(dev, 1, 0);
  const std::unique_ptr<serve::RoutingPolicy> routing =
      serve::make_routing_policy(serve::RoutePolicy::kRoundRobin);
  const bench::WallTimer total_wall;

  double mink_fps_w1 = 0, mink_fps_w4 = 0;
  for (const EngineConfig& cfg : paper_engines()) {
    // Measurement session: its threads come from the host's cores, and
    // the per-request timelines read below do not depend on its 8 lanes;
    // the grid sweeps the lane counts on the modeled schedule instead.
    serve::ServerConfig scfg;
    scfg.with_device(dev).with_engine(cfg).with_workers(8);
    if (cfg.grouping == GroupingStrategy::kAdaptive)
      scfg.run.tuned =
          store.get_or_tune(serve::tuned_key(w.name, dev, cfg), w.model,
                            w.tune_samples, dev, cfg);
    const serve::StreamReport measured =
        serve::Server(scfg).run_batch(w.model, scans);

    std::printf("\n=== %s on %s ===\n", cfg.name.c_str(), dev.name.c_str());
    std::printf("%-8s", "batch");
    for (int workers : worker_counts)
      std::printf("   w=%d fps (p99 ms)", workers);
    std::printf("\n");

    for (int batch : batch_sizes) {
      std::vector<serve::StreamResult> subset(
          measured.requests.begin(), measured.requests.begin() + batch);
      std::vector<serve::DispatchBatch> singletons(subset.size());
      for (std::size_t i = 0; i < singletons.size(); ++i)
        singletons[i].members = {i};
      std::printf("%-8d", batch);
      for (int workers : worker_counts) {
        const serve::StreamStats s = serve::schedule_stream_dispatch(
            subset, singletons, group, *routing, workers, 0.0);
        std::printf("   %8.1f (%5.1f)", s.throughput_fps,
                    s.e2e_p99_seconds * 1e3);
        if (cfg.name == "TorchSparse" && batch == 16) {
          if (workers == 1) mink_fps_w1 = s.throughput_fps;
          if (workers == 4) mink_fps_w4 = s.throughput_fps;
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\n--- sanity anchors ---\n");
  std::printf(
      "TorchSparse MinkUNet, batch 16: %.1f fps @1 worker -> %.1f fps "
      "@4 workers (%.2fx, required > 1.5x): %s\n",
      mink_fps_w1, mink_fps_w4, mink_fps_w4 / mink_fps_w1,
      mink_fps_w4 > 1.5 * mink_fps_w1 ? "OK" : "FAIL");
  bench::metric("fig14.torchsparse_b16_w1_fps", mink_fps_w1);
  bench::metric("fig14.torchsparse_b16_w4_fps", mink_fps_w4);
  bench::metric("fig14.worker_scaling_x", mink_fps_w4 / mink_fps_w1);
  bench::metric("wall_fig14.total_seconds", total_wall.seconds());
  std::printf("tuning runs shared via TunedParamStore: %zu (one per "
              "adaptive-grouping engine)\n",
              store.compute_count());
  return mink_fps_w4 > 1.5 * mink_fps_w1 ? 0 : 1;
}
