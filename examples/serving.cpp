// Serving demo: a batch of LiDAR scans served under one serve::Server
// deployment. Tuned grouping parameters are computed once per
// deployment key in a shared TunedParamStore and reused by every
// request; the ServerConfig carries every serving knob, and
// Server::run_batch serves the pre-collected batch as a zero-arrival
// session on the host's cores while keeping each request's result
// identical to a serial run. (For the streaming session API — priority
// classes, incremental handles, sharding — see examples/streaming.cpp.)
#include <algorithm>
#include <cstdio>
#include <vector>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "serve/server.hpp"
#include "serve/tuned_param_store.hpp"

using namespace ts;

int main() {
  // 1. The deployment: MinkUNet on a modeled RTX 2080Ti, TorchSparse
  //    engine, serving SemanticKITTI-like scans.
  const uint64_t seed = 4242;
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, /*scale=*/0.2,
                                      /*tune_sample_count=*/2);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();

  // 2. Offline tuning, shared across all future requests for this key.
  serve::TunedParamStore store;
  const std::string key = serve::tuned_key(w.name, dev, cfg);
  RunOptions run;
  run.tuned = store.get_or_tune(key, w.model, w.tune_samples, dev, cfg);
  std::printf("deployment key: %s\n", key.c_str());
  std::printf("tuned layers: %zu (computed %zu time(s))\n",
              run.tuned.size(), store.compute_count());

  // 3. A batch of incoming scans.
  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps = std::max(32, lidar.azimuth_steps / 5);
  std::vector<SparseTensor> batch;
  for (int i = 0; i < 12; ++i)
    batch.push_back(make_input(lidar, segmentation_voxels(),
                               seed + 10 + static_cast<uint64_t>(i)));
  std::printf("batch: %zu scans, %zu..%zu voxels\n", batch.size(),
              batch.front().num_points(), batch.back().num_points());

  // 4. One ServerConfig describes the deployment; run_batch serves the
  //    pre-collected scans on 4 modeled lanes and reports the modeled
  //    schedule.
  serve::ServerConfig scfg;
  scfg.with_device(dev).with_engine(cfg).with_workers(4).with_run(run);
  const serve::Server server(scfg);
  const serve::StreamReport report = server.run_batch(w.model, batch);
  const serve::StreamStats& s = report.stats;

  // Every request arrives at t = 0, so e2e latency is completion time.
  std::printf("\n%zu requests on %d workers (%s, %s)\n", s.completed,
              s.workers, dev.name.c_str(), cfg.name.c_str());
  std::printf("  makespan    %8.2f ms\n", s.makespan_seconds * 1e3);
  std::printf("  throughput  %8.1f scans/s\n", s.throughput_fps);
  std::printf("  latency     p50 %.2f ms / p90 %.2f ms / p99 %.2f ms\n",
              s.e2e_p50_seconds * 1e3, s.e2e_p90_seconds * 1e3,
              s.e2e_p99_seconds * 1e3);
  std::printf("  mean service %7.2f ms per scan\n",
              s.mean_service_seconds * 1e3);

  // Per-request view of the schedule (first few).
  std::printf("\nrequest  service(ms)  start(ms)  finish(ms)\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(6, s.completed); ++i) {
    const serve::StreamResult& r = report.requests[i];
    std::printf("%7zu  %11.2f  %9.2f  %10.2f\n", r.id,
                r.service_seconds * 1e3, r.start_seconds * 1e3,
                r.finish_seconds * 1e3);
  }
  return 0;
}
