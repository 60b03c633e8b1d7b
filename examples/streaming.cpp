// Streaming serving demo on the serve::Server session API: priority
// classes with strict-priority-plus-aging batching, bounded-depth
// admission control with priority preemption, incremental StreamHandle
// fulfillment, and multi-device sharding with cache-affinity routing.
//
// Requests carry priority classes — the default batching policy serves
// the high class first, aging keeps the low class from starving, and
// the report breaks latency percentiles out per class. Handles resolve
// *incrementally*: a request's result is readable the moment its batch
// is placed on the modeled schedule, while the session is still open.
// A second pass serves the stream on a heterogeneous 1080Ti+3090 fleet
// with estimate-aware routing: requests are measured once on the
// reference tier and placed with per-tier service estimates, so the
// tensor-core 3090 absorbs the GEMM-heavy work while the 1080Ti takes
// the overflow — the per-tier table shows the split. A final pass
// co-hosts two models (MinkUNet + CenterPoint) on one fleet under a
// diurnal arrival trace and breaks the stats out per model. All modeled
// numbers print the same on every machine.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "serve/tuned_param_store.hpp"

using namespace ts;

int main() {
  // 1. The deployment: MinkUNet on a modeled RTX 2080Ti, TorchSparse
  //    engine, with Alg. 5 grouping parameters tuned once per key. One
  //    ServerConfig now carries every serving knob.
  const uint64_t seed = 5353;
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, /*scale=*/0.2,
                                      /*tune_sample_count=*/2);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();

  serve::TunedParamStore store;
  RunOptions run;
  run.tuned = store.get_or_tune(serve::tuned_key(w.name, dev, cfg), w.model,
                                w.tune_samples, dev, cfg);

  serve::BatcherOptions batcher;
  batcher.policy = serve::BatchPolicy::kSloAware;
  batcher.max_batch = 4;
  batcher.slo_budget_seconds = 0.008;  // 8 ms queue-wait budget
  serve::PriorityOptions aging;
  aging.aging_seconds = 0.016;  // promote a waiting class every 16 ms

  serve::ServerConfig scfg;
  scfg.with_device(dev)
      .with_engine(cfg)
      .with_workers(4)
      .with_run(run)
      .with_queue_depth(32)
      .with_batcher(batcher)
      .with_priority(aging)
      .with_batch_overhead(0.001);  // amortizable dispatch setup
  serve::Server server(scfg);
  std::printf("deployment: %s on %s / %s (%zu tuned layers)\n",
              w.name.c_str(), dev.name.c_str(), cfg.name.c_str(),
              run.tuned.size());

  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps = std::max(32, lidar.azimuth_steps / 5);

  // 2. The admission boundary, demonstrated standalone (no consumer, so
  //    the outcome is deterministic): a depth-3 queue with priority
  //    preemption sheds a 4th low-class scan with a typed error, and a
  //    late high-class scan preempts the newest low instead of being
  //    rejected itself. ServerConfig::with_queue_depth /
  //    with_priority_preemption configure exactly this machinery inside
  //    a Server.
  {
    serve::QueueOptions qopt;
    qopt.max_depth = 3;
    qopt.priority_preemption = true;
    serve::RequestQueue gate(qopt);
    std::vector<serve::StreamHandle> low_handles;
    const SparseTensor probe =
        make_input(lidar, segmentation_voxels(), seed + 99);
    for (int i = 0; i < 4; ++i) {
      try {
        low_handles.push_back(
            gate.submit(probe, 0.001 * i, serve::Priority::kLow));
        std::printf("  low scan %d admitted (depth %zu/3)\n", i,
                    gate.depth());
      } catch (const serve::AdmissionError& e) {
        std::printf("  low scan %d REJECTED: %s\n", i, e.what());
      }
    }
    gate.submit(probe, 0.004, serve::Priority::kHigh);
    std::printf("  high scan admitted by preempting the newest low "
                "(depth %zu/3, %zu shed)\n",
                gate.depth(), gate.rejected());
  }

  // 3. A live session: 12 scans, every 3rd a high-priority request
  //    (say, the vehicle's forward-facing sweep), the rest best-effort
  //    backfill.
  server.start(w.model);
  std::vector<serve::StreamHandle> handles;
  const double gap = 0.004;  // modeled 4 ms between arrivals
  for (int i = 0; i < 12; ++i) {
    const SparseTensor scan = make_input(
        lidar, segmentation_voxels(), seed + 10 + static_cast<uint64_t>(i));
    handles.push_back(server.submit(
        scan, gap * i,
        i % 3 == 0 ? serve::Priority::kHigh : serve::Priority::kLow));
  }

  // 4. Incremental fulfillment: with all twelve arrivals fed, the
  //    high-priority head request is certainly in an already-dispatched
  //    batch, which is placed as soon as its members are measured — so
  //    its handle resolves while the session is still open, no drain
  //    needed. (Blocking on a handle the batcher might still be
  //    holding must wait for drain(); see StreamHandle.)
  const serve::StreamResult& first = handles.front().get();
  std::printf("\nincremental: scan %zu resolved mid-session "
              "(e2e %.2f ms, batch %zu) while the server is %s\n",
              first.id, first.e2e_seconds * 1e3, first.batch_id,
              server.running() ? "still running" : "stopped");

  // 5. Drain the session and read the report: per-class percentiles
  //    show the priority classes separating under load.
  const serve::StreamReport report = server.drain();
  const serve::StreamStats& s = report.stats;

  std::printf("\nserved %zu requests (%zu rejected) in %zu batches on %d "
              "workers\n",
              s.completed, s.rejected, s.batches, s.workers);
  std::printf("  policy        %s, max_batch %d, SLO budget %.1f ms, "
              "aging %.1f ms, overhead %.1f ms\n",
              to_string(batcher.policy), batcher.max_batch,
              batcher.slo_budget_seconds * 1e3, aging.aging_seconds * 1e3,
              scfg.batch_overhead_seconds * 1e3);
  std::printf("  throughput    %8.1f scans/s (makespan %.2f ms)\n",
              s.throughput_fps, s.makespan_seconds * 1e3);
  std::printf("  queue wait    p50 %.2f / p90 %.2f / p99 %.2f ms\n",
              s.queue_wait_p50_seconds * 1e3,
              s.queue_wait_p90_seconds * 1e3,
              s.queue_wait_p99_seconds * 1e3);
  std::printf("  e2e latency   p50 %.2f / p90 %.2f / p99 %.2f ms\n",
              s.e2e_p50_seconds * 1e3, s.e2e_p90_seconds * 1e3,
              s.e2e_p99_seconds * 1e3);
  std::printf("\nclass   served  wait p99(ms)  e2e p99(ms)\n");
  for (const serve::PriorityClassStats& pc : s.per_class) {
    if (pc.completed == 0) continue;
    std::printf("%-6s  %6zu  %12.2f  %11.2f\n", to_string(pc.priority),
                pc.completed, pc.queue_wait_p99_seconds * 1e3,
                pc.e2e_p99_seconds * 1e3);
  }

  std::printf("\nbatch  size  dispatch(ms)  start(ms)  finish(ms)  lane\n");
  for (const serve::StreamBatchRecord& b : report.batches)
    std::printf("%5zu  %4zu  %12.2f  %9.2f  %10.2f  %4d\n", b.batch_id,
                b.size, b.dispatch_seconds * 1e3, b.start_seconds * 1e3,
                b.finish_seconds * 1e3, b.lane);

  std::printf("\nreq  class   arrive(ms)  wait(ms)  e2e(ms)  batch\n");
  for (const serve::StreamHandle& h : handles) {
    const serve::StreamResult& r = h.get();
    std::printf("%3zu  %-6s  %10.2f  %8.2f  %7.2f  %5zu\n", r.id,
                to_string(r.priority), r.arrival_seconds * 1e3,
                r.queue_wait_seconds * 1e3, r.e2e_seconds * 1e3,
                r.batch_id);
  }

  // 6. Scale out onto a heterogeneous fleet: one modeled GTX 1080Ti
  //    (listed first — the measurement reference) plus one RTX 3090,
  //    in a single device group. The duplicate-heavy stream repeats
  //    every scan twice back-to-back (consecutive LiDAR frames);
  //    estimate-aware routing scales each batch's measured service to
  //    every tier (GEMM seconds by peak-GEMM ratio, the rest by DRAM
  //    bandwidth) and places it at the earliest estimated completion,
  //    so the tensor-core 3090 soaks up the GEMM-heavy work while the
  //    1080Ti absorbs the overflow.
  serve::ServerConfig fleet_cfg = scfg;
  serve::BatcherOptions immediate;
  immediate.policy = serve::BatchPolicy::kImmediate;
  fleet_cfg.with_workers(2)
      .with_queue_depth(32)
      .with_batcher(immediate)
      .with_batch_overhead(0.0005)
      .with_fleet({{device_spec_by_name("1080ti"), 1},
                   {device_spec_by_name("3090"), 1}})
      .with_route(serve::RoutePolicy::kEstimateAware)
      .with_map_cache_bytes(std::size_t(64) << 20);  // per device
  serve::Server fleet_server(fleet_cfg);
  fleet_server.start(w.model);
  int submitted = 0;
  for (int i = 0; i < 8; ++i) {
    const SparseTensor scan = make_input(
        lidar, segmentation_voxels(), seed + 50 + static_cast<uint64_t>(i));
    for (int rep = 0; rep < 2; ++rep)
      fleet_server.submit(scan, 0.0005 * (submitted++));
  }
  const serve::StreamReport fleet = fleet_server.drain();

  std::printf("\nfleet serve: %zu requests on %d devices x %d workers, "
              "%s routing (reference tier: %s)\n",
              fleet.stats.completed, fleet.stats.devices,
              fleet.stats.workers, to_string(fleet_cfg.shard.route),
              fleet_cfg.fleet.front().name.c_str());
  std::printf("  throughput    %8.1f scans/s (makespan %.2f ms)\n",
              fleet.stats.throughput_fps,
              fleet.stats.makespan_seconds * 1e3);
  std::printf("  map cache     %.0f%% warm hits, %.2f ms modeled mapping "
              "saved\n",
              fleet.stats.map_cache.hit_rate() * 100.0,
              fleet.stats.map_cache.modeled_seconds_saved * 1e3);
  std::printf("\ndev  tier        batches  requests  busy(ms)  util   "
              "warm hits\n");
  for (const serve::DeviceShardStats& d : fleet.stats.per_device)
    std::printf("%3d  %-10s  %7zu  %8zu  %8.2f  %4.2f  %5zu/%zu\n",
                d.device, d.name.c_str(), d.batches, d.requests,
                d.busy_seconds * 1e3, d.utilization, d.map_cache.hits,
                d.map_cache.lookups);

  // 7. Fault tolerance: replay the mixed-priority stream on a two-shard
  //    group and crash shard 0 the moment batch #4 dispatches — taking
  //    whatever it had in flight down with it. The deterministic
  //    FaultPlan makes the outage part of the modeled schedule: lost
  //    batches are redispatched through health-aware routing (with
  //    modeled backoff), a replacement shard arrives 3 ms later, and
  //    the low class runs under a 5 ms degrade deadline so hopeless
  //    requests shed with a typed error instead of clogging the
  //    survivor. Everything below replays bit-identically.
  serve::DeviceFault crash{0, serve::FaultKind::kCrash};
  crash.at_dispatch = 4;            // trigger: batch #4's dispatch stamp
  crash.duration_seconds = 0.003;   // replacement shard arrives 3 ms in
  serve::FaultToleranceOptions tolerance;
  tolerance.degrade_deadline_seconds[static_cast<int>(
      serve::Priority::kLow)] = 0.005;

  serve::ServerConfig fault_cfg = scfg;
  fault_cfg.with_workers(2)
      .with_devices(2)
      .with_route(serve::RoutePolicy::kLeastLoaded)
      .with_batcher(immediate)
      .with_fault_plan(serve::FaultPlan{{crash}})
      .with_fault_tolerance(tolerance);
  serve::Server fault_server(fault_cfg);
  fault_server.start(w.model);
  std::vector<serve::StreamHandle> fault_handles;
  for (int i = 0; i < 12; ++i) {
    const SparseTensor scan = make_input(
        lidar, segmentation_voxels(), seed + 80 + static_cast<uint64_t>(i));
    fault_handles.push_back(fault_server.submit(
        scan, 0.0004 * i,
        i % 3 == 0 ? serve::Priority::kHigh : serve::Priority::kLow));
  }
  const serve::StreamReport fr = fault_server.drain();

  std::printf("\nfault drill: crash shard 0 at batch #%lld, replacement "
              "after %.1f ms\n",
              crash.at_dispatch, crash.duration_seconds * 1e3);
  std::printf("  served %zu / failed %zu of %zu admitted; %zu fault "
              "activation(s)\n",
              fr.stats.completed, fr.stats.failed,
              fr.stats.completed + fr.stats.failed,
              fr.stats.faults_injected);
  std::printf("  recovery: %zu extra attempt(s), %zu batch(es) "
              "redispatched, retry-wait p99 %.2f ms\n",
              fr.stats.retries, fr.stats.redispatched_batches,
              fr.stats.retry_wait_p99_seconds * 1e3);
  std::printf("\nclass   served  failed  retries  e2e p99(ms)\n");
  for (const serve::PriorityClassStats& pc : fr.stats.per_class) {
    if (pc.completed == 0 && pc.failed == 0) continue;
    std::printf("%-6s  %6zu  %6zu  %7zu  %11.2f\n", to_string(pc.priority),
                pc.completed, pc.failed, pc.retries,
                pc.e2e_p99_seconds * 1e3);
  }
  // Failed handles still resolve — with a typed result, not a broken
  // promise. value() turns that into a catchable ServeError.
  for (const serve::StreamHandle& h : fault_handles) {
    const serve::StreamResult& r = h.get();
    if (r.ok()) continue;
    try {
      h.value();
    } catch (const serve::ServeError& e) {
      std::printf("  request %zu failed typed: %s\n", r.id,
                  to_string(e.code()));
    }
  }

  // 8. Multi-model hosting under trace-driven traffic: a MinkUNet
  //    segmenter and a CenterPoint detector co-hosted on one two-device
  //    fleet. ServerConfig::with_model registers each network with its
  //    own SLO budget, default priority class, and DRR fairness weight;
  //    submit_to targets an entry by registry index. Arrivals come from
  //    the seeded diurnal-ramp generator in serve/traffic.hpp — a
  //    nonhomogeneous Poisson process on the modeled clock, so the whole
  //    day-night cycle (and every per-model percentile below) replays
  //    bit-identically. Kernel-map digests are salted per model, so the
  //    detector can never poach the segmenter's warm maps.
  Workload cp = make_centerpoint_workload("Waymo-CenterPoint (1f)", "Waymo",
                                          1, seed + 7, /*scale=*/0.2,
                                          /*tune_sample_count=*/1);
  serve::TrafficSpec diurnal;
  diurnal.process = serve::ArrivalProcess::kDiurnal;
  diurnal.rate_hz = 1500.0;        // peak arrival rate
  diurnal.period_seconds = 0.04;   // one compressed day-night cycle
  diurnal.trough_fraction = 0.1;   // overnight floor: 10% of peak
  std::vector<serve::ModelTraffic> streams(2);
  streams[0].model = 0;            // the segmenter's request stream
  streams[0].arrivals = diurnal;
  streams[0].count = 10;
  streams[1].model = 1;            // the detector, phase-shifted to peak
  streams[1].arrivals = diurnal;   // while the segmenter idles
  streams[1].arrivals.phase_seconds = 0.02;
  streams[1].count = 10;
  const std::vector<serve::TimedSubmission> mix =
      serve::build_traffic_mix(streams, seed);

  serve::ServerConfig duo_cfg = scfg;
  duo_cfg.with_workers(2)
      .with_devices(2)
      .with_route(serve::RoutePolicy::kCacheAffinity)
      .with_map_cache_bytes(std::size_t(64) << 20)
      .with_model("minkunet", w.model, /*slo_budget_seconds=*/0.008,
                  serve::Priority::kHigh, /*weight=*/2.0)
      .with_model("centerpoint", cp.model, /*slo_budget_seconds=*/0.016,
                  serve::Priority::kNormal, /*weight=*/1.0);
  serve::Server duo(duo_cfg);
  duo.start();  // registry session: no ModelFn argument
  VoxelSpec det_voxels = detection_voxels();
  det_voxels.feature_channels = 5;  // CenterPoint input width
  for (const serve::TimedSubmission& s : mix) {
    // Each stream loops over 5 unique scans, so the second half of a
    // stream revisits frames — warm per-model cache hits below.
    const uint64_t frame = static_cast<uint64_t>(s.stream_pos % 5);
    const SparseTensor scan =
        s.model == 0
            ? make_input(lidar, segmentation_voxels(), seed + 120 + frame)
            : make_input(waymo_spec(1), det_voxels, seed + 150 + frame);
    // No explicit priority: each entry's default_priority applies.
    duo.submit_to(s.model, scan, s.arrival_seconds);
  }
  const serve::StreamReport duo_rep = duo.drain();

  std::printf("\nmulti-model serve: %zu requests over %zu models on %d "
              "devices (diurnal trace, peak %.0f Hz)\n",
              duo_rep.stats.completed, duo_rep.stats.per_model.size(),
              duo_rep.stats.devices, diurnal.rate_hz);
  std::printf("\nmodel        served  wait p99(ms)  e2e p99(ms)  warm "
              "hits\n");
  for (const serve::ModelStats& ms : duo_rep.stats.per_model) {
    const char* name = ms.model == duo.model_id("minkunet")
                           ? "minkunet"
                           : "centerpoint";
    std::printf("%-11s  %6zu  %12.2f  %11.2f  %5zu/%zu\n", name,
                ms.completed, ms.queue_wait_p99_seconds * 1e3,
                ms.e2e_p99_seconds * 1e3, ms.cache_hits, ms.cache_lookups);
  }
  return 0;
}
