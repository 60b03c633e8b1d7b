// SLO-aware dynamic batching sweep (the serving-layer companion of the
// paper's Fig. 14 throughput study): batching policy x queue-wait SLO
// budget x offered load x dispatch overhead on the MinkUNet segmentation
// workload.
//
// Per-request service times are measured once through the worker pool;
// every (policy, SLO, load, overhead) cell is then a deterministic
// modeled schedule of those same timelines (SloBatchingPolicy::plan +
// schedule_stream_dispatch on a 1-device group), exactly how bench/fig14
// reuses one measurement across schedule configurations. The fixed
// per-dispatch overhead models the amortizable setup (kernel-map reuse,
// weight staging, launch setup) the paper's end-to-end wins come from;
// sweeping it low and high shows both serving regimes:
//   * cheap dispatch  -> batching only costs latency (immediate wins),
//   * costly dispatch -> batching amortizes setup (full batches win
//                        throughput, SLO budgets trade it for latency).
//
// Sanity anchors checked at the end (exit nonzero on failure):
//   1. mean batch size grows monotonically with the SLO budget,
//   2. the tightest SLO forms smaller batches than the loosest,
//   3. with costly dispatch under overload, full batching
//      out-throughputs immediate dispatch (amortization),
//   4. with cheap dispatch, immediate dispatch has the lower p99
//      end-to-end latency (batching's latency cost).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "serve/batch_runner.hpp"
#include "serve/device_group.hpp"
#include "serve/serve_policies.hpp"
#include "serve/server.hpp"
#include "serve/tuned_param_store.hpp"

using namespace ts;

namespace {

/// Deterministic exponential inter-arrivals via explicit inverse-CDF on
/// raw mt19937_64 output (std::exponential_distribution is
/// implementation-defined, which would break cross-machine
/// reproducibility).
std::vector<double> poisson_arrivals(std::size_t n, double rate,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> arrivals(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u =
        static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    t += -std::log1p(-u) / rate;
    arrivals[i] = t;
  }
  return arrivals;
}

struct Config {
  std::string label;
  serve::BatcherOptions batcher;
};

}  // namespace

int main() {
  bench::header("SLO-aware dynamic batching: policy x budget x load",
                "serving-layer extension of paper Fig. 14 (absolute "
                "throughput) to latency-SLO scheduling");
  bench::note(
      "service times measured once; every (policy, SLO, load, overhead) "
      "cell is a deterministic modeled schedule of the same timelines");

  const uint64_t seed = 20260731;
  const double scale = 0.25;
  Workload w = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                      0.5, 1, seed, scale,
                                      /*tune_sample_count=*/2);
  const DeviceSpec dev = rtx2080ti();
  const EngineConfig cfg = torchsparse_config();

  LidarSpec lidar = semantic_kitti_spec();
  lidar.azimuth_steps =
      std::max(32, static_cast<int>(lidar.azimuth_steps * scale));
  const std::size_t n = 24;
  std::vector<SparseTensor> scans;
  for (std::size_t i = 0; i < n; ++i)
    scans.push_back(make_input(lidar, segmentation_voxels(),
                               seed + 100 + static_cast<uint64_t>(i)));

  // Measure every scan's modeled service time once (tuned engine).
  serve::TunedParamStore store;
  serve::BatchOptions bopt;
  bopt.workers = 8;
  bopt.run.tuned = store.get_or_tune(serve::tuned_key(w.name, dev, cfg),
                                     w.model, w.tune_samples, dev, cfg);
  const serve::BatchReport measured =
      serve::BatchRunner(dev, cfg, bopt).run(w.model, scans);
  const double mean_service = measured.stats.mean_service_seconds;
  std::printf("\nmeasured %zu scans, mean service %.2f ms (tuned %zu "
              "layers)\n",
              n, mean_service * 1e3, bopt.run.tuned.size());

  const int workers = 4;
  const int max_batch = 8;
  const std::vector<double> budget_mults = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};

  std::vector<Config> configs;
  {
    serve::BatcherOptions b;
    b.policy = serve::BatchPolicy::kImmediate;
    configs.push_back({"immediate", b});
  }
  for (double mult : budget_mults) {
    serve::BatcherOptions b;
    b.policy = serve::BatchPolicy::kSloAware;
    b.max_batch = max_batch;
    b.slo_budget_seconds = mult * mean_service;
    char label[32];
    std::snprintf(label, sizeof(label), "slo %.2fx svc", mult);
    configs.push_back({label, b});
  }
  {
    serve::BatcherOptions b;
    b.policy = serve::BatchPolicy::kFullBatch;
    b.max_batch = max_batch;
    configs.push_back({"full-batch", b});
  }

  // Every cell schedules on one device (no map cache); the group is
  // reset by each schedule pass.
  serve::DeviceGroup group(dev, 1, 0);
  const std::unique_ptr<serve::RoutingPolicy> routing =
      serve::make_routing_policy(serve::RoutePolicy::kRoundRobin);

  struct Anchors {
    bool batch_monotone = true;
    double tight_batch = 0, loose_batch = 0;     // costly, overloaded
    double imm_fps = 0, full_fps = 0;            // costly, overloaded
    double imm_e2e = 0, full_e2e = 0;            // cheap, underloaded
  } a;

  for (double oh_mult : {0.1, 2.0}) {
    const double overhead = oh_mult * mean_service;
    for (double load : {0.7, 1.3}) {
      const double rate =
          load * static_cast<double>(workers) / mean_service;
      const std::vector<double> arrivals =
          poisson_arrivals(n, rate, seed + 7);
      std::vector<serve::ArrivalInfo> infos(n);  // single class: kNormal
      for (std::size_t i = 0; i < n; ++i) {
        infos[i].id = i;
        infos[i].arrival_seconds = arrivals[i];
      }

      std::printf("\n=== dispatch overhead %.2f ms (%.1fx svc), offered "
                  "load %.0f%% of %d lanes, max_batch %d ===\n",
                  overhead * 1e3, oh_mult, load * 100, workers, max_batch);
      std::printf("%-14s %8s %8s %12s %12s %12s\n", "policy", "fps",
                  "batch", "p50 wait ms", "p99 wait ms", "p99 e2e ms");

      double prev_slo_batch = 0;
      for (const Config& c : configs) {
        // Fresh schedule over the same measured timelines.
        std::vector<serve::StreamResult> reqs(n);
        for (std::size_t i = 0; i < n; ++i) {
          reqs[i].id = i;
          reqs[i].arrival_seconds = arrivals[i];
          reqs[i].service_seconds = measured.requests[i].service_seconds;
          reqs[i].timeline = measured.requests[i].timeline;
        }
        const auto plan = serve::SloBatchingPolicy::plan(infos, c.batcher);
        const serve::StreamStats s = serve::schedule_stream_dispatch(
            reqs, plan, group, *routing, workers, overhead);
        std::printf("%-14s %8.1f %8.2f %12.2f %12.2f %12.2f\n",
                    c.label.c_str(), s.throughput_fps, s.mean_batch_size,
                    s.queue_wait_p50_seconds * 1e3,
                    s.queue_wait_p99_seconds * 1e3,
                    s.e2e_p99_seconds * 1e3);

        if (c.batcher.policy == serve::BatchPolicy::kSloAware) {
          if (s.mean_batch_size + 1e-12 < prev_slo_batch)
            a.batch_monotone = false;
          prev_slo_batch = s.mean_batch_size;
        }
        const bool costly_overloaded = oh_mult > 1.0 && load > 1.0;
        const bool cheap_underloaded = oh_mult < 1.0 && load < 1.0;
        if (costly_overloaded) {
          if (c.batcher.policy == serve::BatchPolicy::kImmediate)
            a.imm_fps = s.throughput_fps;
          if (c.batcher.policy == serve::BatchPolicy::kFullBatch)
            a.full_fps = s.throughput_fps;
          if (c.batcher.policy == serve::BatchPolicy::kSloAware) {
            if (c.batcher.slo_budget_seconds < 0.3 * mean_service)
              a.tight_batch = s.mean_batch_size;
            if (c.batcher.slo_budget_seconds > 7.0 * mean_service)
              a.loose_batch = s.mean_batch_size;
          }
        }
        if (cheap_underloaded) {
          if (c.batcher.policy == serve::BatchPolicy::kImmediate)
            a.imm_e2e = s.e2e_p99_seconds;
          if (c.batcher.policy == serve::BatchPolicy::kFullBatch)
            a.full_e2e = s.e2e_p99_seconds;
        }
      }
    }
  }

  std::printf("\n--- sanity anchors ---\n");
  const bool smaller = a.tight_batch < a.loose_batch;
  const bool amortize = a.full_fps > a.imm_fps;
  const bool latency_cost = a.imm_e2e < a.full_e2e;
  std::printf("mean batch monotone in SLO budget (every table): %s\n",
              a.batch_monotone ? "OK" : "FAIL");
  std::printf("tight SLO batches %.2f < loose %.2f: %s\n", a.tight_batch,
              a.loose_batch, smaller ? "OK" : "FAIL");
  std::printf("costly dispatch, overloaded: full-batch %.1f fps > "
              "immediate %.1f fps (amortization): %s\n",
              a.full_fps, a.imm_fps, amortize ? "OK" : "FAIL");
  std::printf("cheap dispatch, underloaded: immediate p99 e2e %.2f ms < "
              "full-batch %.2f ms (batching latency cost): %s\n",
              a.imm_e2e * 1e3, a.full_e2e * 1e3,
              latency_cost ? "OK" : "FAIL");
  return (a.batch_monotone && smaller && amortize && latency_cost) ? 0 : 1;
}
