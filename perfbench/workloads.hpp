// The benchmark's four workloads and the helpers they share.
//
// Every workload runs TorchSparse (torchsparse_config()) on the modeled
// RTX 2080Ti, takes its inputs from the run seed, and reports every
// end-to-end metric (untraced run) or every per-layer metric (traced run)
// listed below. A layer a workload does not exercise reports 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "data/lidar.hpp"
#include "gpusim/timeline.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
inline const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"wall_throughput_per_s", "1/s"},
    {"modeled_fps", "1/s"},
    {"modeled_latency_ms_p50", "ms"},
    {"slo_attainment", "ratio"},
};

/// Per-layer metrics, reported by every traced run.
inline const std::vector<MetricDef> kPerLayer = {
    {"stage.mapping_ms", "ms"},
    {"stage.gather_ms", "ms"},
    {"stage.scatter_ms", "ms"},
    {"stage.matmul_ms", "ms"},
    {"stage.dense2d_ms", "ms"},
    {"stage.nms_ms", "ms"},
    {"stage.misc_ms", "ms"},
    {"gpusim.dram_mb", "MB"},
    {"gpusim.kernel_launches", "count"},
    {"gpusim.matmul_tflops", "TFLOP/s"},
    {"gpusim.l2_replay_wall_ms", "ms"},
    {"gpusim.l2_hit_rate", "ratio"},
    {"core.mapping_wall_ms", "ms"},
    {"core.numerics_wall_ms", "ms"},
    {"wall.scan_ms_p50", "ms"},
    {"cache.hit_rate", "ratio"},
    {"cache.lookups", "count"},
    {"cache.evictions", "count"},
    {"cache.modeled_ms_saved", "ms"},
    {"cache.build_wall_ms", "ms"},
    {"cache.build_wall_saved_ms", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.e2e_ms_p99", "ms"},
    {"serve.modeled_throughput_rps", "1/s"},
    {"serve.batch_size_mean", "count"},
    {"serve.batches", "count"},
    {"serve.device_util_min", "ratio"},
    {"serve.device_util_max", "ratio"},
    {"serve.retries", "count"},
    {"serve.redispatched_batches", "count"},
    {"serve.class_high.e2e_ms_p90", "ms"},
    {"serve.class_low.e2e_ms_p90", "ms"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.drain_ms", "ms"},
    {"data.make_input_ms", "ms"},
    {"tune.wall_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"host.calibration_ms", "ms"},
};

/// A metric list a run must report in full, by run mode.
inline const std::vector<MetricDef>& metric_list(bool trace) {
  return trace ? kPerLayer : kEndToEnd;
}

/// Writes every metric of `list` as 0 so a workload only fills in the
/// layers it exercises.
inline void zero_fill(MetricSet& m, const std::vector<MetricDef>& list) {
  for (const MetricDef& d : list) m.set(d.name, 0.0, d.unit);
}

/// Sets a metric whose unit comes from the canonical lists.
void put(MetricSet& m, const std::string& name, double value);

/// Independent sub-seed `stream` of the run seed (splitmix64), so adding
/// an input stream never perturbs the others.
uint64_t mix_seed(uint64_t seed, uint64_t stream);

/// Seed of the deployed networks' weights and of the Alg. 5 calibration
/// scans tune_for runs on. Both belong to the deployment, not to the
/// workload's inputs, so they stay fixed across run seeds (weights change
/// activation magnitudes and hence the host cost of numerics).
inline constexpr uint64_t kDeploymentSeed = 20220301;

/// A dataset preset with its azimuth resolution scaled down (the same
/// rule the library's workload constructors use).
ts::LidarSpec scaled(ts::LidarSpec spec, double scale);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Runs `body(i)` for i in [0, n) on up to `threads` threads and joins
/// them all; rethrows the first exception any call raised.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& body);

/// Runs `setup` `reps` times and returns the median wall seconds. The
/// state the last repetition built is the one the run measures.
double timed_setup(int reps, const std::function<void()>& setup);

/// Per-operation modeled breakdown: `sum` is the summed timeline of `ops`
/// operations; writes stage.*_ms, gpusim.dram_mb, gpusim.kernel_launches
/// and gpusim.matmul_tflops per operation.
void put_timeline(MetricSet& m, const ts::Timeline& sum, double ops);

/// Bit equality of two modeled timelines (every stage, traffic counter,
/// launch count and FLOP count).
bool same_timeline(const ts::Timeline& a, const ts::Timeline& b);

/// Equality of every field apply_map_cache_hit leaves alone: all stages
/// but Mapping, and the FLOP count.
bool same_outside_mapping(const ts::Timeline& a, const ts::Timeline& b);

/// Offline and serving workloads (offline.cpp, serve.cpp). Each builds its
/// inputs from args.seed, measures for args.seconds, checks its outputs,
/// and fills the metric list of its mode.
RunResult run_seg_numerics(const RunArgs& args, Tracer& tracer);
RunResult run_det_costonly(const RunArgs& args, Tracer& tracer);
RunResult run_serve_steady(const RunArgs& args, Tracer& tracer);
RunResult run_serve_burst(const RunArgs& args, Tracer& tracer);

}  // namespace perfbench
