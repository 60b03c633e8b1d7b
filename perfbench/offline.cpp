// Offline workloads: one caller runs whole scans back to back (a closed
// loop) through run_model.
//
//   seg-numerics  MinkUNet-0.5x on SemanticKITTI-like scans with real
//                 numerics, no L2 replay, no kernel-map cache: host time
//                 is gather/GEMM/scatter numerics.
//   det-costonly  CenterPoint on Waymo-3-frame scans, cost only, with L2
//                 replay: host time is L2 replay and strided mapping.
//
// Each run cycles over a fixed set of distinct scans built from the seed.
// Modeled metrics come from the first pass over the set, so they repeat
// bit for bit; later passes must reproduce the first pass's timelines (and,
// with numerics, its output digests) exactly.
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <unordered_set>

#include "core/conv3d.hpp"
#include "core/dense_reference.hpp"
#include "core/kernel_map_cache.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/layers.hpp"
#include "nn/minkunet.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kTuneSamples = 2;
/// Modeled latency limit per scan: the 10 Hz sweep period of the LiDAR
/// that produces the scans (a scan must finish before the next arrives).
constexpr double kScanLimitSeconds = 0.100;

/// Order-independent summary of a feature matrix, compared within FP16
/// tolerance.
struct OutputDigest {
  std::size_t rows = 0;
  std::size_t cols = 0;
  double sum = 0;
  double abs_sum = 0;
};

OutputDigest digest(const ts::Matrix& m) {
  OutputDigest d{m.rows(), m.cols(), 0, 0};
  for (std::size_t i = 0; i < m.size(); ++i) {
    d.sum += m.data()[i];
    d.abs_sum += std::abs(m.data()[i]);
  }
  return d;
}

bool within_fp16(const OutputDigest& a, const OutputDigest& b) {
  const double tol = 1e-3 * std::max(1.0, b.abs_sum);
  return a.rows == b.rows && a.cols == b.cols && b.rows > 0 &&
         std::isfinite(a.abs_sum) && std::abs(a.sum - b.sum) <= tol &&
         std::abs(a.abs_sum - b.abs_sum) <= tol;
}

/// One sparse_conv3d call under the TorchSparse engine (FP16) against the
/// dense oracle, on a random tensor from the run seed.
bool dense_reference_ok(uint64_t seed, std::string* detail) {
  std::mt19937_64 rng(mix_seed(seed, 99));
  constexpr int kPoints = 300;
  constexpr uint64_t kExtent = 13;
  constexpr std::size_t kCin = 8, kCout = 16;
  auto unit = [&] {  // uniform in [-1, 1), stdlib-independent
    return static_cast<float>(static_cast<double>(rng() >> 11) * 0x1p-52 - 1.0);
  };
  std::vector<ts::Coord> coords;
  std::unordered_set<uint64_t> seen;
  while (static_cast<int>(coords.size()) < kPoints) {
    const ts::Coord c{0, static_cast<int32_t>(rng() % kExtent),
                      static_cast<int32_t>(rng() % kExtent),
                      static_cast<int32_t>(rng() % kExtent)};
    if (seen.insert(ts::pack_coord(c)).second) coords.push_back(c);
  }
  ts::Matrix feats(coords.size(), kCin);
  for (std::size_t i = 0; i < feats.size(); ++i) feats.data()[i] = unit();
  const ts::SparseTensor x(std::move(coords), std::move(feats));

  ts::Conv3dParams p;
  p.geom = ts::ConvGeometry{3, 1, false};
  p.weights = ts::spnn::make_conv_weights(3, kCin, kCout, rng);
  ts::RunOptions opt;
  opt.numerics = true;
  ts::ExecContext ctx =
      ts::make_run_context(ts::rtx2080ti(), ts::torchsparse_config(), opt);
  const ts::SparseTensor y = ts::sparse_conv3d(x, p, ctx);
  const ts::Matrix ref =
      ts::dense_reference_conv(x.coords(), x.feats(), y.coords(), p);
  const float err = ts::max_abs_diff(y.feats(), ref);
  if (detail) *detail = "sparse_conv3d vs dense reference: max |diff| " +
                        std::to_string(err);
  return err < 2e-2f;  // FP16 rounding at every buffer boundary
}

struct OfflineSpec {
  const char* name;
  ts::LidarSpec lidar;
  ts::VoxelSpec voxels;
  int scans = 8;        // distinct scans the run cycles over
  bool numerics = false;
  bool simulate_cache = false;
  bool segmentation = true;
};

/// Everything set-up builds; the timed loop only reads it.
struct OfflineState {
  std::vector<ts::SparseTensor> scans;
  ts::ModelFn model;
  ts::RunOptions opt;
  /// The last forward pass's output digest (segmentation with numerics).
  std::shared_ptr<OutputDigest> output;
};

OfflineState build_state(const OfflineSpec& spec, uint64_t seed,
                         Tracer& tracer) {
  Span setup_span(tracer, "setup");
  OfflineState st;
  for (int k = 0; k < spec.scans; ++k) {
    Span s(tracer, "data.make_input", k);
    st.scans.push_back(ts::make_input(
        spec.lidar, spec.voxels, mix_seed(seed, static_cast<uint64_t>(k))));
  }
  std::vector<ts::SparseTensor> samples;
  for (int i = 0; i < kTuneSamples; ++i) {
    Span s(tracer, "data.make_input");
    samples.push_back(ts::make_input(
        spec.lidar, spec.voxels,
        mix_seed(kDeploymentSeed, 1000 + static_cast<uint64_t>(i))));
  }
  {
    Span s(tracer, "nn.build");
    st.output = std::make_shared<OutputDigest>();
    if (spec.segmentation) {
      auto net = std::make_shared<ts::spnn::MinkUNet>(
          0.5, static_cast<std::size_t>(spec.voxels.feature_channels), 19,
          mix_seed(kDeploymentSeed, 2000));
      st.model = [net, out = st.output](const ts::SparseTensor& x,
                                        ts::ExecContext& ctx) {
        const ts::SparseTensor y = net->forward(x, ctx);
        if (ctx.compute_numerics) *out = digest(y.feats());
      };
    } else {
      auto net = std::make_shared<ts::spnn::CenterPoint>(
          static_cast<std::size_t>(spec.voxels.feature_channels),
          mix_seed(kDeploymentSeed, 2000));
      st.model = [net](const ts::SparseTensor& x, ts::ExecContext& ctx) {
        net->run(x, ctx);
      };
    }
  }
  st.opt.numerics = spec.numerics;
  st.opt.simulate_cache = spec.simulate_cache;
  {
    Span s(tracer, "tune.tune_for");
    st.opt.tuned = ts::tune_for(st.model, samples, ts::rtx2080ti(),
                                ts::torchsparse_config());
  }
  {
    Span s(tracer, "warmup");
    ts::run_model(st.model, st.scans.front(), ts::rtx2080ti(),
                  ts::torchsparse_config(), st.opt);
  }
  return st;
}

RunResult run_offline(const OfflineSpec& spec, const RunArgs& args,
                      Tracer& tracer) {
  RunResult r;
  zero_fill(r.metrics, metric_list(args.trace));
  const ts::DeviceSpec dev = ts::rtx2080ti();
  const ts::EngineConfig cfg = ts::torchsparse_config();

  Calibrator cal;
  cal.sample(3);
  OfflineState st;
  const double setup_s = timed_setup(
      kSetupReps, [&] { st = build_state(spec, args.seed, tracer); });
  cal.sample(3);
  const OutputDigest warmup_output = *st.output;

  std::string detail;
  if (!dense_reference_ok(args.seed, &detail)) r.fail(detail);
  std::printf("%s: %s\n", spec.name, detail.c_str());
  std::size_t min_pts = SIZE_MAX, max_pts = 0;
  for (const ts::SparseTensor& s : st.scans) {
    min_pts = std::min(min_pts, s.num_points());
    max_pts = std::max(max_pts, s.num_points());
  }
  std::printf("%s: %zu distinct scans, %zu-%zu voxels each\n", spec.name,
              st.scans.size(), min_pts, max_pts);

  // Paired runs of the traced pass: the same scan with one layer switched
  // off, so the wall difference is that layer's host cost.
  ts::RunOptions costonly = st.opt;
  costonly.numerics = false;
  ts::RunOptions no_l2 = st.opt;
  no_l2.simulate_cache = false;
  ts::RunOptions mapping = costonly;
  mapping.simulate_cache = false;
  mapping.map_cache = std::make_shared<ts::KernelMapCache>(0);  // never hits

  const std::size_t K = st.scans.size();
  std::vector<ts::Timeline> first(K);
  std::vector<OutputDigest> first_output(K);
  std::vector<double> modeled_s(K, 0.0), untraced_ms(K, 0.0),
      traced_ms(K, 0.0);
  std::vector<std::vector<double>> scan_ms(K);  // wall of every op, by scan
  std::vector<double> served_latency, numerics_ms, l2_ms, l2_rate, mapping_ms;
  Tracer off(false);
  // A traced run times its first pass untraced (the overhead baseline)
  // and traces every later pass.
  const std::size_t min_ops = args.trace ? 2 * K : K;

  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % K, pass = i / K;
    const bool traced = args.trace && pass >= 1;
    Tracer& tr = traced ? tracer : off;
    bool ok = true;
    ts::Timeline t;
    double rate = 0;
    const Clock::time_point a = Clock::now();
    try {
      Span s(tr, "engines.run_model", static_cast<long long>(i));
      if (traced) {
        ts::ExecContext ctx = ts::make_run_context(dev, cfg, st.opt);
        t = ts::run_in_context(st.model, st.scans[k], ctx);
        rate = ctx.l2.hit_rate();
      } else {
        t = ts::run_model(st.model, st.scans[k], dev, cfg, st.opt);
      }
    } catch (const std::exception& e) {
      ok = false;
      r.fail(std::string("run_model threw: ") + e.what());
    }
    const double wall_ms = seconds_since(a) * 1e3;

    if (ok && pass == 0) {
      first[k] = t;
      modeled_s[k] = t.total_seconds();
      if (spec.numerics) {
        first_output[k] = *st.output;
        if (k == 0 && !within_fp16(first_output[0], warmup_output)) {
          ok = false;
          r.fail("scan 0 output differs from its set-up digest");
        }
      }
    } else if (ok) {
      if (!same_timeline(t, first[k])) {
        ok = false;
        r.fail("scan " + std::to_string(k) + " timeline not reproduced");
      }
      if (spec.numerics && !within_fp16(*st.output, first_output[k])) {
        ok = false;
        r.fail("scan " + std::to_string(k) + " output digest mismatch");
      }
    }
    if (ok) served_latency.push_back(t.total_seconds());
    r.ops.record(ok);
    scan_ms[k].push_back(wall_ms);
    if (pass == 0) untraced_ms[k] = wall_ms;
    if (pass == 1) traced_ms[k] = wall_ms;

    if (traced) {
      auto paired_ms = [&](const char* name, const ts::RunOptions& o) {
        Span s(tr, name, static_cast<long long>(i));
        const Clock::time_point b = Clock::now();
        ts::run_model(st.model, st.scans[k], dev, cfg, o);
        return seconds_since(b) * 1e3;
      };
      if (spec.numerics)
        numerics_ms.push_back(wall_ms - paired_ms("paired.costonly", costonly));
      if (spec.simulate_cache) {
        l2_ms.push_back(wall_ms - paired_ms("paired.no_l2", no_l2));
        l2_rate.push_back(rate);
      }
      const double built = mapping.map_cache->stats().build_wall_seconds;
      paired_ms("paired.map_cache", mapping);
      mapping_ms.push_back(
          (mapping.map_cache->stats().build_wall_seconds - built) * 1e3);
    }
    cal.sample();
    if (i + 1 >= min_ops && seconds_since(t0) >= args.seconds) break;
  }

  // Wall throughput over the scan set: each scan's median time (robust to
  // a host hiccup during one repetition), summed over the set.
  double set_ms = 0;
  for (const std::vector<double>& v : scan_ms) set_ms += median(v);
  double modeled_sum = 0;
  for (double s : modeled_s) modeled_sum += s;
  MetricSet& m = r.metrics;
  if (!args.trace) {
    std::printf("%s: host calibration %.3f ms (x%.4f to reference), raw "
                "%.4f scans/s, raw set-up %.4f s\n",
                spec.name, cal.median_ms(), cal.to_reference(),
                static_cast<double>(K) * 1e3 / set_ms, setup_s);
    put(m, "setup_s", setup_s * cal.to_reference());
    put(m, "peak_rss_mb", peak_rss_mib());
    put(m, "wall_throughput_per_s",
        static_cast<double>(K) * 1e3 / (set_ms * cal.to_reference()));
    put(m, "modeled_fps",
        modeled_sum > 0 ? static_cast<double>(K) / modeled_sum : 0.0);
    put(m, "modeled_latency_ms_p50", median(modeled_s) * 1e3);
    put(m, "slo_attainment",
        slo_attainment(served_latency, r.ops.failed, 0, kScanLimitSeconds));
    return r;
  }
  ts::Timeline sum;
  for (const ts::Timeline& t : first) sum += t;
  put_timeline(m, sum, static_cast<double>(K));
  put(m, "gpusim.l2_replay_wall_ms", mean(l2_ms));
  put(m, "gpusim.l2_hit_rate", mean(l2_rate));
  put(m, "core.mapping_wall_ms", mean(mapping_ms));
  put(m, "core.numerics_wall_ms", mean(numerics_ms));
  put(m, "wall.scan_ms_p50", median(tracer.durations_ms("engines.run_model")));
  put(m, "data.make_input_ms", mean(tracer.durations_ms("data.make_input")));
  put(m, "tune.wall_s", mean(tracer.durations_ms("tune.tune_for")) / 1e3);
  double untraced = 0, traced = 0;
  for (std::size_t k = 0; k < K; ++k) {
    untraced += untraced_ms[k];
    traced += traced_ms[k];
  }
  put(m, "trace.overhead_frac", untraced > 0 ? traced / untraced - 1.0 : 0.0);
  put(m, "host.calibration_ms", cal.median_ms());
  return r;
}

}  // namespace

/// Synthetic-scan scale of the offline workloads (azimuth resolution as a
/// fraction of the full dataset preset).
constexpr double kOfflineScale = 0.05;

RunResult run_seg_numerics(const RunArgs& args, Tracer& tracer) {
  OfflineSpec spec;
  spec.name = "seg-numerics";
  spec.lidar = scaled(ts::semantic_kitti_spec(), kOfflineScale);
  spec.voxels = ts::segmentation_voxels();
  spec.scans = 48;
  spec.numerics = true;
  spec.simulate_cache = false;
  spec.segmentation = true;
  return run_offline(spec, args, tracer);
}

RunResult run_det_costonly(const RunArgs& args, Tracer& tracer) {
  OfflineSpec spec;
  spec.name = "det-costonly";
  spec.lidar = scaled(ts::waymo_spec(3), kOfflineScale);
  spec.voxels = ts::detection_voxels();
  spec.voxels.feature_channels = 5;  // CenterPoint input width
  spec.scans = 96;
  spec.numerics = false;
  spec.simulate_cache = true;
  spec.segmentation = false;
  return run_offline(spec, args, tracer);
}

}  // namespace perfbench
