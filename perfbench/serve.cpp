// Serving workloads: an open loop on the modeled clock. A registry
// serve::Server co-hosts MinkUNet-0.5x (SemanticKITTI-like scans) and
// CenterPoint (Waymo-1-frame scans) on two modeled RTX 2080Ti shards; the
// benchmark submits a whole traffic mix through submit_to and drains it.
//
//   serve-steady  Poisson arrivals at about 60% of modeled capacity over a
//                 coherent SequenceTrace with revisits, a generous
//                 kernel-map cache, cache-affinity routing, no faults.
//   serve-burst   On/off bursts that overload the fleet, a high/normal/low
//                 priority mix of unique frames, a cache budget small
//                 enough to evict, and one deterministic shard crash.
//
// A run serves the same mix in as many fresh sessions ("passes") as fit
// in --seconds. Every modeled statistic must repeat bit for bit across
// passes; wall throughput is the median over the passes after the first.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/centerpoint.hpp"
#include "nn/minkunet.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sv = ts::serve;

constexpr int kSetupReps = 3;
constexpr int kTuneSamples = 2;
/// Synthetic-scan scale of the served scans.
constexpr double kServeScale = 0.05;
/// Measurement threads: one worker lane on each of the two shards, which
/// leaves cores for the submitting thread and the session coordinator.
constexpr int kWorkersPerDevice = 1;
constexpr int kDevices = 2;
/// Requests sampled (evenly over the submission order) for the check
/// against a serial run_model.
constexpr std::size_t kCheckedRequests = 8;

/// One submission stream of the mix: a model, a priority class, and a
/// SequenceTrace that supplies its frames in order.
struct StreamDef {
  int model = 0;
  sv::Priority priority = sv::Priority::kNormal;
  sv::TrafficSpec arrivals;
  sv::SequenceTraceSpec trace;
};

struct ServeSpec {
  const char* name;
  std::vector<StreamDef> streams;
  std::size_t map_cache_bytes = 0;
  std::shared_ptr<const sv::FaultPlan> faults;
  /// Fixed modeled end-to-end latency limit of the workload's SLO.
  double slo_seconds = 0;
};

/// A stream's frames, deduplicated: `frames[at[k]]` is the trace's k-th
/// emission and `first_visit[k]` marks the first emission of each frame.
struct StreamInputs {
  std::vector<ts::SparseTensor> frames;
  std::vector<std::size_t> at;
  std::vector<char> first_visit;
};

struct ServeState {
  std::vector<ts::ModelFn> models;
  std::vector<std::unordered_map<int, ts::GroupParams>> tuned;
  std::vector<StreamInputs> inputs;
  std::vector<sv::TimedSubmission> mix;
  std::vector<double> trace_frame_ms;  // wall of every trace_frame call
};

ts::LidarSpec model_lidar(int model) {
  return scaled(model == 0 ? ts::semantic_kitti_spec() : ts::waymo_spec(1),
                kServeScale);
}

ts::VoxelSpec model_voxels(int model) {
  if (model == 0) return ts::segmentation_voxels();
  ts::VoxelSpec v = ts::detection_voxels();
  v.feature_channels = 5;  // CenterPoint input width
  return v;
}

ServeState build_state(const ServeSpec& spec, uint64_t seed, Tracer& tracer) {
  Span setup_span(tracer, "setup");
  ServeState st;
  {
    Span s(tracer, "nn.build");
    auto seg = std::make_shared<ts::spnn::MinkUNet>(
        0.5, 4, 19, mix_seed(kDeploymentSeed, 2000));
    auto det = std::make_shared<ts::spnn::CenterPoint>(
        5, mix_seed(kDeploymentSeed, 2001));
    st.models.push_back([seg](const ts::SparseTensor& x, ts::ExecContext& c) {
      seg->forward(x, c);
    });
    st.models.push_back([det](const ts::SparseTensor& x, ts::ExecContext& c) {
      det->run(x, c);
    });
  }

  // Frames: every stream's trace, generated in parallel and deduplicated
  // by (sequence, frame) as they arrive so revisits cost no memory.
  {
    Span s(tracer, "data.trace_frames");
    std::mutex mu;
    for (std::size_t si = 0; si < spec.streams.size(); ++si) {
      const sv::SequenceTraceSpec& trace = spec.streams[si].trace;
      const std::size_t n = sv::trace_length(trace);
      const uint64_t trace_seed = mix_seed(seed, 3000 + si);
      StreamInputs in;
      in.at.assign(n, 0);
      in.first_visit.assign(n, 0);
      std::map<std::pair<int, int>, std::size_t> index;  // -> frames slot
      std::vector<std::pair<std::size_t, ts::SparseTensor>> made;
      std::vector<std::pair<int, int>> ids(n);
      parallel_for(n, 4, [&](std::size_t k) {
        const Clock::time_point t0 = Clock::now();
        sv::TraceFrame f = sv::trace_frame(trace, k, trace_seed);
        const double ms = seconds_since(t0) * 1e3;
        std::lock_guard<std::mutex> lock(mu);
        st.trace_frame_ms.push_back(ms);
        ids[k] = {f.sequence, f.frame};
        if (index.emplace(ids[k], made.size()).second)
          made.emplace_back(k, std::move(f.input));
      });
      // Number frames by first emission so the layout is independent of
      // which worker finished first.
      std::sort(made.begin(), made.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::map<std::pair<int, int>, std::size_t> slot;
      for (auto& [k, tensor] : made) {
        slot[ids[k]] = in.frames.size();
        in.frames.push_back(std::move(tensor));
      }
      std::map<std::pair<int, int>, bool> seen;
      for (std::size_t k = 0; k < n; ++k) {
        in.at[k] = slot.at(ids[k]);
        in.first_visit[k] = seen.emplace(ids[k], true).second ? 1 : 0;
      }
      st.inputs.push_back(std::move(in));
    }
  }

  std::vector<sv::ModelTraffic> traffic;
  for (std::size_t si = 0; si < spec.streams.size(); ++si) {
    const StreamDef& d = spec.streams[si];
    traffic.push_back({d.model, d.priority, d.arrivals,
                       sv::trace_length(d.trace)});
  }
  st.mix = sv::build_traffic_mix(traffic, mix_seed(seed, 4000));

  for (std::size_t m = 0; m < st.models.size(); ++m) {
    std::vector<ts::SparseTensor> samples;
    for (int i = 0; i < kTuneSamples; ++i) {
      Span s(tracer, "data.make_input");
      samples.push_back(ts::make_input(
          model_lidar(static_cast<int>(m)), model_voxels(static_cast<int>(m)),
          mix_seed(kDeploymentSeed, 1000 + 10 * m + static_cast<uint64_t>(i))));
    }
    Span s(tracer, "tune.tune_for");
    st.tuned.push_back(ts::tune_for(st.models[m], samples, ts::rtx2080ti(),
                                    ts::torchsparse_config()));
  }
  {
    Span s(tracer, "warmup");
    for (std::size_t si = 0; si < spec.streams.size(); ++si) {
      const auto model = static_cast<std::size_t>(spec.streams[si].model);
      ts::RunOptions opt;
      opt.simulate_cache = false;
      opt.tuned = st.tuned[model];
      ts::run_model(st.models[model], st.inputs[si].frames.front(),
                    ts::rtx2080ti(), ts::torchsparse_config(), opt);
    }
  }
  return st;
}

sv::ServerConfig server_config(const ServeSpec& spec, const ServeState& st) {
  sv::ServerConfig cfg;
  cfg.with_device(ts::rtx2080ti())
      .with_engine(ts::torchsparse_config())
      .with_workers(kWorkersPerDevice)
      .with_devices(kDevices)
      .with_route(sv::RoutePolicy::kCacheAffinity)
      .with_map_cache_bytes(spec.map_cache_bytes)
      // Admission-race guard: RequestQueue rejects against what the
      // serving thread has drained in wall time, so a reachable depth
      // would make admission race the scheduler. Keep it unreachable.
      .with_queue_depth(st.mix.size() + 1);
  cfg.run.simulate_cache = false;
  cfg.run.borrow_input = true;  // the queue owns the submitted copies
  const char* names[] = {"minkunet", "centerpoint"};
  for (std::size_t m = 0; m < st.models.size(); ++m) {
    sv::ModelEntry e;
    e.name = names[m];
    e.fn = st.models[m];
    e.tuned = st.tuned[m];
    cfg.with_model(std::move(e));
  }
  if (spec.faults) cfg.with_fault_plan(spec.faults);
  return cfg;
}

/// One serving session over the whole mix.
struct Pass {
  sv::StreamReport report;
  std::size_t refused = 0;
  double wall_s = 0;
  ts::MapCacheStats host_cache;  // the server-owned wall-clock cache
};

Pass serve_once(const ServeSpec& spec, const ServeState& st, Tracer& tr) {
  Pass p;
  sv::Server server(server_config(spec, st));
  {
    Span s(tr, "serve.start");
    server.start();
  }
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < st.mix.size(); ++i) {
    const sv::TimedSubmission& sub = st.mix[i];
    const StreamInputs& in = st.inputs[sub.stream];
    Span s(tr, "serve.submit_to", static_cast<long long>(i));
    if (!server.try_submit_to(sub.model, in.frames[in.at[sub.stream_pos]],
                              sub.arrival_seconds, sub.priority))
      ++p.refused;
  }
  {
    Span s(tr, "serve.drain");
    p.report = server.drain();
  }
  p.wall_s = seconds_since(t0);
  if (server.map_cache()) p.host_cache = server.map_cache()->stats();
  return p;
}

/// Bit equality of two sessions' modeled outcomes.
bool same_modeled(const sv::StreamReport& a, const sv::StreamReport& b) {
  if (a.requests.size() != b.requests.size() ||
      a.batches.size() != b.batches.size())
    return false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const sv::StreamResult& x = a.requests[i];
    const sv::StreamResult& y = b.requests[i];
    if (x.e2e_seconds != y.e2e_seconds || x.device != y.device ||
        x.error != y.error || !same_timeline(x.timeline, y.timeline))
      return false;
  }
  return same_timeline(a.stats.aggregate, b.stats.aggregate) &&
         a.stats.map_cache.hits == b.stats.map_cache.hits &&
         a.stats.map_cache.evictions == b.stats.map_cache.evictions;
}

/// Consistency of one session's report; appends every violation.
void check_report(const Pass& p, std::size_t submitted, RunResult& r) {
  const sv::StreamStats& s = p.report.stats;
  if (p.refused != 0 || s.rejected != 0)
    r.fail("admission refused " + std::to_string(p.refused + s.rejected) +
           " requests (queue depth must stay unreachable)");
  if (p.report.requests.size() + p.refused != submitted)
    r.fail("report lists " + std::to_string(p.report.requests.size()) +
           " of " + std::to_string(submitted) + " submitted requests");
  std::size_t cls_done = 0, cls_failed = 0, mdl_done = 0, mdl_failed = 0;
  for (const sv::PriorityClassStats& c : s.per_class) {
    cls_done += c.completed;
    cls_failed += c.failed;
  }
  for (const sv::ModelStats& m : s.per_model) {
    mdl_done += m.completed;
    mdl_failed += m.failed;
  }
  if (cls_done != s.completed || cls_failed != s.failed ||
      mdl_done != s.completed || mdl_failed != s.failed ||
      s.completed + s.failed != p.report.requests.size())
    r.fail("per_class/per_model counts do not sum to the totals");
  std::vector<double> e2e;
  for (const sv::StreamResult& q : p.report.requests)
    if (q.ok()) e2e.push_back(q.e2e_seconds);
  std::sort(e2e.begin(), e2e.end());
  if (!e2e.empty() && (nearest_rank(e2e, 0.99) != s.e2e_p99_seconds ||
                       nearest_rank(e2e, 0.5) != s.e2e_p50_seconds))
    r.fail("e2e percentiles disagree with the served requests");
}

RunResult run_serve(const ServeSpec& spec, const RunArgs& args,
                    Tracer& tracer) {
  RunResult r;
  zero_fill(r.metrics, metric_list(args.trace));
  Calibrator cal;
  cal.sample(3, kWorkersPerDevice * kDevices);
  ServeState st;
  const double setup_s = timed_setup(
      kSetupReps, [&] { st = build_state(spec, args.seed, tracer); });
  cal.sample(3, kWorkersPerDevice * kDevices);
  const std::size_t submitted = st.mix.size();
  std::size_t frames = 0;
  for (const StreamInputs& in : st.inputs) frames += in.frames.size();
  std::printf("%s: %zu requests over %zu distinct frames, %zu streams\n",
              spec.name, submitted, frames, spec.streams.size());
  const std::optional<TailPercentile> tail = tail_percentile(submitted);
  if (!tail || tail->q < 0.99)
    r.fail("too few requests for a p99 with 10 samples beyond it");

  // Passes: the first runs on a cold allocator, so wall time comes from
  // the later ones and there are at least two. No pass starts that would
  // end past --seconds. A traced run makes exactly three: the cold pass,
  // an untraced baseline, and the traced pass.
  Tracer off(false);
  std::vector<Pass> passes;
  const Clock::time_point t0 = Clock::now();
  auto another_pass = [&] {
    if (args.trace) return passes.size() < 3;
    return passes.size() < 2 ||
           seconds_since(t0) + passes.back().wall_s <= args.seconds;
  };
  while (another_pass()) {
    const bool traced = args.trace && passes.size() == 2;
    passes.push_back(serve_once(spec, st, traced ? tracer : off));
    cal.sample(10, kWorkersPerDevice * kDevices);
    Pass& p = passes.back();
    check_report(p, submitted, r);
    if (passes.size() > 1 && !same_modeled(p.report, passes.front().report))
      r.fail("pass " + std::to_string(passes.size()) +
             " modeled outcome differs from pass 1");
    for (const sv::StreamResult& q : p.report.requests) r.ops.record(q.ok());
    for (std::size_t i = 0; i < p.refused; ++i) r.ops.record(false);
    // Later passes only re-measure wall time; keep one report in memory.
    if (passes.size() > 1) p.report = {};
  }

  // Output check: a fixed sample of served timelines against a serial
  // run_model of the same input. A frame's first visit cannot hit the
  // kernel-map cache, so it must match bit for bit; a revisit may have
  // had its mapping charge swapped for the warm re-key charge, so every
  // other stage must match and mapping must not exceed the cold charge.
  const sv::StreamReport& rep = passes.front().report;
  for (std::size_t j = 0; j < kCheckedRequests && !rep.requests.empty(); ++j) {
    const std::size_t id = j * rep.requests.size() / kCheckedRequests;
    const sv::TimedSubmission& sub = st.mix[id];
    const StreamInputs& in = st.inputs[sub.stream];
    const sv::StreamResult& served = rep.requests[id];
    if (!served.ok()) continue;  // already counted as failed
    ts::RunOptions opt;
    opt.simulate_cache = false;
    opt.tuned = st.tuned[static_cast<std::size_t>(sub.model)];
    const ts::Timeline serial =
        ts::run_model(st.models[static_cast<std::size_t>(sub.model)],
                      in.frames[in.at[sub.stream_pos]], ts::rtx2080ti(),
                      ts::torchsparse_config(), opt);
    const bool match =
        in.first_visit[sub.stream_pos]
            ? same_timeline(served.timeline, serial)
            : same_outside_mapping(served.timeline, serial) &&
                  served.timeline.stage_seconds(ts::Stage::kMapping) <=
                      serial.stage_seconds(ts::Stage::kMapping);
    if (!match)
      r.fail("request " + std::to_string(id) +
             " timeline differs from a serial run_model");
  }

  const sv::StreamStats& s = rep.stats;
  std::vector<double> served_e2e;
  for (const sv::StreamResult& q : rep.requests)
    if (q.ok()) served_e2e.push_back(q.e2e_seconds);
  std::printf("%s: %zu passes, e2e p99 %.3f ms over %zu requests (%zu "
              "beyond), hit rate %.3f, %zu failed, %zu retries\n",
              spec.name, passes.size(), s.e2e_p99_seconds * 1e3,
              served_e2e.size(), tail ? tail->beyond : 0,
              s.map_cache.hit_rate(), s.failed, s.retries);

  MetricSet& m = r.metrics;
  if (!args.trace) {
    std::vector<double> rps;
    for (std::size_t i = 1; i < passes.size(); ++i)
      rps.push_back(static_cast<double>(submitted) / passes[i].wall_s);
    std::printf("%s: pass requests/s:", spec.name);
    for (double v : rps) std::printf(" %.1f", v);
    std::printf("\n");
    std::printf("%s: host calibration %.3f ms (x%.4f to reference), raw "
                "%.4f requests/s, raw set-up %.4f s\n",
                spec.name, cal.median_ms(), cal.to_reference(), median(rps),
                setup_s);
    put(m, "setup_s", setup_s * cal.to_reference());
    put(m, "peak_rss_mb", peak_rss_mib());
    put(m, "wall_throughput_per_s", median(rps) / cal.to_reference());
    double service = 0;
    for (const sv::StreamResult& q : rep.requests)
      if (q.ok()) service += q.timeline.total_seconds();
    put(m, "modeled_fps",
        service > 0 ? static_cast<double>(served_e2e.size()) / service : 0.0);
    put(m, "modeled_latency_ms_p50", s.e2e_p50_seconds * 1e3);
    put(m, "slo_attainment",
        slo_attainment(served_e2e, s.failed, passes.front().refused,
                       spec.slo_seconds));
    return r;
  }
  const Pass& traced = passes.back();
  const double n = static_cast<double>(submitted);
  put_timeline(m, s.aggregate, static_cast<double>(s.completed));
  put(m, "core.mapping_wall_ms",
      traced.host_cache.build_wall_seconds * 1e3 / n);
  put(m, "cache.hit_rate", s.map_cache.hit_rate());
  put(m, "cache.lookups", static_cast<double>(s.map_cache.lookups));
  put(m, "cache.evictions", static_cast<double>(s.map_cache.evictions));
  put(m, "cache.modeled_ms_saved", s.map_cache.modeled_seconds_saved * 1e3);
  put(m, "cache.build_wall_ms", traced.host_cache.build_wall_seconds * 1e3);
  put(m, "cache.build_wall_saved_ms",
      traced.host_cache.build_wall_seconds_saved * 1e3);
  put(m, "serve.queue_wait_ms_p50", s.queue_wait_p50_seconds * 1e3);
  put(m, "serve.queue_wait_ms_p99", s.queue_wait_p99_seconds * 1e3);
  put(m, "serve.e2e_ms_p99", s.e2e_p99_seconds * 1e3);
  put(m, "serve.modeled_throughput_rps", s.throughput_fps);
  put(m, "serve.batch_size_mean", s.mean_batch_size);
  put(m, "serve.batches", static_cast<double>(s.batches));
  double umin = 1, umax = 0;
  for (const sv::DeviceShardStats& d : s.per_device) {
    umin = std::min(umin, d.utilization);
    umax = std::max(umax, d.utilization);
  }
  put(m, "serve.device_util_min", s.per_device.empty() ? 0.0 : umin);
  put(m, "serve.device_util_max", umax);
  put(m, "serve.retries", static_cast<double>(s.retries));
  put(m, "serve.redispatched_batches",
      static_cast<double>(s.redispatched_batches));
  auto class_p90 = [&](sv::Priority p) {
    const auto c = static_cast<std::size_t>(p);
    return c < s.per_class.size() ? s.per_class[c].e2e_p90_seconds * 1e3 : 0.0;
  };
  put(m, "serve.class_high.e2e_ms_p90", class_p90(sv::Priority::kHigh));
  put(m, "serve.class_low.e2e_ms_p90", class_p90(sv::Priority::kLow));
  std::vector<double> submit_us = tracer.durations_ms("serve.submit_to");
  for (double& v : submit_us) v *= 1e3;
  std::sort(submit_us.begin(), submit_us.end());
  if (!submit_us.empty()) {
    put(m, "serve.submit_us_p50", nearest_rank(submit_us, 0.5));
    put(m, "serve.submit_us_p99", nearest_rank(submit_us, 0.99));
  }
  put(m, "serve.drain_ms", mean(tracer.durations_ms("serve.drain")));
  put(m, "data.make_input_ms", mean(st.trace_frame_ms));
  put(m, "tune.wall_s", mean(tracer.durations_ms("tune.tune_for")) / 1e3);
  put(m, "trace.overhead_frac", traced.wall_s / passes[1].wall_s - 1.0);
  put(m, "host.calibration_ms", cal.median_ms());
  return r;
}

/// Submission rates, sized against the modeled capacity of the two-shard
/// fleet at kServeScale.
constexpr double kSteadyRateHz = 350.0;  // per model
constexpr double kBurstRateHz = 1000.0;  // per model, inside ON windows

sv::SequenceTraceSpec trace_for(int model, int sequences, int frames,
                                int revisits) {
  sv::SequenceTraceSpec t;
  t.lidar = model_lidar(model);
  t.voxels = model_voxels(model);
  t.sequences = sequences;
  t.frames_per_sequence = frames;
  t.revisits = revisits;
  t.shuffled = false;
  return t;
}

}  // namespace

RunResult run_serve_steady(const RunArgs& args, Tracer& tracer) {
  ServeSpec spec;
  spec.name = "serve-steady";
  spec.map_cache_bytes = std::size_t(64) << 20;
  spec.slo_seconds = 0.050;
  for (int model = 0; model < 2; ++model) {
    StreamDef d;
    d.model = model;
    d.arrivals.process = sv::ArrivalProcess::kPoisson;
    d.arrivals.rate_hz = kSteadyRateHz;
    d.trace = trace_for(model, 29, 6, 3);  // 522 requests, 174 frames
    spec.streams.push_back(d);
  }
  return run_serve(spec, args, tracer);
}

RunResult run_serve_burst(const RunArgs& args, Tracer& tracer) {
  ServeSpec spec;
  spec.name = "serve-burst";
  spec.map_cache_bytes = std::size_t(2) << 20;
  spec.slo_seconds = 0.040;
  // Per model: 20% high, 50% normal, 30% low priority, all unique frames.
  const std::pair<sv::Priority, int> classes[] = {
      {sv::Priority::kHigh, 21}, {sv::Priority::kNormal, 53},
      {sv::Priority::kLow, 32}};
  for (int model = 0; model < 2; ++model)
    for (const auto& [priority, sequences] : classes) {
      StreamDef d;
      d.model = model;
      d.priority = priority;
      d.arrivals.process = sv::ArrivalProcess::kBursty;
      d.arrivals.rate_hz = kBurstRateHz * sequences / 106.0;
      // Dyadic window lengths (7.8 ms on, 15.6 ms off) keep the
      // generator's window arithmetic exact.
      d.arrivals.on_seconds = 0x1p-7;
      d.arrivals.off_seconds = 0x1p-6;
      d.trace = trace_for(model, sequences, 5, 1);  // 530 per model
      spec.streams.push_back(d);
    }
  // The crash lands at the start of the fifth burst, so every seed loses
  // the shard under the same load.
  sv::DeviceFault crash{1, sv::FaultKind::kCrash};
  crash.at_seconds = 4 * (0x1p-7 + 0x1p-6);
  crash.duration_seconds = 0.020;  // replacement shard after 20 ms
  spec.faults = std::make_shared<const sv::FaultPlan>(sv::FaultPlan{{crash}});
  return run_serve(spec, args, tracer);
}

}  // namespace perfbench
