// Figure 22 (repo extension): multi-model serving under trace-driven
// traffic — a model-mix x trace-shape x fleet sweep over the registry
// server (ServerConfig::with_model + submit_to) fed by the deterministic
// arrival generators and SequenceTrace replays in serve/traffic.hpp.
//
// The scenario co-hosts a MinkUNet segmentation model and a CenterPoint
// detection model on one fleet and drives them with Poisson, bursty
// on/off, and diurnal-ramp arrival processes composed by
// build_traffic_mix. Per-model SLOs, deficit-round-robin fairness, and
// namespaced kernel-map caching are all exercised by the sweep; the
// coherent-vs-shuffled trace pair isolates what drive-order locality is
// worth to a capacity-bounded cache.
// Sanity anchors (nonzero exit on failure):
//   A1  a one-entry registry served through submit_to is bit-equal to
//       a start(model) session fed through submit on the same arrival
//       schedule
//   A2  DRR fairness bounds the per-model e2e p99 spread between two
//       symmetric-cost models under bursty overload, and a 4x DRR
//       weight buys the weighted model a no-worse p99
//   A3  the coherent (drive-order) trace beats the shuffled replay on
//       warm hit rate through the same capacity-bounded cache, at equal
//       request multiset
//   A4  per-model counts, cache accounting, and the aggregate timeline
//       are worker-invariant; per-model admission counts are
//       device-invariant
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "data/lidar.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

using namespace ts;

namespace {

struct Cell {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  double e2e_p99_ms = 0;
  double mapping_ms = 0;
  double total_ms = 0;
  double hit_rate = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t lookups = 0;
  std::vector<serve::ModelStats> per_model;
  double wall_ms = 0;
};

Cell summarize(const serve::StreamReport& rep, double wall_seconds) {
  Cell c;
  c.completed = rep.stats.completed;
  c.failed = rep.stats.failed;
  c.rejected = rep.stats.rejected;
  c.e2e_p99_ms = rep.stats.e2e_p99_seconds * 1e3;
  c.mapping_ms = rep.stats.aggregate.stage_seconds(Stage::kMapping) * 1e3;
  c.total_ms = rep.stats.aggregate.total_seconds() * 1e3;
  c.hit_rate = rep.stats.map_cache.hit_rate();
  c.hits = rep.stats.map_cache.hits;
  c.misses = rep.stats.map_cache.misses;
  c.lookups = rep.stats.map_cache.lookups;
  c.per_model = rep.stats.per_model;
  c.wall_ms = wall_seconds * 1e3;
  return c;
}

/// Serves a composed traffic mix through a registry server. The mix's
/// stream index selects the input vector; stream_pos selects the frame.
Cell run_mix(serve::ServerConfig cfg,
             const std::vector<serve::TimedSubmission>& mix,
             const std::vector<const std::vector<SparseTensor>*>& inputs) {
  cfg.with_queue_depth(mix.size() + 1);
  cfg.run.borrow_input = true;  // queue owns the submitted copies
  serve::Server server(std::move(cfg));
  const bench::WallTimer wall;
  server.start();
  for (const serve::TimedSubmission& s : mix)
    server.submit_to(s.model, (*inputs[s.stream])[s.stream_pos],
                     s.arrival_seconds, s.priority);
  return summarize(server.drain(), wall.seconds());
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

/// Full modeled equality for A1: counts, cache accounting, timeline,
/// and the latency tail, to modeled-bit precision.
bool same_modeled(const Cell& a, const Cell& b) {
  return a.completed == b.completed && a.failed == b.failed &&
         a.rejected == b.rejected && a.hits == b.hits &&
         a.misses == b.misses &&
         close_rel(a.mapping_ms, b.mapping_ms, 1e-12) &&
         close_rel(a.total_ms, b.total_ms, 1e-12) &&
         close_rel(a.e2e_p99_ms, b.e2e_p99_ms, 1e-12);
}

/// The worker-invariant per-model subset: admission and cache counts.
/// Wait/e2e percentiles are deliberately excluded — `workers` is the
/// modeled lanes-per-device knob, so the latency schedule legitimately
/// rides on it (same contract the fig21/streaming suites pin).
bool same_model_accounting(const Cell& a, const Cell& b) {
  if (a.per_model.size() != b.per_model.size()) return false;
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    const serve::ModelStats& x = a.per_model[m];
    const serve::ModelStats& y = b.per_model[m];
    if (x.model != y.model || x.completed != y.completed ||
        x.failed != y.failed || x.retries != y.retries ||
        x.rejected != y.rejected || x.cache_hits != y.cache_hits ||
        x.cache_lookups != y.cache_lookups)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::header(
      "Figure 22: multi-model serving under trace-driven traffic",
      "repo extension — MinkUNet + CenterPoint co-hosted on one fleet, "
      "driven by Poisson / bursty / diurnal traces with DRR fairness and "
      "namespaced kernel-map caching");
  bench::note(
      "arrival schedules come from serve/traffic.hpp generators (modeled "
      "clock, seeded) — every column below is deterministic except wall ms");

  const uint64_t seed = 20260808;
  const double scale = bench::env_scale(0.35);
  Workload seg = make_minkunet_workload("SK-MinkUNet (0.5x)", "SemanticKITTI",
                                        0.5, 1, seed, scale,
                                        /*tune_sample_count=*/1);
  Workload det = make_centerpoint_workload("Waymo-CenterPoint (1f)", "Waymo",
                                           1, seed + 1, scale,
                                           /*tune_sample_count=*/1);

  // --- Sequence traces: each model replays its own synthetic drive. ---
  auto scaled = [&](LidarSpec lidar) {
    lidar.azimuth_steps =
        std::max(32, static_cast<int>(lidar.azimuth_steps * scale));
    return lidar;
  };
  serve::SequenceTraceSpec seg_trace;
  seg_trace.lidar = scaled(semantic_kitti_spec());
  seg_trace.voxels = segmentation_voxels();
  seg_trace.sequences = 2;
  seg_trace.frames_per_sequence = 4;
  seg_trace.revisits = 2;
  serve::SequenceTraceSpec det_trace = seg_trace;
  det_trace.lidar = scaled(waymo_spec(1));
  det_trace.voxels = detection_voxels();
  det_trace.voxels.feature_channels = 5;  // CenterPoint input width

  auto materialize = [&](const serve::SequenceTraceSpec& spec,
                         uint64_t trace_seed) {
    std::vector<SparseTensor> frames;
    const std::size_t n = serve::trace_length(spec);
    frames.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
      frames.push_back(serve::trace_frame(spec, k, trace_seed).input);
    return frames;
  };
  const std::vector<SparseTensor> seg_frames = materialize(seg_trace, seed);
  const std::vector<SparseTensor> det_frames =
      materialize(det_trace, seed + 9);
  serve::SequenceTraceSpec seg_shuffled = seg_trace;
  seg_shuffled.shuffled = true;
  const std::vector<SparseTensor> seg_frames_shuffled =
      materialize(seg_shuffled, seed);
  const std::size_t per_model = seg_frames.size();
  std::printf("traces: %zu frames per model (%d seq x %d frames x %d "
              "revisits), ~%zu / ~%zu voxels per scan\n",
              per_model, seg_trace.sequences, seg_trace.frames_per_sequence,
              seg_trace.revisits, seg_frames[0].num_points(),
              det_frames[0].num_points());

  // --- Traffic shapes (rates sized against ~ms modeled service). ------
  serve::TrafficSpec poisson;
  poisson.process = serve::ArrivalProcess::kPoisson;
  poisson.rate_hz = 800.0;
  serve::TrafficSpec bursty;
  bursty.process = serve::ArrivalProcess::kBursty;
  bursty.rate_hz = 3000.0;
  bursty.on_seconds = 0.004;
  bursty.off_seconds = 0.008;
  serve::TrafficSpec diurnal;
  diurnal.process = serve::ArrivalProcess::kDiurnal;
  diurnal.rate_hz = 2000.0;
  diurnal.period_seconds = 0.05;
  diurnal.trough_fraction = 0.1;

  const std::size_t kBudget = std::size_t(256) << 20;
  auto base_cfg = [&](int workers, int devices) {
    serve::ServerConfig cfg;
    cfg.with_device(rtx2080ti())
        .with_engine(torchsparse_config())
        .with_workers(workers)
        .with_devices(devices)
        .with_route(serve::RoutePolicy::kCacheAffinity)
        .with_map_cache_bytes(kBudget);
    return cfg;
  };
  auto two_model_cfg = [&](int workers, int devices) {
    return base_cfg(workers, devices)
        .with_model("minkunet", seg.model)
        .with_model("centerpoint", det.model);
  };
  auto mix_for = [&](const serve::TrafficSpec& shape, bool with_det) {
    std::vector<serve::ModelTraffic> streams;
    serve::ModelTraffic s0;
    s0.model = 0;
    s0.arrivals = shape;
    s0.count = per_model;
    streams.push_back(s0);
    if (with_det) {
      serve::ModelTraffic s1;
      s1.model = 1;
      s1.arrivals = shape;
      s1.count = per_model;
      streams.push_back(s1);
    }
    return serve::build_traffic_mix(streams, seed + 21);
  };

  // --- A1: one-entry registry vs a start(model) + submit session. ----
  const std::vector<double> solo_arrivals =
      serve::generate_arrivals(poisson, per_model, seed + 33);
  Cell solo_start, solo_registry;
  {
    serve::ServerConfig cfg = base_cfg(4, 2);
    cfg.with_queue_depth(per_model + 1);
    cfg.run.borrow_input = true;
    serve::Server server(std::move(cfg));
    const bench::WallTimer wall;
    server.start(seg.model);
    for (std::size_t i = 0; i < per_model; ++i)
      server.submit(seg_frames[i], solo_arrivals[i]);
    solo_start = summarize(server.drain(), wall.seconds());
  }
  {
    serve::ServerConfig cfg =
        base_cfg(4, 2).with_model("minkunet", seg.model);
    cfg.with_queue_depth(per_model + 1);
    cfg.run.borrow_input = true;
    serve::Server server(std::move(cfg));
    const bench::WallTimer wall;
    server.start();
    for (std::size_t i = 0; i < per_model; ++i)
      server.submit_to(0, seg_frames[i], solo_arrivals[i]);
    solo_registry = summarize(server.drain(), wall.seconds());
  }

  // --- Model-mix x trace-shape sweep (2 devices, 4 workers). ----------
  const std::vector<const std::vector<SparseTensor>*> solo_inputs{
      &seg_frames};
  const std::vector<const std::vector<SparseTensor>*> mixed_inputs{
      &seg_frames, &det_frames};
  const Cell solo_det = run_mix(
      base_cfg(4, 2).with_model("centerpoint", det.model),
      mix_for(poisson, false), {&det_frames});
  const Cell mixed_poisson =
      run_mix(two_model_cfg(4, 2), mix_for(poisson, true), mixed_inputs);
  const Cell mixed_bursty =
      run_mix(two_model_cfg(4, 2), mix_for(bursty, true), mixed_inputs);
  const Cell mixed_diurnal =
      run_mix(two_model_cfg(4, 2), mix_for(diurnal, true), mixed_inputs);

  // --- Fleet / worker variants of the diurnal mix (A4). ---------------
  const Cell diurnal_w1 =
      run_mix(two_model_cfg(1, 2), mix_for(diurnal, true), mixed_inputs);
  const Cell diurnal_d1 =
      run_mix(two_model_cfg(4, 1), mix_for(diurnal, true), mixed_inputs);

  // --- A2: DRR fairness under bursty overload. ------------------------
  // Two entries sharing one network (symmetric modeled cost) so any p99
  // spread is scheduling, not workload. Overload: single device, both
  // streams bursting at once.
  auto fairness_mix = mix_for(bursty, true);
  const std::vector<const std::vector<SparseTensor>*> fair_inputs{
      &seg_frames, &seg_frames};
  const Cell fair_equal = run_mix(
      base_cfg(4, 1)
          .with_model("seg-a", seg.model)
          .with_model("seg-b", seg.model),
      fairness_mix, fair_inputs);
  const Cell fair_weighted = run_mix(
      base_cfg(4, 1)
          .with_model("seg-a", seg.model, /*slo_budget_seconds=*/-1,
                      serve::Priority::kNormal, /*weight=*/4.0)
          .with_model("seg-b", seg.model),
      fairness_mix, fair_inputs);

  // --- A3: coherent vs shuffled trace through a bounded cache. --------
  // The cache holds only a slice of the trace's unique maps, so the
  // shuffled order (repeats maximally far apart) churns entries the
  // coherent order (repeats back to back) retains.
  const std::size_t kSmallBudget = std::size_t(2) << 20;
  auto trace_cfg = [&] {
    return base_cfg(4, 2)
        .with_model("minkunet", seg.model)
        .with_map_cache_bytes(kSmallBudget);
  };
  const Cell coherent =
      run_mix(trace_cfg(), mix_for(poisson, false), solo_inputs);
  const Cell shuffled = run_mix(trace_cfg(), mix_for(poisson, false),
                                {&seg_frames_shuffled});

  // --- Report. --------------------------------------------------------
  std::printf("\n%-22s %5s %5s %9s %9s %9s %9s %8s\n", "cell", "done",
              "rej", "e2e p99", "seg p99", "det p99", "hit rate",
              "wall ms");
  auto row = [](const char* name, const Cell& c) {
    const double seg_p99 =
        c.per_model.empty() ? 0 : c.per_model[0].e2e_p99_seconds * 1e3;
    const double det_p99 =
        c.per_model.size() < 2 ? 0 : c.per_model[1].e2e_p99_seconds * 1e3;
    std::printf("%-22s %5zu %5zu %9.3f %9.3f %9.3f %9.2f %8.1f\n", name,
                c.completed, c.rejected, c.e2e_p99_ms, seg_p99, det_p99,
                c.hit_rate, c.wall_ms);
  };
  row("solo seg (registry)", solo_registry);
  row("solo det (registry)", solo_det);
  row("mixed, poisson", mixed_poisson);
  row("mixed, bursty", mixed_bursty);
  row("mixed, diurnal", mixed_diurnal);
  row("mixed, diurnal, 1 dev", diurnal_d1);
  row("fair burst, w 1:1", fair_equal);
  row("fair burst, w 4:1", fair_weighted);
  row("coherent trace", coherent);
  row("shuffled trace", shuffled);

  const double fair_a = fair_equal.per_model[0].e2e_p99_seconds * 1e3;
  const double fair_b = fair_equal.per_model[1].e2e_p99_seconds * 1e3;
  const double spread =
      std::abs(fair_a - fair_b) / std::max(fair_a, fair_b);
  std::printf("fairness: equal-weight p99 %.3f / %.3f ms (spread %.1f%%), "
              "4:1 weight p99 %.3f / %.3f ms\n",
              fair_a, fair_b, spread * 100,
              fair_weighted.per_model[0].e2e_p99_seconds * 1e3,
              fair_weighted.per_model[1].e2e_p99_seconds * 1e3);

  bench::metric("fig22.solo_seg_e2e_p99_ms", solo_registry.e2e_p99_ms);
  bench::metric("fig22.mixed_poisson_e2e_p99_ms", mixed_poisson.e2e_p99_ms);
  bench::metric("fig22.mixed_bursty_e2e_p99_ms", mixed_bursty.e2e_p99_ms);
  bench::metric("fig22.mixed_diurnal_e2e_p99_ms", mixed_diurnal.e2e_p99_ms);
  bench::metric("fig22.mixed_diurnal_seg_p99_ms",
                mixed_diurnal.per_model[0].e2e_p99_seconds * 1e3);
  bench::metric("fig22.mixed_diurnal_det_p99_ms",
                mixed_diurnal.per_model[1].e2e_p99_seconds * 1e3);
  bench::metric("fig22.fairness_p99_spread_frac", spread);
  bench::metric("fig22.coherent_hit_rate", coherent.hit_rate);
  bench::metric("fig22.shuffled_hit_rate", shuffled.hit_rate);
  bench::metric("wall_fig22.mixed_diurnal_ms", mixed_diurnal.wall_ms);

  std::printf("\n--- sanity anchors ---\n");
  bool ok = true;
  auto anchor = [&](const char* name, bool pass) {
    std::printf("%-58s %s\n", name, pass ? "OK" : "FAIL");
    ok = ok && pass;
  };
  anchor("A1: one-entry registry bit-equal to legacy server",
         same_modeled(solo_start, solo_registry) &&
             solo_registry.per_model.size() == 1 &&
             solo_registry.per_model[0].completed == per_model);
  anchor("A2: DRR bounds p99 spread; 4x weight buys no-worse p99",
         spread <= 0.25 &&
             fair_weighted.per_model[0].e2e_p99_seconds <=
                 fair_weighted.per_model[1].e2e_p99_seconds &&
             fair_equal.completed == 2 * per_model);
  anchor("A3: coherent trace beats shuffled on warm hit rate",
         coherent.hit_rate > shuffled.hit_rate &&
             coherent.completed == shuffled.completed &&
             coherent.lookups == shuffled.lookups);
  anchor("A4: per-model accounting worker-invariant; admission "
         "device-invariant",
         same_model_accounting(mixed_diurnal, diurnal_w1) &&
             close_rel(mixed_diurnal.total_ms, diurnal_w1.total_ms, 1e-12) &&
             mixed_diurnal.hits == diurnal_w1.hits &&
             [&] {
               if (diurnal_d1.per_model.size() !=
                   mixed_diurnal.per_model.size())
                 return false;
               for (std::size_t m = 0; m < diurnal_d1.per_model.size(); ++m)
                 if (diurnal_d1.per_model[m].completed !=
                         mixed_diurnal.per_model[m].completed ||
                     diurnal_d1.per_model[m].failed !=
                         mixed_diurnal.per_model[m].failed ||
                     diurnal_d1.per_model[m].rejected !=
                         mixed_diurnal.per_model[m].rejected)
                   return false;
               return true;
             }());
  return ok ? 0 : 1;
}
