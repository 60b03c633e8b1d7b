// Figure 16 (repo extension): cross-request kernel-map cache sweep —
// duplicate fraction x cache byte budget x worker count on a streaming
// MinkUNet serve.
//
// The paper shows map construction dominating sparse-conv serving cost;
// the KernelMapCache amortizes it across near-duplicate scans (same
// coordinate set => content-keyed hit, bit-identical results). This
// sweep quantifies the modeled effect and pins it with sanity anchors:
//   A1  0% duplicates  => cache invisible (mapping time bit-equal to off)
//   A2  100% duplicates => mapping time amortized away (< 0.2x of off)
//   A3  modeled stats identical for 1 vs 4 workers (deterministic
//       submission-order accounting)
//   A4  sub-entry byte budget => no hits, mapping bit-equal to off
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/workloads.hpp"
#include "gpusim/device.hpp"
#include "serve/server.hpp"

using namespace ts;

namespace {

struct Cell {
  double mapping_ms = 0;
  double total_ms = 0;
  double hit_rate = 0;
  double fps = 0;
  double wall_ms = 0;
};

Cell run_cell(const Workload& w, const std::vector<SparseTensor>& stream,
              std::size_t budget, int workers) {
  RunOptions run;
  run.borrow_input = true;  // the session queue owns the stream copies
  serve::ServerConfig cfg;
  cfg.with_device(rtx2080ti())
      .with_engine(torchsparse_config())
      .with_workers(workers)
      .with_run(run)
      .with_map_cache_bytes(budget)
      .with_queue_depth(stream.size() + 1);
  serve::Server server(cfg);
  const bench::WallTimer wall;
  server.start(w.model);
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit(stream[i], 0.002 * static_cast<double>(i));
  const serve::StreamReport rep = server.drain();
  Cell c;
  c.mapping_ms = rep.stats.aggregate.stage_seconds(Stage::kMapping) * 1e3;
  c.total_ms = rep.stats.aggregate.total_seconds() * 1e3;
  c.hit_rate = rep.stats.map_cache.hit_rate();
  c.fps = rep.stats.throughput_fps;
  c.wall_ms = wall.seconds() * 1e3;
  return c;
}

bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

}  // namespace

int main() {
  bench::header(
      "Figure 16: cross-request kernel-map cache",
      "repo extension of paper SS4.4 — duplicate fraction x cache budget "
      "x workers on streaming MinkUNet serve");
  bench::note(
      "mapping/hit-rate columns are modeled and deterministic "
      "(submission-order cache accounting); wall ms is host time");

  const uint64_t seed = 20260731;
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

  const std::size_t kBigBudget = std::size_t(256) << 20;
  const std::size_t kTinyBudget = 1 << 10;  // smaller than any map entry
  const double dups[] = {0.0, 0.5, 1.0};
  const std::size_t budgets[] = {0, std::size_t(16) << 20, kBigBudget};
  const int workers[] = {1, 4};

  auto make_stream = [&](double dup) {
    // dup-fraction d => ceil((1-d)*R) distinct scans cycled round-robin.
    const int n_unique = std::max(
        1, static_cast<int>(std::lround((1.0 - dup) * requests)));
    std::vector<SparseTensor> stream;
    for (int i = 0; i < requests; ++i)
      stream.push_back(unique_scans[static_cast<std::size_t>(i % n_unique)]);
    return stream;
  };

  std::printf("\n%-6s %-10s %-8s %10s %10s %9s %9s %9s\n", "dup", "budget",
              "workers", "map ms", "total ms", "hit rate", "fps",
              "wall ms");
  Cell off_by_dup[3], big_w1_by_dup[3], big_w4_by_dup[3];
  for (std::size_t di = 0; di < 3; ++di) {
    const auto stream = make_stream(dups[di]);
    for (std::size_t budget : budgets) {
      for (int wk : workers) {
        const Cell c = run_cell(w, stream, budget, wk);
        std::printf("%-6.2f %-10s %-8d %10.3f %10.3f %9.2f %9.1f %9.1f\n",
                    dups[di],
                    budget == 0 ? "off"
                                : (budget == kBigBudget ? "256M" : "16M"),
                    wk, c.mapping_ms, c.total_ms, c.hit_rate, c.fps,
                    c.wall_ms);
        if (budget == 0 && wk == 4) off_by_dup[di] = c;
        if (budget == kBigBudget && wk == 1) big_w1_by_dup[di] = c;
        if (budget == kBigBudget && wk == 4) big_w4_by_dup[di] = c;
      }
    }
  }
  const Cell tiny = run_cell(w, make_stream(1.0), kTinyBudget, 4);

  bench::metric("fig16.dup0_mapping_ms_off", off_by_dup[0].mapping_ms);
  bench::metric("fig16.dup0_mapping_ms_on", big_w4_by_dup[0].mapping_ms);
  bench::metric("fig16.dup100_mapping_ms_off", off_by_dup[2].mapping_ms);
  bench::metric("fig16.dup100_mapping_ms_on", big_w4_by_dup[2].mapping_ms);
  bench::metric("fig16.dup100_hit_rate", big_w4_by_dup[2].hit_rate);
  bench::metric("fig16.dup50_mapping_ms_on", big_w4_by_dup[1].mapping_ms);
  bench::metric("wall_fig16.dup100_on_ms", big_w4_by_dup[2].wall_ms);
  bench::metric("wall_fig16.dup100_off_ms", off_by_dup[2].wall_ms);

  std::printf("\n--- sanity anchors ---\n");
  bool ok = true;
  auto anchor = [&](const char* name, bool pass) {
    std::printf("%-58s %s\n", name, pass ? "OK" : "FAIL");
    ok = ok && pass;
  };
  anchor("A1: 0% duplicates — cache-on mapping == cache-off (bit-equal)",
         close_rel(big_w4_by_dup[0].mapping_ms, off_by_dup[0].mapping_ms,
                   1e-12));
  anchor("A2: 100% duplicates — mapping amortized (< 0.2x of off)",
         big_w4_by_dup[2].mapping_ms < 0.2 * off_by_dup[2].mapping_ms);
  anchor("A3: modeled stats worker-invariant (w1 == w4, 100% dup)",
         close_rel(big_w1_by_dup[2].mapping_ms, big_w4_by_dup[2].mapping_ms,
                   1e-12) &&
             close_rel(big_w1_by_dup[2].total_ms, big_w4_by_dup[2].total_ms,
                       1e-12));
  anchor("A4: sub-entry budget — no hits, mapping == off",
         tiny.hit_rate == 0.0 &&
             close_rel(tiny.mapping_ms, off_by_dup[2].mapping_ms, 1e-12));
  return ok ? 0 : 1;
}
