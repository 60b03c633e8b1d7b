#include "core/mapping_cost.hpp"

#include <algorithm>

#include "gpusim/coalesce.hpp"

namespace ts {

namespace {

/// Effective operation throughput of mapping kernels. Map search and
/// candidate filtering are divergent, dependent-access kernels; they
/// sustain roughly one useful operation per SM-cycle rather than a full
/// warp's worth — which is why control-logic simplification and loop
/// unrolling buy the paper a further 1.8x (§4.4, Fig. 13).
double mapping_ops_per_second(const CostModel& cost) {
  const DeviceSpec& d = cost.device();
  return d.num_sms * d.core_clock_ghz * 1e9;
}

}  // namespace

MapCharge downsample_charge(const DownsampleCounters& c,
                            const ExecContext& ctx) {
  MapCharge out;
  out.seconds =
      static_cast<double>(c.kernel_launches) * ctx.cost.launch_seconds() +
      std::max(ctx.cost.dram_seconds(c.dram_bytes),
               c.instr_ops / mapping_ops_per_second(ctx.cost));
  out.dram_bytes = c.dram_bytes;
  out.launches = c.kernel_launches;
  return out;
}

MapCharge map_build_charge(const MapBuildStats& stats, std::size_t entries,
                           std::size_t n_out, const ExecContext& ctx) {
  const bool grid = stats.backend == MapBackend::kGrid;
  const bool simple = ctx.cfg.simplified_control;
  const double ops_rate = mapping_ops_per_second(ctx.cost);

  // Index construction: one random DRAM access per probe; the
  // conventional hashmap additionally computes a hash and runs a probe
  // loop per insert, while the grid flattens the coordinate directly.
  // Dependent random probes run below peak bandwidth.
  const double eff = ctx.cost.device().mapping_efficiency;
  const double build_dram =
      static_cast<double>(stats.build_accesses) * kTransactionBytes / eff;
  const double build_ops =
      static_cast<double>(stats.build_accesses) * (grid ? 6.0 : 40.0);
  const double t_build =
      ctx.cost.launch_seconds() +
      std::max(ctx.cost.dram_seconds(build_dram), build_ops / ops_rate);

  // Map search: every query costs its index accesses in random DRAM
  // transactions plus per-query control work (hash evaluation, probe-loop
  // branching, bounds checks). Control-logic simplification and loop
  // unrolling (§4.4) cut the per-query work; symmetry has already halved
  // `queries` during construction.
  const double ops_per_query =
      grid ? (simple ? 10.0 : 32.0) : (simple ? 30.0 : 56.0);
  const double search_dram =
      static_cast<double>(stats.index_accesses) * kTransactionBytes / eff +
      static_cast<double>(n_out) * 16.0 +    // output coords, streamed
      static_cast<double>(entries) * 8.0;    // map entries written
  const double search_ops =
      static_cast<double>(stats.queries) * ops_per_query;
  const double t_search =
      ctx.cost.launch_seconds() +
      std::max(ctx.cost.dram_seconds(search_dram), search_ops / ops_rate);

  MapCharge out;
  out.seconds = t_build + t_search;
  out.dram_bytes = build_dram + search_dram;
  out.launches = 2;
  return out;
}

MapCharge map_cache_hit_charge(std::size_t n_in, std::size_t n_out,
                               const ExecContext& ctx) {
  // Warm hit: re-stream both coordinate sets once (16 B/coord) to verify
  // the content digest, plus one cache-index probe. The digest is
  // computed where the coordinates already live (it rides along with
  // voxelization/downsampling on the serving host), so a hit launches no
  // extra kernel — the cached product is device-resident and consuming
  // kernels read it exactly as on the cold path.
  const double bytes =
      static_cast<double>(n_in + n_out) * 16.0 + kTransactionBytes;
  MapCharge out;
  out.seconds = ctx.cost.dram_seconds(bytes);
  out.dram_bytes = bytes;
  out.launches = 0;
  return out;
}

void apply_map_charge(const MapCharge& c, ExecContext& ctx) {
  ctx.timeline.add(Stage::kMapping, c.seconds);
  ctx.timeline.add_dram_bytes(c.dram_bytes);
  ctx.timeline.add_kernel_launches(c.launches);
}

void charge_map_transpose(std::size_t entries, ExecContext& ctx) {
  const double bytes = static_cast<double>(entries) * 16.0;  // read + write
  const double t = ctx.cost.launch_seconds() + ctx.cost.dram_seconds(bytes);
  ctx.timeline.add(Stage::kMapping, t);
  ctx.timeline.add_dram_bytes(bytes);
  ctx.timeline.add_kernel_launches(1);
}

void charge_elementwise(std::size_t rows, std::size_t cols,
                        ExecContext& ctx) {
  const double bytes =
      2.0 * static_cast<double>(rows) * static_cast<double>(cols) *
      static_cast<double>(bytes_per_channel(ctx.cfg.precision));
  const double t = ctx.cost.launch_seconds() + ctx.cost.dram_seconds(bytes);
  ctx.timeline.add(Stage::kMisc, t);
  ctx.timeline.add_dram_bytes(bytes);
  ctx.timeline.add_kernel_launches(1);
}

}  // namespace ts
