// Cost charging for the mapping stage (paper §4.4, Fig. 13).
//
// Mapping = output-coordinate construction + map search. Both are
// memory/instruction-bound kernels; their modeled time is
// launch + max(DRAM time, instruction time). The knobs the paper ablates:
//   - grid vs conventional hashmap (access count AND per-query work)
//   - staged vs fused downsample kernels (intermediate DRAM traffic)
//   - simplified control logic + loop unrolling (per-query instructions)
//   - symmetric map inference (half the queries on submanifold layers)
//
// The downsample, map-build and cache-hit charges come in decomposed form
// (MapCharge, applied with apply_map_charge) so the cross-request
// kernel-map cache can record cold-vs-warm deltas for its deterministic
// deferred accounting (core/kernel_map_cache.hpp).
#pragma once

#include <cstddef>

#include "core/downsample.hpp"
#include "core/exec.hpp"
#include "core/kernel_map.hpp"

namespace ts {

/// One mapping-stage charge, decomposed for deferred accounting.
struct MapCharge {
  double seconds = 0;
  double dram_bytes = 0;
  std::size_t launches = 0;
};

/// Modeled cost of the output-coordinate computation.
MapCharge downsample_charge(const DownsampleCounters& c,
                            const ExecContext& ctx);

/// Modeled cost of index construction + map search. `entries` is the
/// number of map entries written, `n_out` the number of output
/// coordinates scanned.
MapCharge map_build_charge(const MapBuildStats& stats, std::size_t entries,
                           std::size_t n_out, const ExecContext& ctx);

/// Modeled cost of a warm kernel-map-cache hit: re-streaming the
/// coordinate sets to verify the content key plus one cache-index probe
/// (no kernel launch — the digest rides along with host-side intake).
/// The cached product itself is already device-resident — consuming
/// kernels pay for reading it exactly as they do on the cold path.
MapCharge map_cache_hit_charge(std::size_t n_in, std::size_t n_out,
                               const ExecContext& ctx);

/// Adds a mapping-stage charge to ctx.timeline.
void apply_map_charge(const MapCharge& c, ExecContext& ctx);

/// Charges the (cheap) relabeling that reuses a cached downsample map for
/// a transposed convolution.
void charge_map_transpose(std::size_t entries, ExecContext& ctx);

/// Charges an elementwise kernel (BatchNorm, ReLU, residual add...) over
/// a [rows, cols] feature tensor to Stage::kMisc.
void charge_elementwise(std::size_t rows, std::size_t cols,
                        ExecContext& ctx);

}  // namespace ts
