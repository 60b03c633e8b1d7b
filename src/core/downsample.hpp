// Output coordinate calculation for strided convolutions
// (paper §2.1.1, Appendix A Alg. 3, and the kernel fusion of §4.4/Fig. 10).
//
// Each input point dilates by every kernel offset; candidates that pass
// the modular check (divisible by stride) and the boundary check are
// converted to 1-D keys and deduplicated. The baseline runs the five
// stages as separate kernels with DRAM-resident intermediates; the
// optimized version fuses stages 1-4 into one kernel holding intermediates
// in registers, eliminating all intermediate DRAM traffic.
//
// On the host, the sweep that finds the surviving candidates has found
// every (input, offset, output) triple of the strided layer's kernel map
// too: downsample_level_with_map keeps them and emits that map. The conv
// path resolves a strided layer's coordinates and map together and
// passes the emitted map straight to the layer's map resolution, which
// takes it in place of the merge-join (core/conv3d.cpp). This is host
// work only and runs under both modeled pipelines; it is not the modeled
// EngineConfig::fused_downsample.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/kernel_map.hpp"
#include "core/level_keys.hpp"
#include "hash/coords.hpp"

namespace ts {

/// Instrumentation from one output-coordinate computation, consumed by the
/// mapping cost model.
struct DownsampleCounters {
  std::size_t kernel_launches = 0;
  double dram_bytes = 0;   // all reads+writes incl. intermediates
  double instr_ops = 0;    // arithmetic/control operations executed
  std::size_t candidates = 0;  // Nin * kernel_volume
  std::size_t kept = 0;        // candidates surviving both checks
};

/// Computes P_out for a strided conv (Alg. 3): candidates u = p - delta
/// with u % s == 0 and u within the input bounding box, deduplicated and
/// returned in sorted (b,x,y,z) order. `fused` selects the single-kernel
/// implementation; `simplified_control` models the §4.4 control-logic
/// simplification + loop unrolling. Both variants return identical
/// coordinates — only the counters differ. Throws std::invalid_argument
/// for a kernel size below 1 or a stride below 2.
std::vector<Coord> downsample_coords(const std::vector<Coord>& in,
                                     int kernel_size, int stride, bool fused,
                                     bool simplified_control,
                                     DownsampleCounters* counters = nullptr);

/// The output of downsample_coords together with its level record: the
/// sorted unique keys the computation ends in, with their bounds.
struct DownsampledLevel {
  std::vector<Coord> coords;
  LevelKeys keys;
  /// Set by downsample_level_with_map only: the strided layer's kernel
  /// map from the input to `coords`.
  std::optional<KernelMap> map;
};

/// downsample_coords, also returning the output's level record. `in_level`,
/// when non-null, must be level_keys(in); its bounds replace a pass over
/// `in`.
DownsampledLevel downsample_level(const std::vector<Coord>& in,
                                  const LevelKeys* in_level, int kernel_size,
                                  int stride, bool fused,
                                  bool simplified_control,
                                  DownsampleCounters* counters = nullptr);

/// True when downsample_level_with_map can emit the map of a downsample
/// of `n_in` points with this kernel size: every (input, offset)
/// candidate needs an int32 index.
bool downsample_map_fits(std::size_t n_in, int kernel_size);

/// downsample_level, also emitting the strided layer's kernel map: what
/// build_kernel_map(in, coords, {kernel_size, stride}, grid backend)
/// returns, entry for entry and in the same order, each offset's entries
/// at exact capacity, with equal MapBuildStats. A duplicated input
/// coordinate contributes its first (lowest) position, as in the
/// merge-join. Coordinates, level record and counters equal
/// downsample_level's. Throws std::invalid_argument as downsample_level
/// does, and unless downsample_map_fits(in.size(), kernel_size).
DownsampledLevel downsample_level_with_map(
    const std::vector<Coord>& in, const LevelKeys* in_level, int kernel_size,
    int stride, bool fused, bool simplified_control,
    DownsampleCounters* counters = nullptr);

}  // namespace ts
