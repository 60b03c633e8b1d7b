// Output coordinate calculation for strided convolutions
// (paper §2.1.1, Appendix A Alg. 3, and the kernel fusion of §4.4/Fig. 10).
//
// Each input point dilates by every kernel offset; candidates that pass
// the modular check (divisible by stride) and the boundary check are
// converted to 1-D keys and deduplicated. The baseline runs the five
// stages as separate kernels with DRAM-resident intermediates; the
// optimized version fuses stages 1-4 into one kernel holding intermediates
// in registers, eliminating all intermediate DRAM traffic.
#pragma once

#include <cstddef>
#include <vector>

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
};

/// downsample_coords, also returning the output's level record. `in_level`,
/// when non-null, must be level_keys(in); its bounds replace a pass over
/// `in`.
DownsampledLevel downsample_level(const std::vector<Coord>& in,
                                  const LevelKeys* in_level, int kernel_size,
                                  int stride, bool fused,
                                  bool simplified_control,
                                  DownsampleCounters* counters = nullptr);

}  // namespace ts
