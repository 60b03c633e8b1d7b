// Data orchestration: gather and scatter-accumulate (paper §2.2, §4.3).
//
// Numerics: `gather_owned_rows` / `scatter_add_owned_rows` implement
// Alg. 2's data movement for the owner of a range of output rows, the
// host's output-stationary form (results are independent of the
// access-order optimizations, which only change *when* bytes move).
//
// Cost: `charge_gather_scatter` replays the layer's real access streams —
// in the order the configured variant would issue them — through the
// transaction coalescing model and the L2 cache simulator, and charges the
// resulting kernel times to the timeline. The four variants are the rows
// of the paper's Table 3:
//   scalar FP32            (baseline)
//   scalar FP16            (quantized only: txn count unchanged, ~1.2x)
//   vectorized FP16        (txn count halved, ~1.9x)
//   + fused                (fewer launches; cache still thrashed, ~2.0x)
//   + locality-aware       (input-/output-stationary, ~2.7x)
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/exec.hpp"
#include "core/kernel_map.hpp"
#include "tensor/matrix.hpp"

namespace ts {

/// Gathers for the owner of output rows [r0, r1): walks the map from
/// entry `next` on, in map order, and for each entry whose .out lies in
/// the range copies src row .in into the next src.cols()-float row of
/// `dst` and records .out in `rows`. Stops once `cap` rows are copied or
/// at the map's end, leaves `next` after the last entry walked, and
/// returns the rows copied.
std::size_t gather_owned_rows(const Matrix& src,
                              const std::vector<MapEntry>& map,
                              std::size_t& next, std::size_t r0,
                              std::size_t r1, std::size_t cap, float* dst,
                              int32_t* rows);

/// dst[rows[i]] += psum row i for i = 0 .. count - 1 in order; psum rows
/// have dst.cols() floats.
void scatter_add_owned_rows(const float* psum, const int32_t* rows,
                            std::size_t count, Matrix& dst);

/// Models the full data-movement cost of one sparse conv layer and adds
/// gather/scatter kernel times to ctx.timeline. `move_offsets` lists the
/// kernel-offset indices whose maps actually move data (the center offset
/// is excluded when EngineConfig::skip_center_movement is set).
void charge_gather_scatter(const KernelMap& km,
                           const std::vector<int>& move_offsets,
                           std::size_t n_in, std::size_t n_out,
                           std::size_t c_in, std::size_t c_out,
                           ExecContext& ctx);

}  // namespace ts
