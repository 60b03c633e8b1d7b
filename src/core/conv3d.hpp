// Sparse 3-D convolution orchestration (paper §4.1 "Conv3d is decomposed
// to output construction, mapping operations and gather-matmul-scatter").
#pragma once

#include <vector>

#include "core/conv_config.hpp"
#include "core/exec.hpp"
#include "core/kernel_map.hpp"
#include "core/sparse_tensor.hpp"
#include "tensor/host_pool.hpp"
#include "tensor/matrix.hpp"

namespace ts {

/// Parameters of one sparse convolution layer: geometry plus per-offset
/// weight matrices W_delta of shape [C_in, C_out] (paper §2).
struct Conv3dParams {
  ConvGeometry geom;
  std::vector<Matrix> weights;  // [kernel_volume], each C_in x C_out

  std::size_t in_channels() const {
    return weights.empty() ? 0 : weights.front().rows();
  }
  std::size_t out_channels() const {
    return weights.empty() ? 0 : weights.front().cols();
  }
};

/// Runs one sparse convolution: output construction, mapping (with cache
/// reuse), then the configured dataflow (grouped gather-matmul-scatter or
/// fetch-on-demand). Numerics are exact; every kernel's modeled cost is
/// charged to ctx.timeline. A cost-only pass (ctx.compute_numerics off)
/// returns a feature-less tensor; a numerics pass throws
/// std::invalid_argument if `x` has no features.
SparseTensor sparse_conv3d(const SparseTensor& x, const Conv3dParams& p,
                           ExecContext& ctx);

/// The numerics of one layer, as sparse_conv3d runs them; exposed for
/// tests and benchmarks, which choose the partition count.
///
/// Adds, into `out` (n_out x c_out, zeros on entry), every kernel offset's
/// contribution in ascending offset order. Offset `in_place` (-1 for none)
/// has the identity map and multiplies x's rows in place; every other
/// offset gathers its mapped x rows, rounds them to `precision`, multiplies
/// them by its weights into zeroed partial sums, rounds those to FP16 if
/// `round_psums` (gather-matmul-scatter keeps psums in FP16 buffers;
/// fetch-on-demand reduces them in registers) and adds each onto its
/// output row. Below FP32 the outputs are then rounded to FP16.
///
/// The work is one job of `parts` partitions on `run`: partition q owns
/// output rows [n_out * q / parts, n_out * (q + 1) / parts) and takes each
/// offset's entries for those rows in map order, so every output row
/// receives the same additions in the same order as one serial loop and
/// the result has the same bits at every partition count. INT8 scales an
/// offset's gathered rows by their abs_max over all the offset's entries,
/// as one serial gather would, so that maximum is taken before the job.
/// Throws std::invalid_argument unless there is one c_in x c_out weight
/// matrix per offset, or if `in_place` is set and x and out differ in
/// rows.
void conv_numerics(const Matrix& x, const KernelMap& km,
                   const std::vector<Matrix>& weights, int in_place,
                   Precision precision, bool round_psums, std::size_t parts,
                   PartitionRunner& run, Matrix& out);

/// Partitions sparse_conv3d gives conv_numerics for n_out output rows on
/// `threads` threads: a few per thread, none smaller than a minimum row
/// count, and one when threads is 1.
std::size_t numerics_partitions(std::size_t n_out, std::size_t threads);

}  // namespace ts
