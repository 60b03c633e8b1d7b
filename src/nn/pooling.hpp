// Global pooling over sparse tensors (torchsparse's spnn.GlobalAvgPool /
// GlobalMaxPool): reduces all points of each batch element to a single
// feature vector — the head of sparse classification networks.
#pragma once

#include "core/exec.hpp"
#include "core/sparse_tensor.hpp"
#include "tensor/matrix.hpp"

namespace ts::spnn {

enum class PoolKind { kAvg, kMax };

/// Reduces a sparse tensor per batch index. Returns a matrix of shape
/// [num_batches, channels], where row b pools every point with batch
/// index b and num_batches = max batch index + 1. Charged as one
/// streaming reduction kernel (Stage::kMisc).
/// Preconditions (std::invalid_argument, identical in Debug and
/// Release): every coordinate's batch index is within
/// [0, kCoordBatchMax]. A negative index would silently index out of
/// bounds rather than assert, and an absurdly large one (anything past
/// the packable batch range — no valid tensor can carry it) would turn
/// the output allocation itself into the failure, so both are validated
/// at this API boundary instead. Empty tensors pool to a 0-row matrix.
/// A cost-only pass (ctx.compute_numerics off) validates and charges
/// the same, but returns an empty 0x0 matrix; a numerics pass throws
/// std::invalid_argument if `x` has no features.
Matrix global_pool(const SparseTensor& x, PoolKind kind, ExecContext& ctx);

/// Fixed-shape overload for serving heads: the caller declares the batch
/// count and always gets back exactly `num_batches` rows (batches with
/// no points pool to zero). Additional precondition
/// (std::invalid_argument): num_batches >= 0 and every point's batch
/// index is < num_batches — an index past the declared count is corrupt
/// input, not a bigger batch.
Matrix global_pool(const SparseTensor& x, PoolKind kind, int num_batches,
                   ExecContext& ctx);

}  // namespace ts::spnn
