#include "nn/pooling.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mapping_cost.hpp"
#include "hash/coords.hpp"

namespace ts::spnn {

namespace {

/// API-boundary validation shared by both overloads (not asserts: a bad
/// batch index reaching the pooling loops would silently mis-index under
/// NDEBUG instead of failing loudly). `declared`, when set, is the
/// caller's batch count; otherwise indexes are bounded by the packable
/// batch range, past which no valid tensor can exist and the inferred
/// output allocation itself would be the failure.
void validate_batch_indices(const SparseTensor& x,
                            std::optional<int> declared) {
  for (std::size_t i = 0; i < x.num_points(); ++i) {
    const int32_t b = x.coords()[i].b;
    if (b < 0)
      throw std::invalid_argument(
          "global_pool: negative batch index " + std::to_string(b) +
          " at point " + std::to_string(i));
    if (declared) {
      if (b >= *declared)
        throw std::invalid_argument(
            "global_pool: batch index " + std::to_string(b) + " at point " +
            std::to_string(i) + " is out of range for declared batch count " +
            std::to_string(*declared));
    } else if (b > kCoordBatchMax) {
      throw std::invalid_argument(
          "global_pool: batch index " + std::to_string(b) + " at point " +
          std::to_string(i) + " exceeds the packable batch range [0, " +
          std::to_string(kCoordBatchMax) + "]");
    }
  }
}

Matrix pool_validated(const SparseTensor& x, PoolKind kind, int num_batches,
                      ExecContext& ctx) {
  if (ctx.compute_numerics) require_features(x, "global_pool");
  charge_elementwise(x.num_points(), x.channels(), ctx);
  if (!ctx.compute_numerics) return Matrix();
  if (num_batches == 0) return Matrix(0, x.channels());

  const std::size_t ch = x.channels();
  Matrix out(static_cast<std::size_t>(num_batches), ch,
             kind == PoolKind::kMax ? -std::numeric_limits<float>::infinity()
                                    : 0.0f);
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_batches), 0);
  for (std::size_t i = 0; i < x.num_points(); ++i) {
    const std::size_t b = static_cast<std::size_t>(x.coords()[i].b);
    const float* row = x.feats().row(i);
    float* acc = out.row(b);
    ++counts[b];
    if (kind == PoolKind::kMax) {
      for (std::size_t c = 0; c < ch; ++c)
        acc[c] = std::max(acc[c], row[c]);
    } else {
      for (std::size_t c = 0; c < ch; ++c) acc[c] += row[c];
    }
  }
  if (kind == PoolKind::kAvg) {
    for (int b = 0; b < num_batches; ++b) {
      const float inv = counts[static_cast<std::size_t>(b)]
                            ? 1.0f / static_cast<float>(
                                         counts[static_cast<std::size_t>(b)])
                            : 0.0f;
      float* acc = out.row(static_cast<std::size_t>(b));
      for (std::size_t c = 0; c < ch; ++c) acc[c] *= inv;
    }
  } else {
    // Batches with no points pool to zero rather than -inf.
    for (int b = 0; b < num_batches; ++b) {
      if (counts[static_cast<std::size_t>(b)] == 0) {
        float* acc = out.row(static_cast<std::size_t>(b));
        for (std::size_t c = 0; c < ch; ++c) acc[c] = 0.0f;
      }
    }
  }
  return out;
}

}  // namespace

Matrix global_pool(const SparseTensor& x, PoolKind kind, ExecContext& ctx) {
  validate_batch_indices(x, std::nullopt);
  int num_batches = 0;
  for (const Coord& c : x.coords())
    num_batches = std::max(num_batches, c.b + 1);
  return pool_validated(x, kind, num_batches, ctx);
}

Matrix global_pool(const SparseTensor& x, PoolKind kind, int num_batches,
                   ExecContext& ctx) {
  if (num_batches < 0)
    throw std::invalid_argument(
        "global_pool: declared batch count must be >= 0, got " +
        std::to_string(num_batches));
  validate_batch_indices(x, num_batches);
  return pool_validated(x, kind, num_batches, ctx);
}

}  // namespace ts::spnn
