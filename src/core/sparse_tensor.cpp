#include "core/sparse_tensor.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace ts {

namespace {

/// The feature-carrying constructors' check: one feature row per point.
void require_row_per_point(std::size_t points, const Matrix& feats) {
  if (feats.rows() != points)
    throw std::invalid_argument(
        "SparseTensor: " + std::to_string(points) + " points but " +
        std::to_string(feats.rows()) + " feature rows");
}
}  // namespace

TensorCache::Level& TensorCache::level(
    int stride, const std::shared_ptr<const std::vector<Coord>>& coords) {
  Level& l = levels_at_stride[stride];
  if (l.coords != coords) l = {coords, nullptr, std::nullopt};
  return l;
}

std::shared_ptr<const LevelKeys> TensorCache::level_keys(
    int stride, const std::shared_ptr<const std::vector<Coord>>& coords) {
  Level& l = level(stride, coords);
  if (!l.keys)
    l.keys = std::make_shared<const LevelKeys>(ts::level_keys(*coords));
  return l.keys;
}

MapCacheKey TensorCache::level_digest(
    int stride, const std::shared_ptr<const std::vector<Coord>>& coords) {
  Level& l = level(stride, coords);
  if (!l.digest) l.digest = coords_digest(*coords);
  return *l.digest;
}

std::shared_ptr<const LevelKeys> TensorCache::find_level_keys(
    int stride,
    const std::shared_ptr<const std::vector<Coord>>& coords) const {
  const auto it = levels_at_stride.find(stride);
  if (it == levels_at_stride.end() || it->second.coords != coords)
    return nullptr;
  return it->second.keys;
}

SparseTensor::SparseTensor(std::vector<Coord> coords, Matrix feats)
    : coords_(std::make_shared<const std::vector<Coord>>(std::move(coords))),
      feats_(std::move(feats)),
      channels_(feats_.cols()),
      stride_(1),
      cache_(std::make_shared<TensorCache>()) {
  require_row_per_point(num_points(), feats_);
  cache_->coords_at_stride[1] = coords_;
}

SparseTensor::SparseTensor(std::shared_ptr<const std::vector<Coord>> coords,
                           Matrix feats, int stride,
                           std::shared_ptr<TensorCache> cache)
    : coords_(std::move(coords)),
      feats_(std::move(feats)),
      channels_(feats_.cols()),
      stride_(stride),
      cache_(std::move(cache)) {
  require_row_per_point(num_points(), feats_);
}

SparseTensor::SparseTensor(std::shared_ptr<const std::vector<Coord>> coords,
                           std::size_t channels, int stride,
                           std::shared_ptr<TensorCache> cache)
    : coords_(std::move(coords)),
      channels_(channels),
      stride_(stride),
      cache_(std::move(cache)) {}

namespace {

std::shared_ptr<TensorCache> cache_seeded_with(
    const std::shared_ptr<const std::vector<Coord>>& coords, int stride) {
  auto cache = std::make_shared<TensorCache>();
  if (coords) cache->coords_at_stride[stride] = coords;
  return cache;
}

}  // namespace

SparseTensor SparseTensor::with_fresh_cache() && {
  SparseTensor t;
  t.coords_ = std::move(coords_);
  t.feats_ = std::move(feats_);
  t.channels_ = channels_;
  t.stride_ = stride_;
  t.cache_ = cache_seeded_with(t.coords_, t.stride_);
  return t;
}

SparseTensor SparseTensor::shape_with_fresh_cache() const {
  return SparseTensor(coords_, channels_, stride_,
                      cache_seeded_with(coords_, stride_));
}

void require_features(const SparseTensor& x, const char* op) {
  if (!x.has_features())
    throw std::invalid_argument(
        std::string(op) + ": input has no features (" +
        std::to_string(x.num_points()) + " points, " +
        std::to_string(x.channels()) +
        " channels): a cost-only tensor cannot feed a numerics pass");
}

}  // namespace ts
