#include "core/sparse_tensor.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace ts {

SparseTensor::SparseTensor(std::vector<Coord> coords, Matrix feats)
    : coords_(std::make_shared<const std::vector<Coord>>(std::move(coords))),
      feats_(std::move(feats)),
      channels_(feats_.cols()),
      stride_(1),
      cache_(std::make_shared<TensorCache>()) {
  assert(coords_->size() == feats_.rows());
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
  assert(coords_->size() == feats_.rows());
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
