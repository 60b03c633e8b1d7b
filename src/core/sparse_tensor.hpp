// Sparse tensors: a point-coordinate list plus per-point feature vectors.
// A cost-only pass (ExecContext::compute_numerics == false) carries the
// shape alone: coordinates and a channel count, no feature storage.
//
// Mirrors the paper's §4.1 API design: unlike SpConv (indice_key /
// spatial_shape) or MinkowskiEngine (coordinate manager), the user never
// manages coordinates explicitly — kernel maps and per-stride coordinate
// sets are cached inside the tensor and flow through the network with it.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/conv_config.hpp"
#include "core/kernel_map.hpp"
#include "hash/coords.hpp"
#include "tensor/matrix.hpp"

namespace ts {

/// Shared per-network cache of coordinate sets (per tensor-stride level)
/// and kernel maps (per MapKey). Downsample convs deposit the coarse
/// coordinates and the forward maps; transposed convs in the decoder pick
/// them back up. Beside each level's coordinates sits its level record
/// (sorted keys and bounds), made on the first map build that reads it or
/// deposited by the downsample that made the level.
///
/// A strided layer's map is resolved with its output coordinates and
/// never waits here: when the layer downsamples on the grid backend at
/// dilation 1, sparse_conv3d hands the map its downsample emitted
/// (downsample_level_with_map) straight to the layer's map resolution,
/// which keeps it under its MapKey like a searched one (core/conv3d.cpp).
struct TensorCache {
  std::unordered_map<int, std::shared_ptr<const std::vector<Coord>>>
      coords_at_stride;
  std::unordered_map<MapKey, std::shared_ptr<const KernelMap>, MapKeyHash>
      kmaps;

  /// A level's record, with the coordinate set it was made from.
  struct Level {
    std::shared_ptr<const std::vector<Coord>> coords;
    std::shared_ptr<const LevelKeys> keys;
  };
  std::unordered_map<int, Level> levels_at_stride;

  /// The record of `coords`, the set at `stride`; made on first use, and
  /// remade if the level's set has been replaced.
  std::shared_ptr<const LevelKeys> level_keys(
      int stride, const std::shared_ptr<const std::vector<Coord>>& coords);
  /// The record of `coords` if one was made, else null.
  std::shared_ptr<const LevelKeys> find_level_keys(
      int stride,
      const std::shared_ptr<const std::vector<Coord>>& coords) const;
};

class SparseTensor {
 public:
  SparseTensor() = default;

  /// Creates a stride-1 tensor and seeds a fresh cache with its coords.
  /// This and the derived-tensor constructor throw std::invalid_argument
  /// unless `feats` has one row per coordinate.
  SparseTensor(std::vector<Coord> coords, Matrix feats);

  /// Creates a derived tensor (same cache, possibly different stride).
  SparseTensor(std::shared_ptr<const std::vector<Coord>> coords,
               Matrix feats, int stride, std::shared_ptr<TensorCache> cache);

  /// Creates a feature-less derived tensor: `channels` wide, no storage.
  /// What a cost-only pass produces, since no modeled charge reads a
  /// feature value.
  SparseTensor(std::shared_ptr<const std::vector<Coord>> coords,
               std::size_t channels, int stride,
               std::shared_ptr<TensorCache> cache);

  const std::vector<Coord>& coords() const { return *coords_; }
  std::shared_ptr<const std::vector<Coord>> coords_ptr() const {
    return coords_;
  }

  /// Steals this tensor's storage into a tensor with a fresh, empty
  /// TensorCache seeded with the coordinates at the current stride — the
  /// zero-copy alternative to deep-copying an input the caller already
  /// owns privately (engines/runner's borrow_input path).
  SparseTensor with_fresh_cache() &&;

  /// A feature-less tensor sharing this tensor's (immutable) coordinates
  /// and channel count under a fresh TensorCache seeded like
  /// with_fresh_cache: the input of a cost-only pass, which must neither
  /// copy nor touch the caller's features.
  SparseTensor shape_with_fresh_cache() const;

  /// False for a feature-less tensor. Its feats() is then an empty matrix
  /// and only num_points()/channels() describe it.
  bool has_features() const {
    return feats_.rows() == num_points() && feats_.cols() == channels_;
  }
  const Matrix& feats() const { return feats_; }
  Matrix& feats() { return feats_; }
  std::size_t num_points() const { return coords_ ? coords_->size() : 0; }
  std::size_t channels() const { return channels_; }
  int stride() const { return stride_; }
  const std::shared_ptr<TensorCache>& cache() const { return cache_; }

 private:
  std::shared_ptr<const std::vector<Coord>> coords_;
  Matrix feats_;
  std::size_t channels_ = 0;
  int stride_ = 1;
  std::shared_ptr<TensorCache> cache_;
};

/// Throws std::invalid_argument naming `op` unless `x` has features: the
/// check every numerics read of a tensor makes first, so a feature-less
/// (cost-only) tensor reaching a numerics pass fails loudly instead of
/// indexing an empty matrix.
void require_features(const SparseTensor& x, const char* op);

}  // namespace ts
