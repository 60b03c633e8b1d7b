// spnn layers: Conv3d, BatchNorm, ReLU, residual blocks (paper Fig. 5).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/conv3d.hpp"
#include "nn/module.hpp"

namespace ts::spnn {

/// Deterministic weight initialization (He-style fan-in scaling).
Matrix random_weight(std::size_t rows, std::size_t cols,
                     std::mt19937_64& rng, float scale);
std::vector<Matrix> make_conv_weights(int kernel_size, std::size_t c_in,
                                      std::size_t c_out,
                                      std::mt19937_64& rng);

/// Process-unique id for a conv layer (keys the Alg. 5 tuned parameters).
int next_layer_id();

/// Sparse 3-D convolution layer; `transposed` selects the decoder-style
/// inverse convolution that upsamples to the cached finer coordinates.
class Conv3d : public Module {
 public:
  Conv3d(std::size_t c_in, std::size_t c_out, int kernel_size, int stride,
         bool transposed, std::mt19937_64& rng, int dilation = 1);

  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  void collect_convs(std::vector<Conv3d*>& out) override {
    out.push_back(this);
  }

  int layer_id() const { return id_; }
  const Conv3dParams& params() const { return params_; }
  /// Quantizes weights to the given storage precision (engines running
  /// FP16 models quantize once at load time).
  void quantize_weights(Precision p);

 private:
  Conv3dParams params_;
  int id_;
};

/// Per-channel affine normalization with fixed (inference-time) stats.
class BatchNorm : public Module {
 public:
  BatchNorm(std::size_t channels, std::mt19937_64& rng);
  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  /// Normalizes x's features in place: no copy of the tensor.
  SparseTensor forward(SparseTensor&& x, ExecContext& ctx);

 private:
  std::vector<float> scale_;  // gamma / sqrt(var + eps)
  std::vector<float> shift_;  // beta - mean * scale
};

class ReLU : public Module {
 public:
  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  /// Rectifies x's features in place: no copy of the tensor.
  SparseTensor forward(SparseTensor&& x, ExecContext& ctx);
};

/// Conv-BN-ReLU block (the paper's Fig. 5 SparseConvBlock).
class ConvBlock : public Module {
 public:
  ConvBlock(std::size_t c_in, std::size_t c_out, int kernel_size, int stride,
            bool transposed, std::mt19937_64& rng);
  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  void collect_convs(std::vector<Conv3d*>& out) override {
    out.push_back(conv_.get());
  }
  Conv3d& conv() { return *conv_; }

 private:
  std::unique_ptr<Conv3d> conv_;
  std::unique_ptr<BatchNorm> bn_;
  ReLU relu_;
};

/// MinkowskiNet residual block: (conv-bn-relu-conv-bn) + shortcut, ReLU.
class ResidualBlock : public Module {
 public:
  ResidualBlock(std::size_t c_in, std::size_t c_out, int kernel_size,
                std::mt19937_64& rng);
  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override;
  void collect_convs(std::vector<Conv3d*>& out) override {
    out.push_back(conv1_.get());
    out.push_back(conv2_.get());
    if (shortcut_conv_) out.push_back(shortcut_conv_.get());
  }

 private:
  std::unique_ptr<Conv3d> conv1_;
  std::unique_ptr<BatchNorm> bn1_;
  std::unique_ptr<Conv3d> conv2_;
  std::unique_ptr<BatchNorm> bn2_;
  std::unique_ptr<Conv3d> shortcut_conv_;  // null for identity shortcut
  std::unique_ptr<BatchNorm> shortcut_bn_;
  ReLU relu_;
};

/// Adds the features of two tensors over identical coordinates. Like
/// concat_features, it throws std::invalid_argument on a numerics pass
/// if either tensor has no features; a cost-only pass carries shapes.
SparseTensor add_features(const SparseTensor& a, const SparseTensor& b,
                          ExecContext& ctx);
/// As above, adding b's features onto a's in place: no copy of a.
SparseTensor add_features(SparseTensor&& a, const SparseTensor& b,
                          ExecContext& ctx);

/// Concatenates feature channels over identical coordinates (U-Net skip).
SparseTensor concat_features(const SparseTensor& a, const SparseTensor& b,
                             ExecContext& ctx);

/// Recursively quantizes all conv weights in a module tree. (Each model
/// class exposes its convs; this helper operates on an explicit list.)
void quantize_convs(const std::vector<Conv3d*>& convs, Precision p);

}  // namespace ts::spnn
