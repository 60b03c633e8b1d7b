#include "nn/layers.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/mapping_cost.hpp"

namespace ts::spnn {

Matrix random_weight(std::size_t rows, std::size_t cols,
                     std::mt19937_64& rng, float scale) {
  // det-lint: allow(std-distribution): the numerics golden pins weights
  // drawn from libstdc++'s normal sequence.
  std::normal_distribution<float> dist(0.0f, scale);
  Matrix w(rows, cols);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = dist(rng);
  return w;
}

std::vector<Matrix> make_conv_weights(int kernel_size, std::size_t c_in,
                                      std::size_t c_out,
                                      std::mt19937_64& rng) {
  const int volume = kernel_volume(kernel_size);
  const float scale = std::sqrt(
      2.0f / (static_cast<float>(volume) * static_cast<float>(c_in)));
  std::vector<Matrix> w;
  w.reserve(static_cast<std::size_t>(volume));
  for (int n = 0; n < volume; ++n)
    w.push_back(random_weight(c_in, c_out, rng, scale));
  return w;
}

int next_layer_id() {
  static std::atomic<int> counter{0};
  return counter++;
}

Conv3d::Conv3d(std::size_t c_in, std::size_t c_out, int kernel_size,
               int stride, bool transposed, std::mt19937_64& rng,
               int dilation)
    : id_(next_layer_id()) {
  params_.geom.kernel_size = kernel_size;
  params_.geom.stride = stride;
  params_.geom.transposed = transposed;
  params_.geom.dilation = dilation;
  params_.weights = make_conv_weights(kernel_size, c_in, c_out, rng);
}

SparseTensor Conv3d::forward(const SparseTensor& x, ExecContext& ctx) {
  ctx.layer_id = id_;
  return sparse_conv3d(x, params_, ctx);
}

void Conv3d::quantize_weights(Precision p) {
  for (Matrix& w : params_.weights) w.quantize(p);
}

BatchNorm::BatchNorm(std::size_t channels, std::mt19937_64& rng) {
  // det-lint: allow(std-distribution): the numerics golden pins affine
  // parameters drawn from libstdc++'s uniform sequence.
  std::uniform_real_distribution<float> g(0.7f, 1.3f);
  // det-lint: allow(std-distribution): as for `g` on the line above.
  std::uniform_real_distribution<float> b(-0.1f, 0.1f);
  scale_.resize(channels);
  shift_.resize(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    scale_[c] = g(rng);
    shift_[c] = b(rng);
  }
}

SparseTensor BatchNorm::forward(const SparseTensor& x, ExecContext& ctx) {
  return forward(SparseTensor(x), ctx);
}

SparseTensor BatchNorm::forward(SparseTensor&& x, ExecContext& ctx) {
  // Always-on shape contract (ROADMAP "Hardening"): must hold identically
  // in Debug and Release, and on cost-only passes too.
  if (x.channels() != scale_.size())
    throw std::invalid_argument(
        "spnn::BatchNorm: input has " + std::to_string(x.channels()) +
        " channels but the layer was built for " +
        std::to_string(scale_.size()));
  charge_elementwise(x.num_points(), x.channels(), ctx);
  if (ctx.compute_numerics) {
    Matrix& f = x.feats();
    for (std::size_t r = 0; r < f.rows(); ++r) {
      float* row = f.row(r);
      for (std::size_t c = 0; c < f.cols(); ++c)
        row[c] = row[c] * scale_[c] + shift_[c];
    }
    if (ctx.cfg.precision != Precision::kFP32)
      f.quantize(Precision::kFP16);
  }
  return std::move(x);
}

SparseTensor ReLU::forward(const SparseTensor& x, ExecContext& ctx) {
  return forward(SparseTensor(x), ctx);
}

SparseTensor ReLU::forward(SparseTensor&& x, ExecContext& ctx) {
  charge_elementwise(x.num_points(), x.channels(), ctx);
  if (ctx.compute_numerics) {
    // A select, not a branch: post-BN signs are random, so a branch
    // would mispredict. It keeps -0 and NaN bits as they are;
    // std::max(0.0f, x) would turn -0 into +0.
    float* d = x.feats().data();
    const std::size_t n = x.feats().size();
    for (std::size_t i = 0; i < n; ++i) d[i] = d[i] < 0.0f ? 0.0f : d[i];
  }
  return std::move(x);
}

ConvBlock::ConvBlock(std::size_t c_in, std::size_t c_out, int kernel_size,
                     int stride, bool transposed, std::mt19937_64& rng)
    : conv_(std::make_unique<Conv3d>(c_in, c_out, kernel_size, stride,
                                     transposed, rng)),
      bn_(std::make_unique<BatchNorm>(c_out, rng)) {}

SparseTensor ConvBlock::forward(const SparseTensor& x, ExecContext& ctx) {
  return relu_.forward(bn_->forward(conv_->forward(x, ctx), ctx), ctx);
}

ResidualBlock::ResidualBlock(std::size_t c_in, std::size_t c_out,
                             int kernel_size, std::mt19937_64& rng)
    : conv1_(std::make_unique<Conv3d>(c_in, c_out, kernel_size, 1, false,
                                      rng)),
      bn1_(std::make_unique<BatchNorm>(c_out, rng)),
      conv2_(std::make_unique<Conv3d>(c_out, c_out, kernel_size, 1, false,
                                      rng)),
      bn2_(std::make_unique<BatchNorm>(c_out, rng)) {
  if (c_in != c_out) {
    shortcut_conv_ =
        std::make_unique<Conv3d>(c_in, c_out, 1, 1, false, rng);
    shortcut_bn_ = std::make_unique<BatchNorm>(c_out, rng);
  }
}

SparseTensor ResidualBlock::forward(const SparseTensor& x,
                                    ExecContext& ctx) {
  SparseTensor main =
      relu_.forward(bn1_->forward(conv1_->forward(x, ctx), ctx), ctx);
  main = bn2_->forward(conv2_->forward(main, ctx), ctx);
  if (!shortcut_conv_)
    return relu_.forward(add_features(std::move(main), x, ctx), ctx);
  // The shortcut runs before the add, so its charges keep their place.
  const SparseTensor skip =
      shortcut_bn_->forward(shortcut_conv_->forward(x, ctx), ctx);
  return relu_.forward(add_features(std::move(main), skip, ctx), ctx);
}

SparseTensor add_features(const SparseTensor& a, const SparseTensor& b,
                          ExecContext& ctx) {
  return add_features(SparseTensor(a), b, ctx);
}

SparseTensor add_features(SparseTensor&& a, const SparseTensor& b,
                          ExecContext& ctx) {
  if (a.num_points() != b.num_points())
    throw std::invalid_argument(
        "spnn::add_features: point counts differ (" +
        std::to_string(a.num_points()) + " vs " +
        std::to_string(b.num_points()) + ")");
  if (a.channels() != b.channels())
    throw std::invalid_argument(
        "spnn::add_features: channel counts differ (" +
        std::to_string(a.channels()) + " vs " +
        std::to_string(b.channels()) + ")");
  if (ctx.compute_numerics) {
    require_features(a, "spnn::add_features");
    require_features(b, "spnn::add_features");
  }
  charge_elementwise(a.num_points(), a.channels(), ctx);
  if (ctx.compute_numerics) {
    Matrix& f = a.feats();
    const Matrix& g = b.feats();
    for (std::size_t i = 0; i < f.size(); ++i) f.data()[i] += g.data()[i];
    if (ctx.cfg.precision != Precision::kFP32)
      f.quantize(Precision::kFP16);
  }
  return std::move(a);
}

SparseTensor concat_features(const SparseTensor& a, const SparseTensor& b,
                             ExecContext& ctx) {
  if (a.num_points() != b.num_points())
    throw std::invalid_argument(
        "spnn::concat_features: point counts differ (" +
        std::to_string(a.num_points()) + " vs " +
        std::to_string(b.num_points()) + ")");
  const std::size_t channels = a.channels() + b.channels();
  if (ctx.compute_numerics) {
    require_features(a, "spnn::concat_features");
    require_features(b, "spnn::concat_features");
  }
  charge_elementwise(a.num_points(), channels, ctx);
  if (!ctx.compute_numerics)
    return SparseTensor(a.coords_ptr(), channels, a.stride(), a.cache());
  Matrix f(a.num_points(), channels);
  for (std::size_t r = 0; r < f.rows(); ++r) {
    float* row = f.row(r);
    const float* ra = a.feats().row(r);
    const float* rb = b.feats().row(r);
    for (std::size_t c = 0; c < a.channels(); ++c) row[c] = ra[c];
    for (std::size_t c = 0; c < b.channels(); ++c)
      row[a.channels() + c] = rb[c];
  }
  return SparseTensor(a.coords_ptr(), std::move(f), a.stride(), a.cache());
}

void quantize_convs(const std::vector<Conv3d*>& convs, Precision p) {
  for (Conv3d* c : convs) c->quantize_weights(p);
}

}  // namespace ts::spnn
