// Golden output-bits pin for the host conv numerics.
//
// Runs MinkUNet-0.5x with numerics on two small seeded SemanticKITTI-like
// scans, once under torchsparse_config() (FP16 storage, center offset in
// place) and once under baseline_config() (FP32, every offset gathered),
// and compares an FNV-1a hash of the output feature bits against a
// constant. The host kernels under sparse_conv3d (binary16 rounding,
// GEMM, gather/scatter) may be rewritten for speed, but must not move a
// single output bit: a failure here means an optimisation changed the
// numerics, not that the constant needs refreshing.
//
// The two constants were computed on the scalar kernels (the
// half_t(f).to_float() round-trip and the zero-skipping ikj GEMM) before
// the vectorized binary16 rounding and the register-panel GEMM replaced
// them, and are unchanged by that rewrite.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "data/lidar.hpp"
#include "data/voxelize.hpp"
#include "engines/presets.hpp"
#include "engines/runner.hpp"
#include "gpusim/device.hpp"
#include "nn/minkunet.hpp"

namespace ts {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t fnv1a(uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Hashes the output shape and feature bits of MinkUNet-0.5x over two
/// seeded scans run under `cfg`.
uint64_t output_bits_hash(const EngineConfig& cfg) {
  LidarSpec spec = semantic_kitti_spec();
  spec.azimuth_steps = 32;
  const VoxelSpec vox = segmentation_voxels();
  spnn::MinkUNet net(0.5, static_cast<std::size_t>(vox.feature_channels), 19,
                     /*seed=*/2000);
  uint64_t h = kFnvOffset;
  for (uint64_t seed : {1ull, 7ull}) {
    const SparseTensor x = make_input(spec, vox, seed);
    ExecContext ctx(rtx2080ti(), cfg);
    ctx.compute_numerics = true;
    const SparseTensor y = net.forward(fresh_input(x), ctx);
    const uint64_t shape[2] = {y.feats().rows(), y.feats().cols()};
    h = fnv1a(h, shape, sizeof(shape));
    h = fnv1a(h, y.feats().data(), y.feats().size() * sizeof(float));
  }
  return h;
}

TEST(NumericsGolden, TorchSparseFp16OutputBits) {
  EXPECT_EQ(output_bits_hash(torchsparse_config()), 0x5870bcb7cf2e8299ull);
}

TEST(NumericsGolden, BaselineFp32OutputBits) {
  EXPECT_EQ(output_bits_hash(baseline_config()), 0x1da36964c9343582ull);
}

}  // namespace
}  // namespace ts
