// CenterPoint-style 3-D detector (Yin et al. 2021) — the paper's detection
// workload (10-frame nuScenes, 1/3-frame Waymo).
//
// Pipeline: SECOND-style sparse 3-D encoder (submanifold residual blocks
// with three stride-2 downsamples) -> flatten to dense BEV -> small 2-D
// neck -> center heatmap + box regression heads -> decode + NMS. The
// sparse encoder is what TorchSparse accelerates; the 2-D tail is the
// ~10% the paper's Fig. 4b attributes to "Conv2D / NMS".
#pragma once

#include <cstdint>
#include <vector>

#include "nn/dense2d.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace ts::spnn {

struct CenterPointOutput {
  std::vector<Detection> detections;
  SparseTensor backbone_out;  // stride-8 sparse features (tests/debug)
  DenseBEV heatmap;           // 1-channel head output the peaks came from
  DenseBEV boxes;             // 4-channel box regression
};

class CenterPoint {
 public:
  CenterPoint(std::size_t in_channels, uint64_t seed);

  CenterPointOutput run(const SparseTensor& x, ExecContext& ctx);

  void collect_convs(std::vector<Conv3d*>& out);
  std::vector<Conv3d*> convs() {
    std::vector<Conv3d*> out;
    collect_convs(out);
    return out;
  }

 private:
  // Sparse 3-D encoder: channels 16 -> 32 -> 64 -> 128, strides 1/2/4/8.
  std::unique_ptr<ConvBlock> stem_;
  std::unique_ptr<ResidualBlock> res0_;
  std::unique_ptr<ConvBlock> down1_;
  std::unique_ptr<ResidualBlock> res1_;
  std::unique_ptr<ConvBlock> down2_;
  std::unique_ptr<ResidualBlock> res2_;
  std::unique_ptr<ConvBlock> down3_;
  std::unique_ptr<ResidualBlock> res3a_, res3b_;

  // Dense BEV neck + heads.
  std::vector<Conv2d> neck_;
  std::unique_ptr<Conv2d> heatmap_head_;
  std::unique_ptr<Conv2d> box_head_;
};

}  // namespace ts::spnn
