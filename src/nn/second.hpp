// SECOND-style sparse middle encoder + BEV head (Yan et al. 2018).
//
// SECOND is SpConv's native detector and the architectural ancestor of
// CenterPoint's backbone: plain (non-residual) submanifold conv blocks
// with stride-2 sparse downsamples, flattened to BEV for a dense RPN. We
// include it so the engine comparison covers both residual and plain
// sparse backbones (their kernel-map reuse patterns differ: plain stacks
// reuse maps less across channel changes).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/dense2d.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace ts::spnn {

struct SecondOutput {
  std::vector<Detection> detections;
  SparseTensor middle_out;  // stride-8 sparse features
  DenseBEV score;           // 1-channel head output the peaks came from
  DenseBEV boxes;           // 4-channel box regression
};

class SecondDetector {
 public:
  SecondDetector(std::size_t in_channels, uint64_t seed);

  SecondOutput run(const SparseTensor& x, ExecContext& ctx);

  void collect_convs(std::vector<Conv3d*>& out);
  std::vector<Conv3d*> convs() {
    std::vector<Conv3d*> out;
    collect_convs(out);
    return out;
  }

 private:
  // Middle extractor: (2x submanifold conv, downsample) x 3.
  struct Stage {
    std::unique_ptr<ConvBlock> conv1, conv2;
    std::unique_ptr<ConvBlock> down;  // K=3, s=2
  };
  std::unique_ptr<ConvBlock> stem_;
  std::vector<Stage> stages_;

  std::vector<Conv2d> rpn_;
  std::unique_ptr<Conv2d> score_head_;
  std::unique_ptr<Conv2d> box_head_;
};

}  // namespace ts::spnn
