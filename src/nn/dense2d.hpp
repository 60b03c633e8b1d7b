// Dense BEV (bird's-eye-view) 2-D substrate for detection heads.
//
// CenterPoint's pipeline ends with dense 2-D convolutions and
// non-maximum suppression over the flattened BEV map; the paper's Fig. 4b
// shows this "Conv2D/NMS" tail is ~10-12% of detector runtime and is the
// part TorchSparse does NOT accelerate (§5.2). We implement it so the
// detection benchmarks carry the same unaccelerated tail.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/exec.hpp"
#include "core/sparse_tensor.hpp"
#include "tensor/matrix.hpp"

namespace ts::spnn {

/// Dense channel-major BEV feature map: data[c][y*w + x]. A cost-only
/// pass carries the shape (c, h, w) with an empty `data`.
struct DenseBEV {
  int c = 0, h = 0, w = 0;
  Matrix data;  // rows = channels, cols = h*w; empty when cost-only
  int channels() const { return c; }
  bool has_features() const {
    return data.rows() == static_cast<std::size_t>(c) &&
           data.cols() == static_cast<std::size_t>(h) *
                              static_cast<std::size_t>(w);
  }
};

/// Flattens a sparse tensor to BEV by summing features over z per (x, y)
/// cell (SECOND-style "to dense + reshape"). Charged to Stage::kMisc.
/// Numerics passes throw std::invalid_argument if `x` has no features.
DenseBEV sparse_to_bev(const SparseTensor& x, ExecContext& ctx);

/// Dense 3x3 conv + ReLU over a BEV map (im2col + GEMM numerics; cost is
/// one GEMM of [h*w, 9*c_in, c_out] charged to Stage::kDense2D). Throws
/// std::invalid_argument if `x` is not c_in channels wide, or on a
/// numerics pass if `x` has no features.
class Conv2d {
 public:
  Conv2d(int c_in, int c_out, std::mt19937_64& rng, bool relu = true);
  DenseBEV forward(const DenseBEV& x, ExecContext& ctx) const;

 private:
  int c_in_, c_out_;
  bool relu_;
  Matrix weight_;  // [9*c_in, c_out]
};

/// An axis-aligned BEV detection box.
struct Detection {
  float x = 0, y = 0;      // center, in BEV cells
  float half_w = 0, half_l = 0;
  float score = 0;
};

/// Decodes peaks of a 1-channel heatmap + 4-channel box regression into
/// detections and applies IoU-threshold NMS. Top-k selection is charged
/// to Stage::kMisc; the O(k^2) suppression to Stage::kNMS (NMS is the
/// classic serial bottleneck on GPUs). Numerics passes throw
/// std::invalid_argument if either map has no features.
std::vector<Detection> decode_and_nms(const DenseBEV& heatmap,
                                      const DenseBEV& boxes, int top_k,
                                      float score_thresh, float iou_thresh,
                                      ExecContext& ctx);

/// BEV IoU of two axis-aligned boxes.
float bev_iou(const Detection& a, const Detection& b);

}  // namespace ts::spnn
