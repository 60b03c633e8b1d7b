#include "nn/second.hpp"

#include <utility>

namespace ts::spnn {

SecondDetector::SecondDetector(std::size_t in_channels, uint64_t seed) {
  std::mt19937_64 rng(seed * 31 + 5);
  stem_ = std::make_unique<ConvBlock>(in_channels, 16, 3, 1, false, rng);
  const std::size_t chans[4] = {16, 32, 64, 64};
  for (int s = 0; s < 3; ++s) {
    Stage st;
    st.conv1 = std::make_unique<ConvBlock>(chans[s], chans[s], 3, 1, false,
                                           rng);
    st.conv2 = std::make_unique<ConvBlock>(chans[s], chans[s], 3, 1, false,
                                           rng);
    st.down = std::make_unique<ConvBlock>(chans[s], chans[s + 1], 3, 2,
                                          false, rng);
    stages_.push_back(std::move(st));
  }
  rpn_.emplace_back(64, 96, rng);
  rpn_.emplace_back(96, 96, rng);
  score_head_ = std::make_unique<Conv2d>(96, 1, rng, /*relu=*/false);
  box_head_ = std::make_unique<Conv2d>(96, 4, rng, /*relu=*/false);
}

void SecondDetector::collect_convs(std::vector<Conv3d*>& out) {
  stem_->collect_convs(out);
  for (auto& s : stages_) {
    s.conv1->collect_convs(out);
    s.conv2->collect_convs(out);
    s.down->collect_convs(out);
  }
}

SecondOutput SecondDetector::run(const SparseTensor& x, ExecContext& ctx) {
  SparseTensor y = stem_->forward(x, ctx);
  for (auto& s : stages_) {
    y = s.conv1->forward(y, ctx);
    y = s.conv2->forward(y, ctx);
    y = s.down->forward(y, ctx);
  }

  DenseBEV bev = sparse_to_bev(y, ctx);
  for (const Conv2d& c : rpn_) bev = c.forward(bev, ctx);
  DenseBEV score = score_head_->forward(bev, ctx);
  DenseBEV boxes = box_head_->forward(bev, ctx);

  std::vector<Detection> dets =
      decode_and_nms(score, boxes, /*top_k=*/256, /*score_thresh=*/0.1f,
                     /*iou_thresh=*/0.5f, ctx);
  return SecondOutput{std::move(dets), std::move(y), std::move(score),
                      std::move(boxes)};
}

}  // namespace ts::spnn
