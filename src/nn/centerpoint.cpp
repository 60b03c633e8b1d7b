#include "nn/centerpoint.hpp"

#include <utility>

namespace ts::spnn {

CenterPoint::CenterPoint(std::size_t in_channels, uint64_t seed) {
  std::mt19937_64 rng(seed + 17);
  stem_ = std::make_unique<ConvBlock>(in_channels, 16, 3, 1, false, rng);
  res0_ = std::make_unique<ResidualBlock>(16, 16, 3, rng);
  down1_ = std::make_unique<ConvBlock>(16, 32, 3, 2, false, rng);
  res1_ = std::make_unique<ResidualBlock>(32, 32, 3, rng);
  down2_ = std::make_unique<ConvBlock>(32, 64, 3, 2, false, rng);
  res2_ = std::make_unique<ResidualBlock>(64, 64, 3, rng);
  down3_ = std::make_unique<ConvBlock>(64, 128, 3, 2, false, rng);
  res3a_ = std::make_unique<ResidualBlock>(128, 128, 3, rng);
  res3b_ = std::make_unique<ResidualBlock>(128, 128, 3, rng);

  neck_.emplace_back(128, 128, rng);
  neck_.emplace_back(128, 128, rng);
  neck_.emplace_back(128, 128, rng);
  heatmap_head_ = std::make_unique<Conv2d>(128, 1, rng, /*relu=*/false);
  box_head_ = std::make_unique<Conv2d>(128, 4, rng, /*relu=*/false);
}

void CenterPoint::collect_convs(std::vector<Conv3d*>& out) {
  stem_->collect_convs(out);
  res0_->collect_convs(out);
  down1_->collect_convs(out);
  res1_->collect_convs(out);
  down2_->collect_convs(out);
  res2_->collect_convs(out);
  down3_->collect_convs(out);
  res3a_->collect_convs(out);
  res3b_->collect_convs(out);
}

CenterPointOutput CenterPoint::run(const SparseTensor& x, ExecContext& ctx) {
  SparseTensor y = res0_->forward(stem_->forward(x, ctx), ctx);
  y = res1_->forward(down1_->forward(y, ctx), ctx);
  y = res2_->forward(down2_->forward(y, ctx), ctx);
  y = res3b_->forward(
      res3a_->forward(down3_->forward(y, ctx), ctx), ctx);

  DenseBEV bev = sparse_to_bev(y, ctx);
  for (const Conv2d& c : neck_) bev = c.forward(bev, ctx);
  DenseBEV heatmap = heatmap_head_->forward(bev, ctx);
  DenseBEV boxes = box_head_->forward(bev, ctx);

  std::vector<Detection> dets =
      decode_and_nms(heatmap, boxes, /*top_k=*/256, /*score_thresh=*/0.1f,
                     /*iou_thresh=*/0.5f, ctx);
  return CenterPointOutput{std::move(dets), std::move(y), std::move(heatmap),
                           std::move(boxes)};
}

}  // namespace ts::spnn
