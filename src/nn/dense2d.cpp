#include "nn/dense2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/layers.hpp"

namespace ts::spnn {

namespace {

void require_bev_features(const DenseBEV& x, const char* op) {
  if (!x.has_features())
    throw std::invalid_argument(
        std::string(op) + ": BEV map has no features (" +
        std::to_string(x.c) + "x" + std::to_string(x.h) + "x" +
        std::to_string(x.w) +
        "): a cost-only map cannot feed a numerics pass");
}

}  // namespace

DenseBEV sparse_to_bev(const SparseTensor& x, ExecContext& ctx) {
  if (ctx.compute_numerics) require_features(x, "spnn::sparse_to_bev");
  int max_x = 0, max_y = 0;
  for (const Coord& c : x.coords()) {
    max_x = std::max(max_x, c.x);
    max_y = std::max(max_y, c.y);
  }
  DenseBEV bev;
  bev.c = static_cast<int>(x.channels());
  bev.w = max_x + 1;
  bev.h = max_y + 1;
  if (ctx.compute_numerics)
    bev.data.resize(x.channels(), static_cast<std::size_t>(bev.h * bev.w));

  // Scatter-to-dense: one read + one accumulate write per point-channel.
  const double bytes =
      2.0 * static_cast<double>(x.num_points()) *
      static_cast<double>(x.channels()) *
      static_cast<double>(bytes_per_channel(ctx.cfg.precision));
  ctx.timeline.add(Stage::kMisc,
                   ctx.cost.launch_seconds() + ctx.cost.dram_seconds(bytes));
  ctx.timeline.add_dram_bytes(bytes);
  ctx.timeline.add_kernel_launches(1);

  if (ctx.compute_numerics) {
    for (std::size_t i = 0; i < x.num_points(); ++i) {
      const Coord& c = x.coords()[i];
      const float* row = x.feats().row(i);
      const std::size_t cell = static_cast<std::size_t>(c.y) *
                                   static_cast<std::size_t>(bev.w) +
                               static_cast<std::size_t>(c.x);
      for (std::size_t ch = 0; ch < x.channels(); ++ch)
        bev.data.at(ch, cell) += row[ch];
    }
  }
  return bev;
}

Conv2d::Conv2d(int c_in, int c_out, std::mt19937_64& rng, bool relu)
    : c_in_(c_in), c_out_(c_out), relu_(relu) {
  const float scale = std::sqrt(2.0f / (9.0f * static_cast<float>(c_in)));
  weight_ = random_weight(static_cast<std::size_t>(9 * c_in),
                          static_cast<std::size_t>(c_out), rng, scale);
}

DenseBEV Conv2d::forward(const DenseBEV& x, ExecContext& ctx) const {
  if (x.c != c_in_)
    throw std::invalid_argument(
        "spnn::Conv2d: input has " + std::to_string(x.c) +
        " channels but the layer expects " + std::to_string(c_in_));
  if (ctx.compute_numerics) require_bev_features(x, "spnn::Conv2d");
  DenseBEV y;
  y.c = c_out_;
  y.h = x.h;
  y.w = x.w;
  if (ctx.compute_numerics)
    y.data.resize(static_cast<std::size_t>(c_out_),
                  static_cast<std::size_t>(x.h * x.w));

  // Cost: one implicit-GEMM kernel [h*w, 9*c_in] x [9*c_in, c_out].
  const KernelCost kc =
      ctx.cost.mm(static_cast<std::size_t>(x.h * x.w),
                  static_cast<std::size_t>(9 * c_in_),
                  static_cast<std::size_t>(c_out_), ctx.cfg.precision);
  ctx.timeline.add(Stage::kDense2D, kc.seconds);
  ctx.timeline.add_dram_bytes(kc.dram_bytes);
  ctx.timeline.add_kernel_launches(1);

  if (ctx.compute_numerics) {
    // Direct 3x3 convolution (numerics identical to im2col+GEMM).
    for (int co = 0; co < c_out_; ++co) {
      float* out = y.data.row(static_cast<std::size_t>(co));
      for (int yy = 0; yy < x.h; ++yy) {
        for (int xx = 0; xx < x.w; ++xx) {
          float acc = 0.0f;
          int tap = 0;
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx, ++tap) {
              const int sy = yy + dy, sx = xx + dx;
              if (sy < 0 || sy >= x.h || sx < 0 || sx >= x.w) continue;
              const std::size_t cell =
                  static_cast<std::size_t>(sy) *
                      static_cast<std::size_t>(x.w) +
                  static_cast<std::size_t>(sx);
              const std::size_t wrow0 =
                  static_cast<std::size_t>(tap) *
                  static_cast<std::size_t>(c_in_);
              for (int ci = 0; ci < c_in_; ++ci)
                acc += x.data.at(static_cast<std::size_t>(ci), cell) *
                       weight_.at(wrow0 + static_cast<std::size_t>(ci),
                                  static_cast<std::size_t>(co));
            }
          }
          out[static_cast<std::size_t>(yy) * static_cast<std::size_t>(x.w) +
              static_cast<std::size_t>(xx)] =
              relu_ ? std::max(0.0f, acc) : acc;
        }
      }
    }
  }
  return y;
}

float bev_iou(const Detection& a, const Detection& b) {
  const float ax0 = a.x - a.half_w, ax1 = a.x + a.half_w;
  const float ay0 = a.y - a.half_l, ay1 = a.y + a.half_l;
  const float bx0 = b.x - b.half_w, bx1 = b.x + b.half_w;
  const float by0 = b.y - b.half_l, by1 = b.y + b.half_l;
  const float ix = std::max(0.0f, std::min(ax1, bx1) - std::max(ax0, bx0));
  const float iy = std::max(0.0f, std::min(ay1, by1) - std::max(ay0, by0));
  const float inter = ix * iy;
  const float uni = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) -
                    inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

std::vector<Detection> decode_and_nms(const DenseBEV& heatmap,
                                      const DenseBEV& boxes, int top_k,
                                      float score_thresh, float iou_thresh,
                                      ExecContext& ctx) {
  if (ctx.compute_numerics) {
    require_bev_features(heatmap, "spnn::decode_and_nms");
    require_bev_features(boxes, "spnn::decode_and_nms");
  }
  // Top-k peak extraction: streams the heatmap once (Stage::kMisc).
  const double scan_bytes = static_cast<double>(heatmap.h * heatmap.w) * 4.0;
  ctx.timeline.add(Stage::kMisc, ctx.cost.launch_seconds() +
                                     ctx.cost.dram_seconds(scan_bytes));
  ctx.timeline.add_kernel_launches(1);

  std::vector<Detection> cand;
  if (ctx.compute_numerics) {
    const float* hm = heatmap.data.row(0);
    for (int yy = 1; yy + 1 < heatmap.h; ++yy) {
      for (int xx = 1; xx + 1 < heatmap.w; ++xx) {
        const std::size_t cell =
            static_cast<std::size_t>(yy) *
                static_cast<std::size_t>(heatmap.w) +
            static_cast<std::size_t>(xx);
        const float v = hm[cell];
        if (v < score_thresh) continue;
        // 3x3 local maximum = peak.
        bool peak = true;
        for (int dy = -1; dy <= 1 && peak; ++dy)
          for (int dx = -1; dx <= 1; ++dx) {
            if (dy == 0 && dx == 0) continue;
            const std::size_t n =
                cell + static_cast<std::size_t>(dy * heatmap.w + dx);
            if (hm[n] > v) {
              peak = false;
              break;
            }
          }
        if (!peak) continue;
        Detection d;
        d.x = static_cast<float>(xx) + boxes.data.at(0, cell);
        d.y = static_cast<float>(yy) + boxes.data.at(1, cell);
        d.half_w = 1.0f + std::fabs(boxes.data.at(2, cell));
        d.half_l = 1.0f + std::fabs(boxes.data.at(3, cell));
        d.score = v;
        cand.push_back(d);
      }
    }
    std::sort(cand.begin(), cand.end(),
              [](const Detection& a, const Detection& b) {
                return a.score > b.score;
              });
    if (static_cast<int>(cand.size()) > top_k)
      cand.resize(static_cast<std::size_t>(top_k));
  }

  // NMS cost: O(k^2) pairwise IoUs with poor parallelism (the serial
  // suppression dependency limits it to roughly one SM's throughput).
  const double k = static_cast<double>(top_k);
  const double nms_ops = k * k * 24.0;
  const double serial_ops_per_s =
      ctx.cost.device().core_clock_ghz * 1e9 * 64.0;
  ctx.timeline.add(Stage::kNMS,
                   ctx.cost.launch_seconds() + nms_ops / serial_ops_per_s);
  ctx.timeline.add_kernel_launches(1);

  std::vector<Detection> kept;
  for (const Detection& d : cand) {
    bool suppressed = false;
    for (const Detection& kd : kept) {
      if (bev_iou(d, kd) > iou_thresh) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

}  // namespace ts::spnn
