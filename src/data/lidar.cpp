#include "data/lidar.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

namespace ts {

LidarSpec semantic_kitti_spec() {
  LidarSpec s;
  s.name = "SemanticKITTI";
  s.beams = 64;
  s.azimuth_steps = 900;
  s.fov_up_deg = 2.0;
  s.fov_down_deg = -24.8;
  s.max_range_m = 70.0;
  s.num_vehicles = 28;
  s.num_walls = 12;
  s.frames = 1;
  return s;
}

LidarSpec nuscenes_spec(int frames) {
  LidarSpec s;
  s.name = "nuScenes";
  s.beams = 32;
  s.azimuth_steps = 540;
  s.fov_up_deg = 10.0;
  s.fov_down_deg = -30.0;
  s.max_range_m = 55.0;
  s.num_vehicles = 20;
  s.num_walls = 8;
  s.dropout = 0.12;
  s.frames = frames;
  return s;
}

LidarSpec waymo_spec(int frames) {
  LidarSpec s;
  s.name = "Waymo";
  s.beams = 64;
  s.azimuth_steps = 1100;
  s.fov_up_deg = 2.4;
  s.fov_down_deg = -17.6;
  s.max_range_m = 75.0;
  s.num_vehicles = 36;
  s.num_walls = 14;
  s.frames = frames;
  return s;
}

VoxelSpec segmentation_voxels() {
  VoxelSpec v;
  v.voxel_size_m = 0.05;
  return v;
}

VoxelSpec detection_voxels() {
  VoxelSpec v;
  v.voxel_size_m = 0.1;
  return v;
}

namespace {

struct Box {
  float cx, cy, cz, hx, hy, hz;  // center + half extents
};

/// Ray/AABB slab intersection; returns the hit distance, or 1e9f on a
/// miss. An origin inside the box also reads as a miss: its entry
/// distance stays 0, below the 1e-4 cut-off.
float ray_box(float ox, float oy, float oz, float dx, float dy, float dz,
              const Box& b) {
  float tmin = 0.0f, tmax = 1e9f;
  const float o[3] = {ox, oy, oz}, d[3] = {dx, dy, dz};
  const float lo[3] = {b.cx - b.hx, b.cy - b.hy, b.cz - b.hz};
  const float hi[3] = {b.cx + b.hx, b.cy + b.hy, b.cz + b.hz};
  for (int i = 0; i < 3; ++i) {
    if (std::fabs(d[i]) < 1e-9f) {
      if (o[i] < lo[i] || o[i] > hi[i]) return 1e9f;
      continue;
    }
    float t0 = (lo[i] - o[i]) / d[i];
    float t1 = (hi[i] - o[i]) / d[i];
    if (t0 > t1) std::swap(t0, t1);
    tmin = std::max(tmin, t0);
    tmax = std::min(tmax, t1);
    if (tmin > tmax) return 1e9f;
  }
  return tmin > 1e-4f ? tmin : 1e9f;
}

/// Angular slack added to each side of a box's azimuth window, in
/// radians. The float ray directions and ray_box's rounding move a
/// hit/miss decision by well under 1e-6 rad at any distance (both scale
/// with the distance to the box), so no ray the window excludes can hit.
constexpr double kWindowSlackRad = 1e-4;

/// Scratch sizes that keep the presets off the heap: waymo_spec has the
/// most boxes (36 vehicles + 14 walls) and azimuth steps (1100).
constexpr std::size_t kInlineBoxes = 50;
constexpr std::size_t kInlineAzimuths = 1100;

/// `n` elements of scratch, on the stack up to `N` and on the heap above.
template <class T, std::size_t N>
class Scratch {
 public:
  explicit Scratch(std::size_t n) {
    if (n > N) heap_.resize(n);
  }
  T* data() { return heap_.empty() ? stack_.data() : heap_.data(); }

 private:
  std::array<T, N> stack_{};
  std::vector<T> heap_;
};

/// One box as seen from a frame's sensor origin (ox, 0).
struct BoxView {
  Box box;
  /// No ray_box hit on this box is nearer than this. ray_box enters the
  /// x (y) slab at gap / |d| with |d| <= 1, where gap is the footprint's
  /// distance from the origin along x (y), rounded by the same float
  /// operations. A ray parallel to a slab the origin is outside misses.
  float near = 0;
  /// The `count` azimuth indices from `first` on, wrapping past the last
  /// to 0, whose rays can cross the footprint.
  int first = 0, count = 0;
  int index = 0;  // position in the scene, the sort's tie-break
};

BoxView view_from(const Box& b, int index, float ox, int azimuth_steps) {
  BoxView v;
  v.box = b;
  v.index = index;
  const float lo_x = b.cx - b.hx, hi_x = b.cx + b.hx;
  const float lo_y = b.cy - b.hy, hi_y = b.cy + b.hy;
  const float gap_x = ox < lo_x ? lo_x - ox : ox > hi_x ? ox - hi_x : 0.0f;
  const float gap_y = lo_y > 0.0f ? lo_y : hi_y < 0.0f ? -hi_y : 0.0f;
  v.near = std::max(gap_x, gap_y);
  v.count = azimuth_steps;
  // The origin inside the footprint sees it in every direction.
  if (gap_x == 0.0f && gap_y == 0.0f) return v;

  // Outside the footprint every corner lies within pi of the centre's
  // direction, so the corners' angles from it bound the window.
  const double mx = 0.5 * (static_cast<double>(lo_x) + hi_x) - ox;
  const double my = 0.5 * (static_cast<double>(lo_y) + hi_y);
  double lo = 0, hi = 0;
  for (const float x : {lo_x, hi_x}) {
    for (const float y : {lo_y, hi_y}) {
      const double vx = static_cast<double>(x) - ox;
      const double vy = y;
      const double a = std::atan2(mx * vy - my * vx, mx * vx + my * vy);
      lo = std::min(lo, a);
      hi = std::max(hi, a);
    }
  }
  const double mid = std::atan2(my, mx);
  const double per_rad = azimuth_steps / (2.0 * M_PI);
  const double first = std::ceil((mid + lo - kWindowSlackRad) * per_rad);
  const double last = std::floor((mid + hi + kWindowSlackRad) * per_rad);
  if (last - first + 1 >= azimuth_steps) return v;
  // |first| is at most about 1.0001 * azimuth_steps, which fits int64_t.
  const int64_t wrapped = static_cast<int64_t>(first) % azimuth_steps;
  v.first = static_cast<int>(wrapped < 0 ? wrapped + azimuth_steps : wrapped);
  v.count = std::max(0, static_cast<int>(last - first) + 1);
  return v;
}

/// Lowers `t` to the nearest ray_box hit among the boxes set in `mask`,
/// where bit b of word w stands for views[64 w + b]. `views` is sorted by
/// `near`, so the first box whose bound reaches `t` ends the search: it
/// and every later box return 1e9f or a distance >= t. The nearest hit is
/// a min over NaN-free floats, so neither the visiting order nor the
/// skipped boxes change it.
float nearest_box_hit(float t, const BoxView* views, const uint64_t* mask,
                      std::size_t words, float ox, float oz, float dx,
                      float dy, float dz) {
  for (std::size_t w = 0; w < words; ++w) {
    for (uint64_t m = mask[w]; m != 0; m &= m - 1) {
      const BoxView& v = views[64 * w + std::countr_zero(m)];
      if (v.near >= t) return t;
      t = std::min(t, ray_box(ox, 0.0f, oz, dx, dy, dz, v.box));
    }
  }
  return t;
}

void validate(const LidarSpec& s) {
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("generate_scan: " + s.name + ": " + what);
  };
  if (s.beams < 1 || s.azimuth_steps < 1 || s.frames < 1)
    fail("beams, azimuth_steps and frames must be at least 1, got " +
         std::to_string(s.beams) + ", " + std::to_string(s.azimuth_steps) +
         " and " + std::to_string(s.frames));
  const int64_t rays = static_cast<int64_t>(s.beams) * s.azimuth_steps;
  if (rays > std::numeric_limits<int>::max() / s.frames)
    fail("beams * azimuth_steps * frames exceeds the int range");
  if (s.num_vehicles < 0 || s.num_walls < 0 ||
      s.num_vehicles > std::numeric_limits<int>::max() - s.num_walls)
    fail("num_vehicles and num_walls must be non-negative with an int sum");
  for (const double v : {s.fov_up_deg, s.fov_down_deg, s.max_range_m,
                         s.sensor_height_m, s.dropout, s.range_noise_m,
                         s.ego_speed_mps, s.frame_dt_s})
    if (!std::isfinite(v)) fail("every real-valued field must be finite");
  if (!(-90.0 <= s.fov_down_deg && s.fov_down_deg <= s.fov_up_deg &&
        s.fov_up_deg <= 90.0))
    fail("need -90 <= fov_down_deg <= fov_up_deg <= 90, got " +
         std::to_string(s.fov_down_deg) + " and " +
         std::to_string(s.fov_up_deg));
  if (!(s.max_range_m > 0)) fail("max_range_m must be positive");
  if (!(s.range_noise_m > 0)) fail("range_noise_m must be positive");
  if (!(s.dropout >= 0 && s.dropout <= 1))
    fail("dropout must lie in [0, 1]");
}

}  // namespace

std::vector<Point3> generate_scan(const LidarSpec& spec, uint64_t seed) {
  validate(spec);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  // det-lint: allow(std-distribution): the scan goldens pin libstdc++'s
  // uniform sequence.
  std::uniform_real_distribution<float> uni(0.0f, 1.0f);
  // det-lint: allow(std-distribution): the scan goldens pin libstdc++'s
  // normal sequence.
  std::normal_distribution<float> noise(0.0f,
                                        static_cast<float>(spec.range_noise_m));

  // Static scene: vehicles near the road, building walls further out.
  std::vector<Box> boxes;
  boxes.reserve(static_cast<std::size_t>(spec.num_vehicles + spec.num_walls));
  for (int i = 0; i < spec.num_vehicles; ++i) {
    const float r = 5.0f + 35.0f * uni(rng);
    const float a = 6.2831853f * uni(rng);
    boxes.push_back(Box{r * std::cos(a), r * std::sin(a), 0.8f,
                        2.2f + uni(rng), 0.9f + 0.4f * uni(rng),
                        0.8f + 0.4f * uni(rng)});
  }
  for (int i = 0; i < spec.num_walls; ++i) {
    const float r = 12.0f + 40.0f * uni(rng);
    const float a = 6.2831853f * uni(rng);
    const bool along_x = uni(rng) < 0.5f;
    boxes.push_back(Box{r * std::cos(a), r * std::sin(a), 3.0f,
                        along_x ? 8.0f + 10.0f * uni(rng) : 0.4f,
                        along_x ? 0.4f : 8.0f + 10.0f * uni(rng), 3.0f});
  }

  std::vector<Point3> points;
  points.reserve(static_cast<std::size_t>(spec.beams * spec.azimuth_steps *
                                          spec.frames));
  const double fov_up = spec.fov_up_deg * M_PI / 180.0;
  const double fov_dn = spec.fov_down_deg * M_PI / 180.0;

  struct Yaw {
    float cos = 0, sin = 0;
  };
  Scratch<Yaw, kInlineAzimuths> yaw_scratch(
      static_cast<std::size_t>(spec.azimuth_steps));
  Yaw* yaws = yaw_scratch.data();
  for (int azi = 0; azi < spec.azimuth_steps; ++azi) {
    const double yaw = 2.0 * M_PI * azi / spec.azimuth_steps;
    yaws[azi] = Yaw{static_cast<float>(std::cos(yaw)),
                    static_cast<float>(std::sin(yaw))};
  }
  Scratch<BoxView, kInlineBoxes> view_scratch(boxes.size());
  BoxView* views = view_scratch.data();
  const std::size_t num_views = boxes.size();
  // Per azimuth, a bit set of the sorted boxes its rays can hit.
  const std::size_t words = (num_views + 63) / 64;
  const std::size_t num_masks =
      static_cast<std::size_t>(spec.azimuth_steps) * words;
  Scratch<uint64_t, kInlineAzimuths> mask_scratch(num_masks);
  uint64_t* masks = mask_scratch.data();

  for (int f = 0; f < spec.frames; ++f) {
    // Ego moves forward along +x; older frames are transformed into the
    // newest frame (standard multi-sweep aggregation).
    const float ego_x = -static_cast<float>(spec.ego_speed_mps *
                                            spec.frame_dt_s * f);
    const float oz = static_cast<float>(spec.sensor_height_m);
    for (std::size_t i = 0; i < num_views; ++i)
      views[i] = view_from(boxes[i], static_cast<int>(i), ego_x,
                           spec.azimuth_steps);
    std::sort(views, views + num_views,
              [](const BoxView& a, const BoxView& b) {
                return a.near < b.near ||
                       (a.near == b.near && a.index < b.index);
              });
    std::fill(masks, masks + num_masks, uint64_t{0});
    for (std::size_t i = 0; i < num_views; ++i) {
      const uint64_t bit = uint64_t{1} << (i % 64);
      const int before_wrap = spec.azimuth_steps - views[i].first;
      for (int k = 0; k < views[i].count; ++k) {
        const int azi = k < before_wrap ? views[i].first + k : k - before_wrap;
        masks[static_cast<std::size_t>(azi) * words + i / 64] |= bit;
      }
    }
    for (int b = 0; b < spec.beams; ++b) {
      const double pitch =
          fov_dn + (fov_up - fov_dn) * b / std::max(1, spec.beams - 1);
      const float cp = static_cast<float>(std::cos(pitch));
      const float sp = static_cast<float>(std::sin(pitch));
      for (int azi = 0; azi < spec.azimuth_steps; ++azi) {
        if (uni(rng) < spec.dropout) continue;
        const float dx = cp * yaws[azi].cos;
        const float dy = cp * yaws[azi].sin;
        const float dz = sp;

        // Nearest hit among ground plane (z=0) and boxes.
        float t = 1e9f;
        if (dz < -1e-6f) t = std::min(t, -oz / dz);
        t = nearest_box_hit(t, views, masks + azi * words, words, ego_x, oz,
                            dx, dy, dz);
        if (t >= static_cast<float>(spec.max_range_m)) continue;
        t += noise(rng);

        Point3 p;
        p.x = ego_x + t * dx;
        p.y = t * dy;
        p.z = oz + t * dz;
        p.intensity = 0.2f + 0.8f * uni(rng);
        p.time = static_cast<float>(f * spec.frame_dt_s);
        points.push_back(p);
      }
    }
  }
  return points;
}

}  // namespace ts
