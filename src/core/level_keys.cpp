#include "core/level_keys.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

namespace ts {

uint64_t* radix_sort_keys(uint64_t* keys, uint64_t* key_tmp, int32_t* pos,
                          int32_t* pos_tmp, std::size_t n) {
  constexpr int kDigits = 8;
  if (n < 2) return keys;
  std::array<std::array<std::size_t, 256>, kDigits> count{};
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t k = keys[i];
    for (int d = 0; d < kDigits; ++d) ++count[d][(k >> (8 * d)) & 0xff];
  }
  uint64_t* src = keys;
  uint64_t* dst = key_tmp;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    auto& next = count[d];
    if (next[(src[0] >> shift) & 0xff] == n) continue;  // every key agrees
    std::size_t sum = 0;
    for (std::size_t& c : next) sum += std::exchange(c, sum);
    if (pos) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = next[(src[i] >> shift) & 0xff]++;
        dst[j] = src[i];
        pos_tmp[j] = pos[i];
      }
      std::swap(pos, pos_tmp);
    } else {
      for (std::size_t i = 0; i < n; ++i)
        dst[next[(src[i] >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

LevelKeys level_keys(const std::vector<Coord>& coords) {
  LevelKeys s;
  const std::size_t n = coords.size();
  s.keys.resize(n + 1);
  bool ascending = true;
  if (n > 0) s.lo = s.hi = coords[0];
  for (std::size_t i = 0; i < n; ++i) {
    const Coord& c = coords[i];
    s.keys[i] = pack_coord(c);
    if (i > 0) ascending &= s.keys[i - 1] < s.keys[i];
    s.lo = {std::min(s.lo.b, c.b), std::min(s.lo.x, c.x),
            std::min(s.lo.y, c.y), std::min(s.lo.z, c.z)};
    s.hi = {std::max(s.hi.b, c.b), std::max(s.hi.x, c.x),
            std::max(s.hi.y, c.y), std::max(s.hi.z, c.z)};
  }
  s.keys[n] = ~uint64_t{0};
  if (ascending) return s;
  std::vector<uint64_t> key_tmp(n + 1);
  std::vector<int32_t> pos(n), pos_tmp(n);
  std::iota(pos.begin(), pos.end(), 0);
  if (radix_sort_keys(s.keys.data(), key_tmp.data(), pos.data(),
                      pos_tmp.data(), n) != s.keys.data()) {
    s.keys.swap(key_tmp);
    pos.swap(pos_tmp);
    s.keys[n] = ~uint64_t{0};
  }
  s.pos = std::move(pos);
  return s;
}

}  // namespace ts
