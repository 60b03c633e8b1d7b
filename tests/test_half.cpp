// IEEE binary16 software implementation tests.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "tensor/half.hpp"

namespace ts {
namespace {

TEST(Half, ZeroAndSign) {
  EXPECT_EQ(half_t(0.0f).bits(), 0x0000);
  EXPECT_EQ(half_t(-0.0f).bits(), 0x8000);
  EXPECT_EQ(half_t(0.0f).to_float(), 0.0f);
  EXPECT_TRUE(std::signbit(half_t(-0.0f).to_float()));
}

TEST(Half, ExactSmallIntegers) {
  // All integers up to 2048 are exactly representable in binary16.
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(half_t(f).to_float(), f) << "i=" << i;
  }
}

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(half_t(1.0f).bits(), 0x3c00);
  EXPECT_EQ(half_t(-2.0f).bits(), 0xc000);
  EXPECT_EQ(half_t(0.5f).bits(), 0x3800);
  EXPECT_EQ(half_t(65504.0f).bits(), 0x7bff);  // max finite
  EXPECT_EQ(half_t(6.103515625e-5f).bits(), 0x0400);  // min normal
  EXPECT_EQ(half_t(5.9604644775390625e-8f).bits(), 0x0001);  // min subnormal
}

TEST(Half, OverflowToInfinity) {
  EXPECT_EQ(half_t(65520.0f).bits(), 0x7c00);  // rounds up to inf
  EXPECT_EQ(half_t(1e10f).bits(), 0x7c00);
  EXPECT_EQ(half_t(-1e10f).bits(), 0xfc00);
  EXPECT_TRUE(std::isinf(half_t(1e10f).to_float()));
}

TEST(Half, InfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half_t(inf).bits(), 0x7c00);
  EXPECT_EQ(half_t(-inf).bits(), 0xfc00);
  EXPECT_TRUE(std::isnan(half_t(std::nanf("")).to_float()));
}

TEST(Half, SubnormalRange) {
  // 2^-25 is halfway between 0 and the smallest subnormal: ties-to-even
  // rounds to 0.
  EXPECT_EQ(half_t(std::ldexp(1.0f, -25)).bits(), 0x0000);
  // Just above halfway rounds up to the smallest subnormal.
  EXPECT_EQ(half_t(std::ldexp(1.0f, -25) * 1.0001f).bits(), 0x0001);
  // Subnormals round-trip exactly.
  for (uint16_t b = 1; b < 0x400; b += 13) {
    const half_t h = half_t::from_bits(b);
    EXPECT_EQ(half_t(h.to_float()).bits(), b);
  }
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even
  // keeps 1.0 (even mantissa).
  EXPECT_EQ(half_t(1.0f + std::ldexp(1.0f, -11)).bits(), 0x3c00);
  // (1+2^-10) + 2^-11 is halfway with odd mantissa: rounds up.
  const float f = 1.0f + std::ldexp(1.0f, -10) + std::ldexp(1.0f, -11);
  EXPECT_EQ(half_t(f).bits(), 0x3c02);
}

TEST(Half, RoundTripAllFiniteBitPatterns) {
  // Property: float(half) -> half is the identity on every finite half.
  for (uint32_t b = 0; b < 0x10000; ++b) {
    const uint16_t bits = static_cast<uint16_t>(b);
    const uint16_t exp = (bits >> 10) & 0x1f;
    if (exp == 0x1f) continue;  // inf/nan handled separately
    const half_t h = half_t::from_bits(bits);
    EXPECT_EQ(half_t(h.to_float()).bits(), bits) << "bits=" << b;
  }
}

TEST(Half, RoundingErrorBound) {
  // Property: relative rounding error <= 2^-11 for normal-range values.
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<float> dist(-60000.0f, 60000.0f);
  for (int i = 0; i < 20000; ++i) {
    const float f = dist(rng);
    if (std::fabs(f) < half_t::min_positive_normal()) continue;
    const float r = fp16_round(f);
    EXPECT_LE(std::fabs(r - f), std::fabs(f) * (1.0f / 2048.0f) + 1e-7f);
  }
}

TEST(Half, MonotoneOnSortedInputs) {
  // Property: rounding preserves (non-strict) order.
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  for (int i = 0; i < 5000; ++i) {
    float a = dist(rng), b = dist(rng);
    if (a > b) std::swap(a, b);
    EXPECT_LE(fp16_round(a), fp16_round(b));
  }
}

/// Collects every input on which the branch-free fp16_round differs in
/// bits from the reference half_t round-trip.
class RoundChecker {
 public:
  void check(uint32_t in_bits) {
    ++checked_;
    const float f = std::bit_cast<float>(in_bits);
    const uint32_t got = std::bit_cast<uint32_t>(fp16_round(f));
    const uint32_t want = std::bit_cast<uint32_t>(half_t(f).to_float());
    if (got != want && bad_.size() < 8) bad_.push_back(in_bits);
  }
  /// Checks `in_bits` and its neighbours up to `ulps` floats away, with
  /// both signs.
  void check_around(uint32_t in_bits, uint32_t ulps) {
    const uint32_t mag = in_bits & 0x7fffffffu;
    for (uint32_t d = 0; d <= 2 * ulps; ++d) {
      const uint32_t b = mag + d - ulps;  // wraps only below +0
      if (b > 0x7fffffffu) continue;
      check(b);
      check(b | 0x80000000u);
    }
  }
  std::size_t checked() const { return checked_; }
  const std::vector<uint32_t>& mismatches() const { return bad_; }

 private:
  std::size_t checked_ = 0;
  std::vector<uint32_t> bad_;
};

std::string hex_list(const std::vector<uint32_t>& v) {
  std::string s;
  char buf[16];
  for (uint32_t b : v) {
    std::snprintf(buf, sizeof(buf), "0x%08x ", b);
    s += buf;
  }
  return s;
}

TEST(Half, Fp16RoundMatchesReferenceOnEdgeSet) {
  // fp16_round is a branch-free float-to-float rewrite of the half_t
  // round-trip; this pins it bit for bit on every input class where the
  // two could part ways. (The full 2^32 sweep also matches, but takes
  // tens of seconds even optimised.)
  RoundChecker rc;
  // Every binary16 value, including Inf and NaN encodings.
  for (uint32_t h = 0; h < 0x10000; ++h)
    rc.check(std::bit_cast<uint32_t>(
        half_t::from_bits(static_cast<uint16_t>(h)).to_float()));
  // Every midpoint between adjacent finite binary16 magnitudes, +-2 float
  // ulps: the round-to-nearest-even ties and their neighbours, from
  // 2^-25 (between 0 and the smallest subnormal) up to 65504's neighbour.
  for (uint32_t h = 0; h < 0x7bff; ++h) {
    const float lo = half_t::from_bits(static_cast<uint16_t>(h)).to_float();
    const float hi =
        half_t::from_bits(static_cast<uint16_t>(h + 1)).to_float();
    rc.check_around(std::bit_cast<uint32_t>(lo + (hi - lo) / 2), 2);
  }
  // The overflow threshold 65520 and the underflow midpoint 2^-25.
  rc.check_around(0x477ff000u, 2);
  rc.check_around(0x33000000u, 2);
  // Infinities and NaN payloads (quiet, signalling, all-ones).
  for (uint32_t b : {0x7f800000u, 0x7f800001u, 0x7f800100u, 0x7fa00000u,
                     0x7fc00000u, 0x7fc00001u, 0x7fffe000u, 0x7fffffffu}) {
    rc.check(b);
    rc.check(b | 0x80000000u);
  }
  // Every float exponent field (subnormal floats included) with mantissas
  // at the binary16 rounding boundaries, and every float-subnormal bit
  // length.
  for (uint32_t e = 0; e < 256; ++e)
    for (uint32_t m : {0x0u, 0x1u, 0xfffu, 0x1000u, 0x1001u, 0x1fffu,
                       0x2000u, 0x3000u, 0x400000u, 0x7fe000u, 0x7ff000u,
                       0x7fffffu})
      rc.check_around((e << 23) | m, 0);
  for (uint32_t bit = 0; bit < 23; ++bit) {
    rc.check_around(1u << bit, 1);
    rc.check_around((2u << bit) - 1, 1);
  }
  // A 2^20-stride sweep of everything else, with hashed low bits so the
  // mantissa tails vary.
  for (uint64_t k = 0; k < (1u << 12); ++k) {
    const auto hi = static_cast<uint32_t>(k << 20);
    rc.check(hi);
    rc.check(hi | ((static_cast<uint32_t>(k) * 2654435761u) & 0xfffffu));
  }
  EXPECT_GT(rc.checked(), 390000u);
  EXPECT_TRUE(rc.mismatches().empty())
      << "fp16_round differs from half_t at " << hex_list(rc.mismatches());
}

TEST(Half, Fp16RoundKeepsSignOfZeroAndUnderflow) {
  EXPECT_EQ(std::bit_cast<uint32_t>(fp16_round(-0.0f)), 0x80000000u);
  EXPECT_EQ(std::bit_cast<uint32_t>(fp16_round(-1e-10f)), 0x80000000u);
  EXPECT_EQ(std::bit_cast<uint32_t>(fp16_round(1e-10f)), 0x00000000u);
  EXPECT_EQ(fp16_round(-65520.0f), -std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::signbit(fp16_round(-std::nanf(""))));
}

}  // namespace
}  // namespace ts
