// IEEE 754 binary16 ("half") implemented in software.
//
// TorchSparse's FP16 pipeline (paper §4.3.1) stores features in half
// precision to halve DRAM traffic and to enable tensor-core matmul. This
// environment has no hardware FP16, so we implement the format bit-exactly:
// round-to-nearest-even conversion from float, and exact widening back.
// All arithmetic is performed in float after widening, which matches how
// CUDA tensor cores accumulate FP16 products in FP32.
#pragma once

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>

namespace ts {

/// A 16-bit IEEE 754 binary16 value. Trivially copyable, 2 bytes.
class half_t {
 public:
  half_t() = default;

  /// Converts from float with round-to-nearest-even (the CUDA default).
  explicit half_t(float f) : bits_(float_to_bits(f)) {}

  /// Widens exactly to float (every binary16 value is representable).
  float to_float() const { return bits_to_float(bits_); }
  explicit operator float() const { return to_float(); }

  /// Raw bit pattern (sign:1, exponent:5, mantissa:10).
  uint16_t bits() const { return bits_; }
  static half_t from_bits(uint16_t b) {
    half_t h;
    h.bits_ = b;
    return h;
  }

  friend bool operator==(half_t a, half_t b) { return a.bits_ == b.bits_; }

  static constexpr float max_value() { return 65504.0f; }
  static constexpr float min_positive_normal() { return 6.103515625e-5f; }

  static uint16_t float_to_bits(float f) {
    uint32_t x;
    std::memcpy(&x, &f, sizeof(x));
    const uint32_t sign = (x >> 16) & 0x8000u;
    const uint32_t abs = x & 0x7fffffffu;

    if (abs >= 0x7f800000u) {  // Inf or NaN.
      // Preserve NaN-ness; quiet the NaN.
      const uint32_t mant = (abs > 0x7f800000u) ? 0x0200u : 0u;
      return static_cast<uint16_t>(sign | 0x7c00u | mant);
    }
    if (abs >= 0x477ff000u) {  // Rounds to >= 2^16: overflow to infinity.
      return static_cast<uint16_t>(sign | 0x7c00u);
    }
    if (abs < 0x38800000u) {  // Subnormal half (or zero).
      // abs < 2^-14. Shift mantissa (with implicit bit) into subnormal
      // position and round to nearest even.
      if (abs < 0x33000000u) return static_cast<uint16_t>(sign);  // < 2^-25
      // Value = m * 2^(exp-150) with 24-bit m; subnormal halves are
      // q * 2^-24, so q = round(m * 2^(exp-126)) = m >> (126 - exp).
      const int exp = static_cast<int>(abs >> 23);
      const uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
      const int shift = 126 - exp;  // bits to discard
      const uint32_t q = mant >> shift;
      const uint32_t rem = mant & ((1u << shift) - 1);
      const uint32_t halfway = 1u << (shift - 1);
      uint32_t rounded = q;
      if (rem > halfway || (rem == halfway && (q & 1u))) rounded++;
      return static_cast<uint16_t>(sign | rounded);
    }
    // Normal half. Re-bias exponent from 127 to 15, keep top 10 mantissa
    // bits, round to nearest even.
    const uint32_t mant = abs & 0x7fffffu;
    const uint32_t exp = (abs >> 23) - 127 + 15;
    uint32_t q = (exp << 10) | (mant >> 13);
    const uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (q & 1u))) q++;
    return static_cast<uint16_t>(sign | q);
  }

  static float bits_to_float(uint16_t h) {
    const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
    const uint32_t exp = (h >> 10) & 0x1fu;
    const uint32_t mant = h & 0x3ffu;
    uint32_t x;
    if (exp == 0) {
      if (mant == 0) {
        x = sign;  // +-0
      } else {
        // Subnormal: value = mant * 2^-24. Normalize so the leading bit
        // lands in the implicit-1 position (bit 10 of the half mantissa).
        int e = 0;  // net exponent adjustment from shifting
        uint32_t m = mant;
        while (!(m & 0x400u)) {
          m <<= 1;
          e--;
        }
        m &= 0x3ffu;
        // exponent field: 127 - 15 + 1 + e = 113 + e (e in [-10, 0]).
        x = sign | static_cast<uint32_t>((113 + e) << 23) | (m << 13);
      }
    } else if (exp == 0x1f) {
      x = sign | 0x7f800000u | (mant << 13);  // Inf / NaN
    } else {
      x = sign | ((exp - 15 + 127) << 23) | (mant << 13);
    }
    float f;
    std::memcpy(&f, &x, sizeof(f));
    return f;
  }

 private:
  uint16_t bits_ = 0;
};

static_assert(sizeof(half_t) == 2, "half_t must be 2 bytes");

/// Round-trips a float through binary16 (the quantization TorchSparse's
/// FP16 mode applies to every feature value). Bit-identical to
/// `half_t(f).to_float()` for every float input, but computed float to
/// float without branches, so a loop over it auto-vectorizes:
///   - normal range: round the magnitude bits to 10 mantissa bits, ties to
///     even, by integer add-and-mask (a carry into the exponent is the
///     correct rounding up to the next binade);
///   - subnormal range (|f| < 2^-14): adding 0.5f puts the binary point of
///     the sum at 2^-24, the binary16 subnormal spacing, so the float add
///     itself rounds to nearest even on that grid, and subtracting 0.5f
///     back is exact;
///   - |f| >= 65520 (0x477ff000) rounds to Inf; NaN becomes the quiet NaN
///     half_t produces;
/// and the cases are selected with masks. The sign is OR-ed back in.
inline float fp16_round(float f) {
  static_assert(FLT_EVAL_METHOD == 0,
                "the subnormal path needs float-precision arithmetic");
  const uint32_t x = std::bit_cast<uint32_t>(f);
  const uint32_t sign = x & 0x80000000u;
  const uint32_t mag = x ^ sign;
  const int32_t a = static_cast<int32_t>(mag);  // < 2^31: signed compares
  const uint32_t normal = (mag + 0xfffu + ((mag >> 13) & 1u)) & ~0x1fffu;
  const uint32_t subnormal =
      std::bit_cast<uint32_t>((std::bit_cast<float>(mag) + 0.5f) - 0.5f);
  const uint32_t is_sub = 0u - static_cast<uint32_t>(a < 0x38800000);
  const uint32_t is_inf = 0u - static_cast<uint32_t>(a >= 0x477ff000);
  const uint32_t is_nan = 0u - static_cast<uint32_t>(a > 0x7f800000);
  uint32_t r = (subnormal & is_sub) | (normal & ~is_sub);
  r = (0x7f800000u & is_inf) | (r & ~is_inf);
  r = (0x7fc00000u & is_nan) | (r & ~is_nan);
  return std::bit_cast<float>(r | sign);
}

}  // namespace ts
