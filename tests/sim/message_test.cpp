#include "sim/message.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace ftc::sim {
namespace {

TEST(FixedPoint, RoundTripExactForRepresentable) {
  for (double v : {0.0, 0.5, 0.25, 1.0, 123.0, 0.0009765625}) {
    EXPECT_DOUBLE_EQ(decode_fixed(encode_fixed(v)), v);
  }
}

TEST(FixedPoint, QuantizationErrorBounded) {
  for (double v : {0.1, 0.3333333333, 0.7182818, 1e-7, 0.9999999}) {
    const double err = std::abs(decode_fixed(encode_fixed(v)) - v);
    EXPECT_LE(err, 0.5 / kFixedPointScale);
  }
}

TEST(FixedPoint, NegativeValues) {
  EXPECT_DOUBLE_EQ(decode_fixed(encode_fixed(-0.5)), -0.5);
  const double err = std::abs(decode_fixed(encode_fixed(-0.123)) + 0.123);
  EXPECT_LE(err, 0.5 / kFixedPointScale);
}

TEST(FixedPoint, MonotoneNonDecreasing) {
  double prev = decode_fixed(encode_fixed(0.0));
  for (int i = 1; i <= 1000; ++i) {
    const double v = static_cast<double>(i) / 1000.0;
    const double dq = decode_fixed(encode_fixed(v));
    EXPECT_GE(dq, prev);
    prev = dq;
  }
}

TEST(FixedPoint, IdempotentQuantization) {
  for (double v : {0.1, 0.77, 3.14159}) {
    const double once = decode_fixed(encode_fixed(v));
    EXPECT_DOUBLE_EQ(decode_fixed(encode_fixed(once)), once);
  }
}

// The LP reference solver shares encode_fixed with the mirror and the
// process, so only a direct comparison with the library rounding can catch
// a quantizer bug.
TEST(FixedPoint, EncodeEqualsLlroundOfScaledValue) {
  const double unit = 1.0 / kFixedPointScale;  // 2^-40, one fixed-point step
  std::vector<double> values = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 1e-310, 1e-300,
      0x1p52 * unit, 0x1p52 * unit + 0.5 * unit, 0x1p53 * unit,
      1e6, -1e6, 0x1p61 * unit, 0x1p62 * unit, -0x1p62 * unit,
      std::nextafter(0x1p62 * unit, 0.0), 1e300, -1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  // ±x.5 ties (round half away from zero) and their one-ulp neighbors.
  for (double whole : {0.0, 1.0, 2.0, 3.0, 1e6, 0x1p40, 0x1p51 - 1.0}) {
    const double tie = (whole + 0.5) * unit;
    for (double v : {tie, std::nextafter(tie, 0.0), std::nextafter(tie, 1.0)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) values.push_back(rng.uniform(-2.0, 2.0));
  for (double v : values) {
    EXPECT_EQ(encode_fixed(v),
              static_cast<Word>(std::llround(v * kFixedPointScale)))
        << "value " << v;
  }
}

TEST(FixedPoint, DecodeEqualsDivisionByScale) {
  for (Word w : {Word{0}, Word{1}, Word{-1}, Word{3}, Word{1} << 40,
                 (Word{1} << 53) + 1, std::numeric_limits<Word>::max(),
                 std::numeric_limits<Word>::min()}) {
    EXPECT_EQ(decode_fixed(w), static_cast<double>(w) / kFixedPointScale);
  }
}

}  // namespace
}  // namespace ftc::sim
