// Unit tests for the fixed-point LLR arithmetic: quantizer round-trip,
// saturation behaviour, boxplus-LUT accuracy against the exact operator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <utility>
#include <vector>

#include "quant/fixed.hpp"
#include "util/math.hpp"

namespace dq = dvbs2::quant;

TEST(QuantSpec, SixBitRanges) {
    EXPECT_EQ(dq::kQuant6.max_raw(), 31);
    EXPECT_EQ(dq::kQuant6.min_raw(), -31);
    EXPECT_DOUBLE_EQ(dq::kQuant6.step(), 0.25);
    EXPECT_DOUBLE_EQ(dq::kQuant6.max_value(), 7.75);
}

TEST(QuantSpec, FiveBitRanges) {
    EXPECT_EQ(dq::kQuant5.max_raw(), 15);
    EXPECT_DOUBLE_EQ(dq::kQuant5.step(), 0.5);
    EXPECT_DOUBLE_EQ(dq::kQuant5.max_value(), 7.5);
}

TEST(Quantize, RoundsToNearest) {
    EXPECT_EQ(dq::quantize(0.0, dq::kQuant6), 0);
    EXPECT_EQ(dq::quantize(0.25, dq::kQuant6), 1);
    EXPECT_EQ(dq::quantize(0.30, dq::kQuant6), 1);
    EXPECT_EQ(dq::quantize(-0.30, dq::kQuant6), -1);
    EXPECT_EQ(dq::quantize(1.0, dq::kQuant6), 4);
}

TEST(Quantize, SaturatesSymmetrically) {
    EXPECT_EQ(dq::quantize(100.0, dq::kQuant6), 31);
    EXPECT_EQ(dq::quantize(-100.0, dq::kQuant6), -31);
    EXPECT_EQ(dq::quantize(1e12, dq::kQuant6), 31);
    EXPECT_EQ(dq::quantize(-1e12, dq::kQuant6), -31);
}

TEST(Quantize, DequantizeRoundTripWithinHalfStep) {
    for (double x = -7.7; x <= 7.7; x += 0.013) {
        const auto raw = dq::quantize(x, dq::kQuant6);
        EXPECT_NEAR(dq::dequantize(raw, dq::kQuant6), x, dq::kQuant6.step() / 2 + 1e-12);
    }
}

TEST(SatAdd, SaturatesBothWays) {
    EXPECT_EQ(dq::sat_add(30, 30, dq::kQuant6), 31);
    EXPECT_EQ(dq::sat_add(-30, -30, dq::kQuant6), -31);
    EXPECT_EQ(dq::sat_add(10, -3, dq::kQuant6), 7);
}

TEST(BoxplusTable, SpecMismatchDetection) {
    dq::BoxplusTable t5(dq::kQuant5);
    EXPECT_EQ(t5.spec(), dq::kQuant5);
}

TEST(BoxplusTable, MatchesExactOperatorWithinOneStep) {
    dq::BoxplusTable t(dq::kQuant6);
    const double step = dq::kQuant6.step();
    for (int a = -31; a <= 31; a += 3) {
        for (int b = -31; b <= 31; b += 3) {
            const double exact = dvbs2::util::boxplus_exact(a * step, b * step);
            const double got = dq::dequantize(t.boxplus(a, b), dq::kQuant6);
            EXPECT_NEAR(got, exact, 1.5 * step) << a << " " << b;
        }
    }
}

TEST(BoxplusTable, ZeroAbsorbs) {
    dq::BoxplusTable t(dq::kQuant6);
    for (int a = -31; a <= 31; a += 5) EXPECT_EQ(t.boxplus(a, 0), 0);
}

TEST(BoxplusTable, SignRule) {
    dq::BoxplusTable t(dq::kQuant6);
    EXPECT_GT(t.boxplus(20, 20), 0);
    EXPECT_LT(t.boxplus(20, -20), 0);
    EXPECT_GT(t.boxplus(-20, -20), 0);
}

TEST(BoxplusTable, CommutativeOverFullRange) {
    dq::BoxplusTable t(dq::kQuant6);
    for (int a = -31; a <= 31; a += 2)
        for (int b = -31; b <= 31; b += 2) EXPECT_EQ(t.boxplus(a, b), t.boxplus(b, a));
}

TEST(BoxplusTable, MagnitudeNeverExceedsMinInput) {
    // |a ⊞ b| ≤ min(|a|,|b|) + corr(0); with rounding it must stay within
    // one step above the min magnitude.
    dq::BoxplusTable t(dq::kQuant6);
    for (int a = -31; a <= 31; a += 2) {
        for (int b = -31; b <= 31; b += 2) {
            const int m = std::min(std::abs(a), std::abs(b));
            EXPECT_LE(std::abs(t.boxplus(a, b)), m + 3) << a << " " << b;
        }
    }
}

TEST(MinSumRaw, MatchesDefinition) {
    EXPECT_EQ(dq::boxplus_minsum_raw(5, 9), 5);
    EXPECT_EQ(dq::boxplus_minsum_raw(-5, 9), -5);
    EXPECT_EQ(dq::boxplus_minsum_raw(-5, -9), 5);
    EXPECT_EQ(dq::boxplus_minsum_raw(0, -9), 0);
}

TEST(BoxplusTable, RejectsBadSpecs) {
    EXPECT_THROW(dq::BoxplusTable(dq::QuantSpec{1, 0}), std::runtime_error);
    EXPECT_THROW(dq::BoxplusTable(dq::QuantSpec{6, 6}), std::runtime_error);
    EXPECT_THROW(dq::BoxplusTable(dq::QuantSpec{20, 2}), std::runtime_error);
}

// The pair ROM is Eq. 5 stored as a table: boxplus must equal the formula,
// written out here from corr() and saturate, for every pair of stored words
// of every spec the ROM covers (2-8 bits, every frac), and for sampled pairs
// of wider specs, which evaluate the formula per call.
TEST(BoxplusTable, PairRomEqualsEq5OnEveryWordPair) {
    const auto eq5 = [](const dq::BoxplusTable& t, dq::QLLR a, dq::QLLR b) {
        const dq::QLLR m = std::min(std::abs(a), std::abs(b));
        const dq::QLLR signed_m = (a < 0) != (b < 0) ? -m : m;
        return dq::saturate(signed_m + t.corr(std::abs(a + b)) - t.corr(std::abs(a - b)),
                            t.spec());
    };
    for (int total = 2; total <= 8; ++total) {
        for (int frac = 0; frac < total; ++frac) {
            const dq::QuantSpec spec{total, frac};
            const dq::BoxplusTable t(spec);
            const dq::QLLR max = spec.max_raw();
            for (dq::QLLR a = -max; a <= max; ++a)
                for (dq::QLLR b = -max; b <= max; ++b)
                    ASSERT_EQ(t.boxplus(a, b), eq5(t, a, b))
                        << "q" << total << "." << frac << " a=" << a << " b=" << b;
        }
    }
    std::mt19937 rng(0xB0C5);
    for (const dq::QuantSpec spec : {dq::QuantSpec{12, 4}, dq::QuantSpec{16, 6}}) {
        const dq::BoxplusTable t(spec);
        const dq::QLLR max = spec.max_raw();
        std::uniform_int_distribution<dq::QLLR> word(-max, max);
        std::vector<std::pair<dq::QLLR, dq::QLLR>> pairs;
        for (const dq::QLLR a : {-max, -1, 0, 1, max})
            for (const dq::QLLR b : {-max, -1, 0, 1, max}) pairs.emplace_back(a, b);
        for (int i = 0; i < 20000; ++i) pairs.emplace_back(word(rng), word(rng));
        for (const auto& [a, b] : pairs)
            ASSERT_EQ(t.boxplus(a, b), eq5(t, a, b))
                << "q" << spec.total_bits << "." << spec.frac_bits << " a=" << a << " b=" << b;
    }
}

#ifndef NDEBUG
// A word outside ±max_raw would index past the pair ROM; debug builds stop.
TEST(BoxplusTableDeathTest, OperandOutsideStoredRangeAsserts) {
    const dq::BoxplusTable t(dq::kQuant6);
    EXPECT_DEATH((void)t.boxplus(32, 0), "");
    EXPECT_DEATH((void)t.boxplus(0, -32), "");
}
#endif
