// Tests for the degree-profile solver and the DVB-S2X extension rates:
// feasibility, Eq. 6 compliance, reconstruction of the standard profiles,
// and end-to-end decodability of derived codes.
#include <gtest/gtest.h>

#include <ostream>

#include "code/profile_solver.hpp"
#include "code/tanner.hpp"
#include "code/validate.hpp"
#include "comm/modem.hpp"
#include "core/decoder.hpp"
#include "enc/encoder.hpp"

namespace dvbs2::code {
// gtest's default printer dumps the param's bytes, which include the label
// string's heap pointer, so the listed test names changed from run to run.
// Printing the label keeps them stable.
void PrintTo(const XRateSpec& spec, std::ostream* os) { *os << spec.label; }
}  // namespace dvbs2::code

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
using dvbs2::util::BitVec;

TEST(ProfileSolver, RejectsImpossibleGeometry) {
    EXPECT_FALSE(dc::derive_profile(64800, 32401, 360, 4.0).has_value());  // K not aligned
    EXPECT_FALSE(dc::derive_profile(64801, 32400, 360, 4.0).has_value());  // N−K not aligned
    EXPECT_FALSE(dc::derive_profile(100, 200, 10, 4.0).has_value());       // K ≥ N
}

TEST(ProfileSolver, ReproducesRateHalfFamilyShape) {
    // For (64800, 32400) with the standard's average degree 5.0, the solver
    // must find a valid Eq. 6 profile (not necessarily the standard's exact
    // split, but the same structural class).
    const auto cp = dc::derive_profile(64800, 32400, 360, 5.0);
    ASSERT_TRUE(cp.has_value());
    EXPECT_EQ(cp->q, 90);
    EXPECT_NO_THROW(cp->validate());
    EXPECT_EQ(cp->e_in() % (360LL * 90), 0);
    // Average degree within half a unit of the target.
    EXPECT_NEAR(static_cast<double>(cp->e_in()) / cp->k, 5.0, 0.5);
}

TEST(ProfileSolver, TargetDegreeIsRespectedWhenFeasible) {
    const auto lo = dc::derive_profile(64800, 32400, 360, 3.5);
    const auto hi = dc::derive_profile(64800, 32400, 360, 6.0);
    ASSERT_TRUE(lo.has_value());
    ASSERT_TRUE(hi.has_value());
    EXPECT_LT(lo->e_in(), hi->e_in());
}

TEST(ProfileSolver, AvgDegreeHeuristicMatchesStandardAnchors) {
    EXPECT_NEAR(dc::dvbs2_like_avg_degree(0.25), 6.0, 0.2);
    EXPECT_NEAR(dc::dvbs2_like_avg_degree(0.5), 4.9, 0.2);
    EXPECT_NEAR(dc::dvbs2_like_avg_degree(0.9), 3.2, 0.2);
}

class XRates : public ::testing::TestWithParam<dc::XRateSpec> {};

TEST_P(XRates, ProfileIsValidAndStructurallySound) {
    const auto cp = dc::dvbs2x_params(GetParam().label);
    EXPECT_EQ(cp.n, 64800);
    EXPECT_EQ(cp.k, GetParam().k);
    EXPECT_NO_THROW(cp.validate());
    // Build the code and audit it (generator + structure).
    const dc::Dvbs2Code code(cp);
    const auto rep = dc::audit_structure(code);
    EXPECT_TRUE(rep.all_ok()) << GetParam().label << ": " << rep.detail;
}

INSTANTIATE_TEST_SUITE_P(All, XRates, ::testing::ValuesIn(dc::dvbs2x_rates()),
                         [](const auto& info) {
                             std::string s = info.param.label;
                             for (auto& c : s)
                                 if (c == '/') c = '_';
                             return "X" + s;
                         });

TEST(XRates, UnknownLabelThrows) {
    EXPECT_THROW(dc::dvbs2x_params("5/7"), std::runtime_error);
}

TEST(XRates, DerivedCodeDecodesEndToEnd) {
    // One representative X rate through the full chain.
    const dc::Dvbs2Code code(dc::dvbs2x_params("100/180"));
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), 8);
    dm::AwgnModem modem(dm::Modulation::Bpsk, 10);
    const double sigma = dm::noise_sigma(2.6, code.params().rate(), dm::Modulation::Bpsk);
    const auto llr = modem.transmit(enc.encode(info), sigma);
    dvbs2::core::FixedDecoder dec(code, dvbs2::core::DecoderConfig{}, dvbs2::quant::kQuant6);
    const auto res = dec.decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

TEST(XRates, NinetyOver180MatchesStandardHalfGeometry) {
    // 90/180 is numerically rate 1/2: same K, same q as the standard code
    // (profile may differ — that is the point of the solver).
    const auto x = dc::dvbs2x_params("90/180");
    const auto s = dc::standard_params(dc::CodeRate::R1_2);
    EXPECT_EQ(x.k, s.k);
    EXPECT_EQ(x.q, s.q);
}
