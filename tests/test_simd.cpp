// SIMD backend bit-exactness suite: pins SimdFixedDecoder to the scalar
// MpDecoder<FixedArith> reference, message for message. Any lane-arith,
// gather, or lockstep-hazard regression (see the snapshot discussion in
// src/core/simd/simd_decoder.cpp) shows up here as a first-divergence index.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "comm/modem.hpp"
#include "core/arith.hpp"
#include "core/decoder.hpp"
#include "core/mp_decoder.hpp"
#include "core/simd/simd_decoder.hpp"
#include "enc/encoder.hpp"
#include "quant/fixed.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;
namespace dq = dvbs2::quant;
using dvbs2::util::BitVec;

namespace {

constexpr dd::Schedule kAllSchedules[] = {dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward,
                                          dd::Schedule::ZigzagSegmented, dd::Schedule::ZigzagMap,
                                          dd::Schedule::Layered};

/// The schedules SimdFixedDecoder runs: the lockstep-legal ones. The
/// serial-chain schedules reach the SIMD backend through the engine only
/// (scalar single frames under lane_mode=auto, frame-per-lane batches).
constexpr dd::Schedule kGroupSchedules[] = {dd::Schedule::TwoPhase,
                                            dd::Schedule::ZigzagSegmented};

const dc::Dvbs2Code& toy_code() {
    // p = 12 gives one full AVX2 block of 8 lanes plus a 4-lane scalar tail
    // in every group, so remainder paths are exercised on every backend.
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

std::uint64_t splitmix64(std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Deterministic pseudo-random channel values spanning the full quantizer
/// range, including the saturation rails (no encoding needed: message-level
/// equality must hold for arbitrary channel input, codeword or not).
std::vector<dq::QLLR> random_channel(const dc::Dvbs2Code& code, const dq::QuantSpec& spec,
                                     std::uint64_t seed) {
    std::vector<dq::QLLR> ch(static_cast<std::size_t>(code.n()));
    const std::uint64_t span = static_cast<std::uint64_t>(2 * spec.max_raw() + 1);
    for (auto& v : ch)
        v = static_cast<dq::QLLR>(static_cast<std::int64_t>(splitmix64(seed) % span) -
                                  spec.max_raw());
    return ch;
}

/// Noisy BPSK instance for decode-level comparisons.
std::vector<double> noisy_llrs(const dc::Dvbs2Code& code, double ebn0_db, std::uint64_t seed) {
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), seed);
    const BitVec cw = enc.encode(info);
    dm::AwgnModem modem(dm::Modulation::Bpsk, seed * 77 + 1);
    const double sigma = dm::noise_sigma(ebn0_db, code.params().rate(), dm::Modulation::Bpsk);
    return modem.transmit(cw, sigma);
}

dd::MpDecoder<dd::FixedArith> make_scalar(const dc::Dvbs2Code& code, const dd::DecoderConfig& cfg,
                                          const dq::QuantSpec& spec,
                                          const dq::BoxplusTable* table) {
    return dd::MpDecoder<dd::FixedArith>(
        code, cfg,
        dd::FixedArith(cfg.rule, spec, cfg.rule == dd::CheckRule::Exact ? table : nullptr,
                       cfg.normalization, cfg.offset));
}

/// Compares every message array and reports the first divergence with its
/// array name and index, so a lockstep bug is directly localizable.
void expect_messages_equal(const dd::MpDecoder<dd::FixedArith>& scalar,
                           const dd::SimdFixedDecoder& simd, const std::string& context) {
    const struct {
        const char* name;
        const std::vector<dq::QLLR>* a;
        const std::vector<dq::QLLR>* b;
    } arrays[] = {
        {"c2v", &scalar.c2v_messages(), &simd.c2v_messages()},
        {"v2c", &scalar.v2c_messages(), &simd.v2c_messages()},
        {"backward", &scalar.backward_messages(), &simd.backward_messages()},
    };
    for (const auto& arr : arrays) {
        ASSERT_EQ(arr.a->size(), arr.b->size()) << context << ": " << arr.name;
        for (std::size_t i = 0; i < arr.a->size(); ++i) {
            ASSERT_EQ((*arr.a)[i], (*arr.b)[i])
                << context << ": first " << arr.name << " divergence at index " << i;
        }
    }
}

void expect_results_equal(const dd::DecodeResult& a, const dd::DecodeResult& b,
                          const std::string& context) {
    EXPECT_EQ(a.converged, b.converged) << context;
    EXPECT_EQ(a.iterations, b.iterations) << context;
    ASSERT_EQ(a.codeword.size(), b.codeword.size()) << context;
    for (std::size_t i = 0; i < a.codeword.size(); ++i)
        ASSERT_EQ(a.codeword.get(i), b.codeword.get(i)) << context << ": codeword bit " << i;
    ASSERT_EQ(a.info_bits.size(), b.info_bits.size()) << context;
    for (std::size_t i = 0; i < a.info_bits.size(); ++i)
        ASSERT_EQ(a.info_bits.get(i), b.info_bits.get(i)) << context << ": info bit " << i;
}

std::string sanitize(std::string s) {
    std::string out;
    for (char c : s)
        if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
    return out;
}

}  // namespace

// ----------------------------------------------------------- backend probe

TEST(SimdBackend, ReportsCompiledBackendAndWidth) {
    const std::string name = dd::simd_backend_name();
    EXPECT_TRUE(name == "avx2" || name == "sse4" || name == "neon" || name == "scalar") << name;
    const int w = dd::simd_backend_width();
    EXPECT_TRUE(w == 4 || w == 8) << w;
    if (name == "avx2") {
        EXPECT_EQ(w, 8);
    }
}

// ----------------------------- every shipped rate × schedule × quantization

class SimdRateBitExactTest : public ::testing::TestWithParam<dc::CodeRate> {};

TEST_P(SimdRateBitExactTest, MessagesMatchScalarAfter1And10Iterations) {
    const dc::Dvbs2Code code(dc::standard_params(GetParam()));
    for (const dd::Schedule schedule : kGroupSchedules) {
        for (const dq::QuantSpec& spec : {dq::kQuant6, dq::kQuant5}) {
            dd::DecoderConfig cfg;
            cfg.schedule = schedule;
            cfg.rule = dd::CheckRule::Exact;
            const dq::BoxplusTable table(spec);
            auto scalar = make_scalar(code, cfg, spec, &table);
            dd::SimdFixedDecoder simd(code, cfg, spec);
            const auto ch = random_channel(code, spec, 0xD5B0000 + spec.total_bits);
            const std::string context = std::string(dd::to_string(schedule)) + "/q" +
                                        std::to_string(spec.total_bits);
            for (const int iters : {1, 10}) {
                scalar.run_iterations(ch, iters);
                simd.run_iterations(ch, iters);
                expect_messages_equal(scalar, simd,
                                      context + "/it" + std::to_string(iters));
                if (HasFatalFailure()) return;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllShippedRates, SimdRateBitExactTest,
                         ::testing::ValuesIn(dc::all_rates()),
                         [](const ::testing::TestParamInfo<dc::CodeRate>& info) {
                             return sanitize(dc::to_string(info.param));
                         });

// --------------------------------------------------- every check rule

class SimdRuleBitExactTest : public ::testing::TestWithParam<dd::CheckRule> {};

TEST_P(SimdRuleBitExactTest, MessagesMatchScalarOnFullSizeCode) {
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2));
    for (const dd::Schedule schedule : kGroupSchedules) {
        dd::DecoderConfig cfg;
        cfg.schedule = schedule;
        cfg.rule = GetParam();
        const dq::BoxplusTable table(dq::kQuant6);
        auto scalar = make_scalar(code, cfg, dq::kQuant6, &table);
        dd::SimdFixedDecoder simd(code, cfg, dq::kQuant6);
        const auto ch = random_channel(code, dq::kQuant6, 0xAB12);
        scalar.run_iterations(ch, 10);
        simd.run_iterations(ch, 10);
        expect_messages_equal(scalar, simd, dd::to_string(schedule));
        if (HasFatalFailure()) return;
    }
}

INSTANTIATE_TEST_SUITE_P(AllRules, SimdRuleBitExactTest,
                         ::testing::Values(dd::CheckRule::Exact, dd::CheckRule::MinSum,
                                           dd::CheckRule::NormalizedMinSum,
                                           dd::CheckRule::OffsetMinSum),
                         [](const ::testing::TestParamInfo<dd::CheckRule>& info) {
                             return sanitize(dd::to_string(info.param));
                         });

// ------------------------------------- decode-level equality (toy, tails)
//
// Through the SIMD engine under lane_mode=auto, which decodes a single
// frame group-parallel on the lockstep-legal schedules and on the scalar
// reference on the serial-chain ones: results and iteration traces must
// match the scalar decoder on every schedule.

class SimdDecodeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<dd::Schedule, bool>> {};

TEST_P(SimdDecodeEquivalenceTest, DecodeResultsAndTracesMatchScalar) {
    const auto [schedule, early_stop] = GetParam();
    dd::DecoderConfig cfg;
    cfg.schedule = schedule;
    cfg.rule = dd::CheckRule::Exact;
    cfg.max_iterations = 15;
    cfg.early_stop = early_stop;
    const dq::BoxplusTable table(dq::kQuant6);

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto llr = noisy_llrs(toy_code(), 2.0, seed);
        std::vector<dq::QLLR> q(llr.size());
        for (std::size_t i = 0; i < llr.size(); ++i) q[i] = dq::quantize(llr[i], dq::kQuant6);

        auto scalar = make_scalar(toy_code(), cfg, dq::kQuant6, &table);
        dd::DecoderConfig simd_cfg = cfg;
        simd_cfg.backend = dd::DecoderBackend::Simd;  // lane_mode=auto
        dd::FixedDecoder simd(toy_code(), simd_cfg, dq::kQuant6);

        std::vector<dd::IterationTrace> ts, tv;
        scalar.set_observer([&](const dd::IterationTrace& t) { ts.push_back(t); });
        simd.set_observer([&](const dd::IterationTrace& t) { tv.push_back(t); });

        const auto rs = scalar.decode_values(q);
        const auto rv = simd.decode_raw(q);
        const std::string context =
            std::string(dd::to_string(schedule)) + "/seed" + std::to_string(seed);
        expect_results_equal(rs, rv, context);
        if (HasFatalFailure()) return;
        ASSERT_EQ(ts.size(), tv.size()) << context;
        for (std::size_t i = 0; i < ts.size(); ++i) {
            EXPECT_EQ(ts[i].iteration, tv[i].iteration) << context;
            EXPECT_EQ(ts[i].unsatisfied_checks, tv[i].unsatisfied_checks) << context;
            EXPECT_DOUBLE_EQ(ts[i].mean_abs_posterior, tv[i].mean_abs_posterior) << context;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesAndEarlyStop, SimdDecodeEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kAllSchedules), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<dd::Schedule, bool>>& info) {
        return sanitize(std::string(dd::to_string(std::get<0>(info.param))) +
                        (std::get<1>(info.param) ? "EarlyStop" : "FixedIters"));
    });

// -------------------------------------------- FixedDecoder-level dispatch

TEST(SimdDispatch, FixedDecoderBackendSimdMatchesScalar) {
    dd::DecoderConfig scalar_cfg;
    scalar_cfg.schedule = dd::Schedule::TwoPhase;
    scalar_cfg.max_iterations = 15;
    dd::DecoderConfig simd_cfg = scalar_cfg;
    simd_cfg.backend = dd::DecoderBackend::Simd;

    dd::FixedDecoder scalar(toy_code(), scalar_cfg, dq::kQuant6);
    dd::FixedDecoder simd(toy_code(), simd_cfg, dq::kQuant6);
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        const auto llr = noisy_llrs(toy_code(), 2.0, seed);
        expect_results_equal(scalar.decode(llr), simd.decode(llr),
                             "seed " + std::to_string(seed));
        if (::testing::Test::HasFatalFailure()) return;
    }

    // The message-dump entry point must dispatch too.
    const auto llr = noisy_llrs(toy_code(), 2.0, 21);
    std::vector<dq::QLLR> q(llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i) q[i] = dq::quantize(llr[i], dq::kQuant6);
    const auto cs = scalar.run_and_dump_c2v(q, 5);
    const auto cv = simd.run_and_dump_c2v(q, 5);
    EXPECT_EQ(cs, cv);
}

TEST(SimdDispatch, UnsupportedConfigurationsThrow) {
    dd::DecoderConfig cfg;
    cfg.backend = dd::DecoderBackend::Simd;

    // Float datapath has no SIMD engine.
    cfg.schedule = dd::Schedule::TwoPhase;
    EXPECT_THROW(dd::Decoder(toy_code(), cfg), std::runtime_error);

    // lane_mode=auto runs every schedule; group-parallel lanes and the
    // group decoder itself only the lockstep-legal ones.
    for (const dd::Schedule s : kAllSchedules) {
        cfg.schedule = s;
        cfg.lane_mode = dd::SimdLaneMode::Auto;
        EXPECT_NO_THROW(dd::FixedDecoder(toy_code(), cfg, dq::kQuant6)) << dd::to_string(s);
        cfg.lane_mode = dd::SimdLaneMode::GroupParallel;
        const bool legal = s == dd::Schedule::TwoPhase || s == dd::Schedule::ZigzagSegmented;
        if (legal) {
            EXPECT_NO_THROW(dd::FixedDecoder(toy_code(), cfg, dq::kQuant6)) << dd::to_string(s);
            EXPECT_NO_THROW(dd::SimdFixedDecoder(toy_code(), cfg)) << dd::to_string(s);
        } else {
            EXPECT_THROW(dd::FixedDecoder(toy_code(), cfg, dq::kQuant6), std::runtime_error)
                << dd::to_string(s);
            EXPECT_THROW(dd::SimdFixedDecoder(toy_code(), cfg), std::runtime_error)
                << dd::to_string(s);
        }
    }
    cfg.lane_mode = dd::SimdLaneMode::Auto;

    // Per-CN input orders are a scalar-engine feature.
    cfg.schedule = dd::Schedule::TwoPhase;
    dd::FixedDecoder simd(toy_code(), cfg, dq::kQuant6);
    EXPECT_THROW(simd.set_cn_order(std::vector<int>(
                     static_cast<std::size_t>(toy_code().m()) *
                     static_cast<std::size_t>(toy_code().params().check_deg + 2))),
                 std::runtime_error);
}

// --------------------------------------------------- golden-pin BER tally

TEST(SimdGoldenBer, SimulatePointTalliesMatchScalarBackend) {
    dm::SimConfig sim;
    sim.seed = 99;
    sim.limits.max_frames = 48;
    sim.limits.min_frames = 48;
    sim.limits.target_bit_errors = 1'000'000;
    sim.limits.target_frame_errors = 1'000'000;

    for (const dd::Schedule schedule : kAllSchedules) {
        dd::DecoderConfig cfg;
        cfg.schedule = schedule;
        cfg.max_iterations = 20;

        auto run = [&](dd::DecoderBackend backend) {
            dd::DecoderConfig c = cfg;
            c.backend = backend;
            dd::FixedDecoder dec(toy_code(), c, dq::kQuant6);
            const dm::DecodeFn fn = [&dec](const std::vector<double>& llr) {
                const auto r = dec.decode(llr);
                return dm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
            };
            return dm::simulate_point(toy_code(), fn, 2.0, sim);
        };

        const dm::BerPoint a = run(dd::DecoderBackend::Scalar);
        const dm::BerPoint b = run(dd::DecoderBackend::Simd);
        const std::string context = dd::to_string(schedule);
        EXPECT_EQ(a.frames, b.frames) << context;
        EXPECT_EQ(a.bit_errors, b.bit_errors) << context;
        EXPECT_EQ(a.frame_errors, b.frame_errors) << context;
        EXPECT_EQ(a.undetected_frame_errors, b.undetected_frame_errors) << context;
        EXPECT_DOUBLE_EQ(a.avg_iterations, b.avg_iterations) << context;
    }
}
