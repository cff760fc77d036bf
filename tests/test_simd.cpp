// SIMD backend bit-exactness suite: pins SimdFixedDecoder (group-parallel)
// and SimdBatchFixedDecoder (frame-per-lane, fused variable phase, 16- or
// 32-bit lanes) to the scalar MpDecoder<FixedArith> reference, message for
// message. Any lane-arith, gather, lookup, fusion or lockstep-hazard
// regression (see the snapshot discussion in src/core/simd/simd_decoder.cpp)
// shows up here as a first-divergence index. The LaneArith suite pins the
// lane arithmetic to FixedArith on every operand pair, on the built
// backend's vectors (this file compiles with the backend's flags); the
// LaneWidth suite pins the frame-per-lane decoder's choice of lane width
// and the correction lookup; the StagingQuantizer suite pins the SIMD
// engines' staging quantizer to quant::quantize.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/ir/absint.hpp"
#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "comm/modem.hpp"
#include "core/arith.hpp"
#include "core/decoder.hpp"
#include "core/engine.hpp"
#include "core/mp_decoder.hpp"
#include "core/simd/batch_decoder.hpp"
#include "core/simd/lane_arith.hpp"
#include "core/simd/quantize.hpp"
#include "core/simd/simd_decoder.hpp"
#include "core/simd/vec.hpp"
#include "enc/encoder.hpp"
#include "quant/fixed.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;
namespace dq = dvbs2::quant;
namespace sv = dvbs2::core::simd;
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

/// The adversarial witness channel of the spec's range certificate
/// (analysis/ir/absint.hpp), quantized: every value on the saturation rail,
/// which drives the datapath to its proven peaks.
std::vector<dq::QLLR> witness_channel(const dc::Dvbs2Code& code, const dd::DecoderConfig& cfg,
                                      const dq::QuantSpec& spec) {
    namespace ir = dvbs2::analysis::ir;
    const ir::RangeCertificate cert =
        dd::engine_range_certificate(dd::EngineSpec{dd::Arithmetic::Fixed, cfg, spec});
    const std::vector<double> llrs = ir::witness_llrs(ir::concretize_witness(cert), code.n());
    std::vector<dq::QLLR> ch(llrs.size());
    for (std::size_t i = 0; i < llrs.size(); ++i) ch[i] = dq::quantize(llrs[i], spec);
    return ch;
}

void expect_words_equal(const std::vector<dq::QLLR>& want, const std::vector<dq::QLLR>& got,
                        const std::string& context) {
    ASSERT_EQ(want.size(), got.size()) << context;
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(want[i], got[i]) << context << ": first c2v divergence at index " << i;
}

/// Loads one channel per lane into the frame-per-lane decoder and checks
/// every lane's c2v state against a scalar decode of that lane's channel
/// after 1 and after 10 iterations.
void expect_lanes_match_scalar(const dc::Dvbs2Code& code, const dd::DecoderConfig& cfg,
                               const dq::QuantSpec& spec, dd::SimdBatchFixedDecoder& batch,
                               const std::vector<std::vector<dq::QLLR>>& channels,
                               const std::string& context) {
    const dq::BoxplusTable table(spec);
    auto scalar = make_scalar(code, cfg, spec, &table);
    std::vector<dq::QLLR> flat;
    for (const auto& ch : channels) flat.insert(flat.end(), ch.begin(), ch.end());
    const std::size_t frames = channels.size();
    batch.run_iterations(flat, frames, 1);
    std::vector<std::vector<dq::QLLR>> after1(frames);
    for (std::size_t l = 0; l < frames; ++l) after1[l] = batch.c2v_messages(l);
    batch.run_iterations(flat, frames, 10);
    for (std::size_t l = 0; l < frames; ++l) {
        const std::string lane = context + "/lane" + std::to_string(l);
        scalar.begin(channels[l]);
        scalar.step();
        expect_words_equal(scalar.c2v_messages(), after1[l], lane + "/it1");
        if (::testing::Test::HasFatalFailure()) return;
        for (int it = 1; it < 10; ++it) scalar.step();
        expect_words_equal(scalar.c2v_messages(), batch.c2v_messages(l), lane + "/it10");
        if (::testing::Test::HasFatalFailure()) return;
    }
}

/// The frame-per-lane check of one (code, cfg, spec): every lane a distinct
/// full-range random channel, then the certificate's witness channel.
void expect_frame_per_lane_matches_scalar(const dc::Dvbs2Code& code,
                                          const dd::DecoderConfig& cfg,
                                          const dq::QuantSpec& spec, std::uint64_t seed,
                                          const std::string& context) {
    dd::SimdBatchFixedDecoder batch(code, cfg, spec);
    std::vector<std::vector<dq::QLLR>> channels;
    for (int l = 0; l < batch.lanes(); ++l)
        channels.push_back(random_channel(code, spec, seed + static_cast<std::uint64_t>(l)));
    const std::string ctx = context + "/int" + std::to_string(batch.lane_bits());
    expect_lanes_match_scalar(code, cfg, spec, batch, channels, ctx + "/random");
    if (::testing::Test::HasFatalFailure()) return;
    expect_lanes_match_scalar(code, cfg, spec, batch, {witness_channel(code, cfg, spec)},
                              ctx + "/witness");
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

TEST_P(SimdRateBitExactTest, FramePerLaneMatchesScalarAfter1And10Iterations) {
    // Short frames keep the sweep cheap; 9/10 has no short frame.
    const auto short_rates = dc::rates_for(dc::FrameSize::Short);
    const bool has_short = std::find(short_rates.begin(), short_rates.end(), GetParam()) !=
                           short_rates.end();
    const dc::Dvbs2Code code(dc::standard_params(
        GetParam(), has_short ? dc::FrameSize::Short : dc::FrameSize::Long));
    for (const dd::Schedule schedule : kAllSchedules) {
        for (const dq::QuantSpec& spec : {dq::kQuant6, dq::kQuant5}) {
            dd::DecoderConfig cfg;
            cfg.schedule = schedule;
            cfg.rule = dd::CheckRule::Exact;
            expect_frame_per_lane_matches_scalar(
                code, cfg, spec, 0xF1A0000 + static_cast<std::uint64_t>(spec.total_bits),
                std::string(dd::to_string(schedule)) + "/q" + std::to_string(spec.total_bits));
            if (HasFatalFailure()) return;
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

TEST_P(SimdRuleBitExactTest, FramePerLaneMatchesScalarOnShortFrame) {
    // Short frame: every lane runs its own scalar reference, so a long one
    // costs 4x for no extra lane-arithmetic coverage.
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2, dc::FrameSize::Short));
    for (const dd::Schedule schedule : kAllSchedules) {
        dd::DecoderConfig cfg;
        cfg.schedule = schedule;
        cfg.rule = GetParam();
        expect_frame_per_lane_matches_scalar(code, cfg, dq::kQuant6, 0xAB1200,
                                             dd::to_string(schedule));
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

// ------------------------------------------- frame-per-lane lane width
//
// SimdBatchFixedDecoder computes in 16-bit lanes only when the range
// certificate proves every value fits, the certificate covers the code's
// degrees, and (Exact rule) the correction table is zero from index 15 on,
// so a 16-entry byte-shuffle lookup holds it; otherwise in 32-bit lanes.
// Both widths must stay bit-exact.

namespace {

constexpr dd::CheckRule kAllRules[] = {dd::CheckRule::Exact, dd::CheckRule::MinSum,
                                       dd::CheckRule::NormalizedMinSum,
                                       dd::CheckRule::OffsetMinSum};

dd::DecoderConfig config_of(dd::Schedule schedule, dd::CheckRule rule) {
    dd::DecoderConfig cfg;
    cfg.schedule = schedule;
    cfg.rule = rule;
    return cfg;
}

int lane_bits_of(const dc::Dvbs2Code& code, const dd::DecoderConfig& cfg,
                 const dq::QuantSpec& spec) {
    return dd::SimdBatchFixedDecoder(code, cfg, spec).lane_bits();
}

/// Every schedule of (rule, spec) on `code` runs `bits`-wide lanes and
/// stays message-exact with the scalar reference.
void expect_width_and_exactness(const dc::Dvbs2Code& code, dd::CheckRule rule,
                                const dq::QuantSpec& spec, int bits) {
    for (const dd::Schedule schedule : kAllSchedules) {
        const dd::DecoderConfig cfg = config_of(schedule, rule);
        const dd::SimdBatchFixedDecoder batch(code, cfg, spec);
        ASSERT_EQ(batch.lane_bits(), bits) << dd::to_string(schedule);
        EXPECT_EQ(batch.lanes(), bits == 32 ? dd::simd_backend_width()
                                            : 2 * dd::simd_backend_width());
        expect_frame_per_lane_matches_scalar(code, cfg, spec, 0x1A7E,
                                             dd::to_string(schedule));
        if (::testing::Test::HasFatalFailure()) return;
    }
}

/// The Exact quantizers the 16-bit lookup holds: every one with at most 2
/// fractional bits, and {4, 3}, whose table ends at index 14 (2·7).
bool lookup_expected(const dq::QuantSpec& spec) {
    return spec.frac_bits <= 2 || 2 * spec.max_raw() + 1 <= sv::kLookupEntries - 1;
}

/// Every (a, b) in [−max_raw, max_raw]², pair p in lane p mod W: each
/// lane's combine and finalize(combine) equal FixedArith's.
template <class V>
void expect_lanes_match_fixed_arith(dd::CheckRule rule, const dq::QuantSpec& spec,
                                    const dq::BoxplusTable& table, const std::string& context) {
    using Lane = typename V::lane_t;
    constexpr int W = V::width;
    const dd::DecoderConfig cfg = config_of(dd::Schedule::ZigzagForward, rule);
    const dq::BoxplusTable* t = rule == dd::CheckRule::Exact ? &table : nullptr;
    const dd::FixedArith ref(rule, spec, t, cfg.normalization, cfg.offset);
    const sv::LaneFixedArith<V> lanes(rule, spec, t, cfg.normalization, cfg.offset);
    const long long span = 2LL * spec.max_raw() + 1;
    const long long pairs = span * span;
    Lane a[W], b[W], c[W], f[W];
    for (long long p0 = 0; p0 < pairs; p0 += W) {
        for (int l = 0; l < W; ++l) {
            const long long p = (p0 + l) % pairs;  // the last register wraps
            a[l] = static_cast<Lane>(p / span - spec.max_raw());
            b[l] = static_cast<Lane>(p % span - spec.max_raw());
        }
        const typename V::reg combined = lanes.combine(V::load(a), V::load(b));
        V::store(c, combined);
        V::store(f, lanes.finalize(combined));
        for (int l = 0; l < W; ++l) {
            const dq::QLLR want = ref.combine(a[l], b[l]);
            if (c[l] != want || f[l] != ref.finalize(want)) {
                ADD_FAILURE() << context << " int" << V::bits << " lane " << l << ": combine("
                              << a[l] << ", " << b[l] << ") = " << c[l] << " (want " << want
                              << "), finalized " << f[l] << " (want " << ref.finalize(want)
                              << ")";
                return;
            }
        }
    }
}

}  // namespace

TEST(LaneArith, CombineAndFinalizeMatchFixedArithOnEveryOperandPair) {
    // Every quantizer of 2..10 bits and every rule, on both lane widths of
    // the built backend: the sign copies, the lookup (16-bit lanes), the
    // gather (32-bit lanes) and the unsaturated Exact sum must reproduce
    // FixedArith's saturating boxplus on every operand pair.
    int specs = 0;
    for (int total = 2; total <= 10; ++total) {
        for (int frac = 0; frac < total; ++frac) {
            const dq::QuantSpec spec{total, frac};
            const dq::BoxplusTable table(spec);
            ASSERT_LE(table.corr(0), spec.max_raw()) << "q" << total << "." << frac;
            for (const dd::CheckRule rule : kAllRules) {
                const std::string ctx = "q" + std::to_string(total) + "." +
                                        std::to_string(frac) + " " + dd::to_string(rule);
                expect_lanes_match_fixed_arith<sv::ActiveVec>(rule, spec, table, ctx);
                if (rule != dd::CheckRule::Exact || sv::lookup_covers(table))
                    expect_lanes_match_fixed_arith<sv::ActiveVec16>(rule, spec, table, ctx);
                if (::testing::Test::HasFailure()) return;
            }
            ++specs;
        }
    }
    EXPECT_EQ(specs, 54);
}

TEST(LaneWidth, LookupReproducesTheCorrectionTable) {
    // The 16-bit lanes' Exact correction is two byte-shuffle lookups of
    // corr(0..15), indices clamped to 15: for every Exact quantizer the lanes
    // take, lookup_diff(x, y) must equal corr(x) − corr(y) at every pair of
    // indices a combine can form, |a ± b| in 0..2·max_raw, in every lane.
    // The quantizers that narrow are exactly those the lookup holds.
    using V = sv::ActiveVec16;
    using Lane = V::lane_t;
    constexpr int W = V::width;
    EXPECT_TRUE(sv::lookup_covers(dq::BoxplusTable(dq::kQuant6)));
    EXPECT_TRUE(sv::lookup_covers(dq::BoxplusTable(dq::kQuant5)));
    int narrowing = 0;
    for (int total = 3; total <= 10; ++total) {
        for (int frac = 0; frac <= 4 && frac < total; ++frac) {
            const dq::QuantSpec spec{total, frac};
            const std::string ctx = "q" + std::to_string(total) + "." + std::to_string(frac);
            const dq::BoxplusTable table(spec);
            const bool narrows = lane_bits_of(toy_code(),
                                              config_of(dd::Schedule::ZigzagForward,
                                                        dd::CheckRule::Exact),
                                              spec) == 16;
            EXPECT_EQ(sv::lookup_covers(table), lookup_expected(spec)) << ctx;
            EXPECT_EQ(narrows, lookup_expected(spec)) << ctx;
            if (!narrows) continue;
            ++narrowing;
            std::uint8_t bytes[sv::kLookupEntries];
            for (int i = 0; i < sv::kLookupEntries; ++i)
                bytes[i] = static_cast<std::uint8_t>(table.corr(i));
            const V::reg lut = V::lut16(bytes);
            const int top = 2 * spec.max_raw();
            Lane x[W], y[W], d[W];
            for (int i = 0; i <= top; ++i) {
                for (int j0 = 0; j0 <= top; j0 += W) {
                    for (int l = 0; l < W; ++l) {
                        x[l] = static_cast<Lane>(i);
                        y[l] = static_cast<Lane>(std::min(j0 + l, top));
                    }
                    V::store(d, V::lookup_diff(lut, V::load(x), V::load(y)));
                    for (int l = 0; l < W; ++l)
                        ASSERT_EQ(d[l], table.corr(x[l]) - table.corr(y[l]))
                            << ctx << " lane " << l << " at (" << x[l] << ", " << y[l] << ")";
                }
            }
        }
    }
    EXPECT_EQ(narrowing, 25);  // frac 0..2 at 3..10 bits, and {4, 3}
}

TEST(LaneWidth, EveryShippedSpecRuns16BitLanes) {
    // 4 rules × 5 schedules × kQuant6/kQuant5, on the two codes at the
    // family envelope's corners: rate 2/3 has the largest information
    // degree (13), rate 9/10 the largest check degree.
    for (const dc::CodeRate rate : {dc::CodeRate::R2_3, dc::CodeRate::R9_10}) {
        const dc::Dvbs2Code code(dc::standard_params(rate));
        ASSERT_TRUE(dd::range_certificate_covers(code)) << dc::to_string(rate);
        int specs = 0;
        for (const dd::CheckRule rule : kAllRules)
            for (const dd::Schedule schedule : kAllSchedules)
                for (const dq::QuantSpec& spec : {dq::kQuant6, dq::kQuant5}) {
                    EXPECT_EQ(lane_bits_of(code, config_of(schedule, rule), spec), 16)
                        << dc::to_string(rate) << " " << dd::to_string(rule) << " "
                        << dd::to_string(schedule) << " q" << spec.total_bits;
                    ++specs;
                }
        EXPECT_EQ(specs, 40);
    }
}

TEST(LaneWidth, EveryNarrowingExactQuantizerStaysMessageExact) {
    // Every Exact quantizer of 3..10 bits that takes 16-bit lanes (the
    // lookup holds its table), on every schedule, message-exact with the
    // scalar reference: corr(0) runs 1 (frac 0 and 1), 3 (frac 2) and 6
    // ({4, 3}), so every table shape the lookup meets is here.
    std::set<dq::QLLR> heads;
    for (int total = 3; total <= 10; ++total) {
        for (int frac = 0; frac <= 4 && frac < total; ++frac) {
            const dq::QuantSpec spec{total, frac};
            if (lane_bits_of(toy_code(), config_of(dd::Schedule::ZigzagForward,
                                                   dd::CheckRule::Exact),
                             spec) != 16)
                continue;
            const dq::QLLR head = dq::BoxplusTable(spec).corr(0);
            heads.insert(head);
            for (const dd::Schedule schedule : kAllSchedules) {
                expect_frame_per_lane_matches_scalar(
                    toy_code(), config_of(schedule, dd::CheckRule::Exact), spec,
                    0x5CA1 + static_cast<std::uint64_t>(head),
                    "q" + std::to_string(total) + "." + std::to_string(frac) + "/" +
                        dd::to_string(schedule));
                if (::testing::Test::HasFatalFailure()) return;
            }
        }
    }
    EXPECT_EQ(heads, (std::set<dq::QLLR>{1, 3, 6}));
}

TEST(LaneWidth, WideVnSumTakes32BitLanesAndStaysBitExact) {
    // {14, 4}: the certified vn sum, max_raw·(1 + 13) = 114,674, exceeds
    // 32767; min-sum, so the correction table plays no part.
    const dq::QuantSpec wide{14, 4};
    const auto cert = dd::engine_range_certificate(dd::EngineSpec{
        dd::Arithmetic::Fixed, config_of(dd::Schedule::ZigzagForward, dd::CheckRule::MinSum),
        wide});
    ASSERT_TRUE(cert.ok);
    long long vn_sum = 0;
    for (const auto& st : cert.stages)
        if (st.stage == "vn-accumulate") vn_sum = st.worst;
    EXPECT_GT(vn_sum, 32767);
    expect_width_and_exactness(toy_code(), dd::CheckRule::MinSum, wide, 32);
}

TEST(LaneWidth, TableBeyondTheLookupTakes32BitLanesAndStaysBitExact) {
    // {8, 3}: corr(15) = round(8 log1p(e^-1.875)) = 1, so a 16-entry lookup
    // clamped at 15 would be wrong, and Exact takes 32-bit lanes and their
    // gather; {8, 4} (corr(15) = 5) likewise. The same quantizers under
    // min-sum (no correction) narrow, so the table is the only reason.
    for (const dq::QuantSpec fine : {dq::QuantSpec{8, 3}, dq::QuantSpec{8, 4}}) {
        const dq::BoxplusTable table(fine);
        EXPECT_GT(table.corr(sv::kLookupEntries - 1), 0) << fine.frac_bits;
        EXPECT_FALSE(sv::lookup_covers(table)) << fine.frac_bits;
        EXPECT_EQ(lane_bits_of(toy_code(),
                               config_of(dd::Schedule::ZigzagForward, dd::CheckRule::MinSum),
                               fine),
                  16);
        expect_width_and_exactness(toy_code(), dd::CheckRule::Exact, fine, 32);
        if (::testing::Test::HasFatalFailure()) return;
    }
}

TEST(LaneWidth, CodeBeyondTheEnvelopeTakes32BitLanesAndStaysBitExact) {
    // Information degree 17 > 13, the envelope's largest: the certificate
    // does not cover this code, so q6 keeps 32-bit lanes on it.
    const dc::Dvbs2Code code(dc::toy_params(12, 13, 1, 17, 3));
    ASSERT_FALSE(dd::range_certificate_covers(code));
    expect_width_and_exactness(code, dd::CheckRule::Exact, dq::kQuant6, 32);
}

TEST(LaneWidth, EarlyStopOnRateQuarterLongMatchesScalar) {
    // m = 48,600 checks: the per-lane early-stop flag is OR-accumulated over
    // every check on 16-bit lanes. Lanes at 6 dB mostly converge within a
    // few iterations, lanes at −1 dB exhaust the 30-iteration budget;
    // iteration counts, converged flags and codewords must equal the scalar
    // decodes.
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_4));
    const dd::DecoderConfig cfg = config_of(dd::Schedule::ZigzagForward, dd::CheckRule::Exact);
    dd::SimdBatchFixedDecoder batch(code, cfg, dq::kQuant6);
    ASSERT_EQ(batch.lane_bits(), 16);
    const auto frames = static_cast<std::size_t>(batch.lanes());
    const auto n = static_cast<std::size_t>(code.n());
    std::vector<dq::QLLR> flat;
    for (std::size_t f = 0; f < frames; ++f) {
        const auto llr = noisy_llrs(code, f % 2 ? 6.0 : -1.0, 0x1D4 + f);
        for (const double x : llr) flat.push_back(dq::quantize(x, dq::kQuant6));
    }
    std::vector<dd::DecodeResult> got(frames);
    batch.decode_into(flat, frames, got.data());

    const dq::BoxplusTable table(dq::kQuant6);
    auto scalar = make_scalar(code, cfg, dq::kQuant6, &table);
    int converged = 0;
    for (std::size_t f = 0; f < frames; ++f) {
        dd::DecodeResult want;
        scalar.decode_into(std::span<const dq::QLLR>(flat).subspan(f * n, n), want);
        expect_results_equal(want, got[f], "frame " + std::to_string(f));
        converged += want.converged ? 1 : 0;
    }
    EXPECT_GT(converged, 0);
    EXPECT_LT(converged, static_cast<int>(frames));
}

// ------------------------------------------------ engine staging quantizer

namespace {

/// Restores round-to-nearest when a test leaves.
struct RoundingModeGuard {
    ~RoundingModeGuard() { std::fesetround(FE_TONEAREST); }
};

/// Inputs that stress every branch of quant::quantize on `spec`: both
/// sides of every half-step tie across the rails and a few steps past
/// them, the values next to ±max_value and to the ties just past it, ±0,
/// subnormals, ±DBL_MAX and pseudo-random values out to twice the rails.
std::vector<double> quantizer_inputs(const dq::QuantSpec& spec) {
    const double step = spec.step();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> v;
    for (dq::QLLR r = -spec.max_raw() - 3; r <= spec.max_raw() + 3; ++r) {
        const double tie = (r + 0.5) * step;
        v.insert(v.end(), {r * step, tie, std::nextafter(tie, -inf), std::nextafter(tie, inf)});
    }
    for (const double edge : {spec.max_value(), spec.max_value() + step / 2}) {
        for (const double x : {edge, -edge})
            v.insert(v.end(), {x, std::nextafter(x, -inf), std::nextafter(x, inf)});
    }
    const double dmax = std::numeric_limits<double>::max();
    const double sub = std::numeric_limits<double>::denorm_min();
    const double tiny = std::numeric_limits<double>::min();
    v.insert(v.end(), {0.0, -0.0, sub, -sub, tiny / 3, -tiny / 3, tiny, -tiny, dmax, -dmax,
                       std::nextafter(dmax, 0.0), -std::nextafter(dmax, 0.0)});
    std::uint64_t seed = 0x0A11CE + static_cast<std::uint64_t>(spec.total_bits);
    for (int i = 0; i < 4096; ++i) {
        const double u = static_cast<double>(splitmix64(seed) >> 11) * 0x1.0p-53;
        v.push_back((4.0 * u - 2.0) * spec.max_value());
    }
    return v;
}

}  // namespace

TEST(StagingQuantizer, BitExactWithScalarQuantizeInEveryRoundingMode) {
    // Engine::stage quantizes SIMD engines' frames through quantize_finite.
    // It must equal quant::quantize value for value, whichever rounding
    // mode is current, on whole vectors and on the scalar tail left by
    // every length and misalignment.
    const RoundingModeGuard guard;
    const dq::QuantSpec specs[] = {dq::kQuant6, dq::kQuant5, {8, 3}, {12, 4}, {16, 0}};
    const int modes[] = {FE_TONEAREST, FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO};
    for (const dq::QuantSpec& spec : specs) {
        const std::vector<double> in = quantizer_inputs(spec);
        std::vector<dq::QLLR> got(in.size());
        for (const int mode : modes) {
            ASSERT_EQ(std::fesetround(mode), 0);
            const std::string ctx = "q" + std::to_string(spec.total_bits) + "." +
                                    std::to_string(spec.frac_bits) + " mode " +
                                    std::to_string(mode);
            ASSERT_TRUE(dd::quantize_finite(in, spec, got.data())) << ctx;
            for (std::size_t i = 0; i < in.size(); ++i)
                ASSERT_EQ(got[i], dq::quantize(in[i], spec)) << ctx << " input " << in[i];
            for (std::size_t offset = 0; offset < 4; ++offset) {
                for (std::size_t len = 0; len <= 9; ++len) {
                    const std::span<const double> part(in.data() + 7 * len + offset, len);
                    ASSERT_TRUE(dd::quantize_finite(part, spec, got.data())) << ctx;
                    for (std::size_t i = 0; i < len; ++i)
                        ASSERT_EQ(got[i], dq::quantize(part[i], spec))
                            << ctx << " length " << len << " offset " << offset << " input "
                            << part[i];
                }
            }
        }
    }
}

TEST(StagingQuantizer, NonFiniteInputIsReportedAnywhere) {
    // A NaN or infinity in the vector body or the tail makes quantize_finite
    // return false, so Engine::stage falls back to the loop that names it.
    const std::size_t n = 11;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        for (std::size_t pos = 0; pos < n; ++pos) {
            std::vector<double> in(n, 1.25);
            in[pos] = bad;
            std::vector<dq::QLLR> out(n);
            EXPECT_FALSE(dd::quantize_finite(in, dq::kQuant6, out.data()))
                << bad << " at " << pos;
        }
    }
}
