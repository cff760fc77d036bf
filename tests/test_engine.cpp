// Unified engine-layer suite (core/engine.hpp):
//
//   * engine choice — make_engine builds each of the three engines from its
//     (arithmetic, backend);
//   * central validation — every illegal (arithmetic, backend, schedule,
//     lane-mode, rule-parameter, quantizer) combination is rejected with a
//     diagnostic naming the offending option, through make_engine AND the
//     Decoder/FixedDecoder wrappers;
//   * reuse ≡ fresh — a long-lived engine's workspace reuse never changes a
//     result vs a freshly built engine;
//   * cross-backend equivalence matrix — fixed-scalar vs SIMD (auto,
//     group-parallel where legal, frame-per-lane), single-frame vs batched,
//     on the toy code for every schedule and on all eleven standard rates;
//   * Monte-Carlo tally equality — simulate_point_engine reproduces the
//     DecodeFactory path's tallies bit for bit at any thread count;
//   * span-mismatch diagnostics — decode_into/decode_batch reject wrong-size
//     spans naming both actual sizes and the expected relation, identically
//     on the scalar and SIMD backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/ir/analyses.hpp"
#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "comm/parallel.hpp"
#include "core/decoder.hpp"
#include "core/engine.hpp"
#include "core/simd/simd_decoder.hpp"
#include "enc/encoder.hpp"
#include "quant/fixed.hpp"

namespace dc = dvbs2::code;
namespace ir = dvbs2::analysis::ir;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;
namespace dq = dvbs2::quant;
using dvbs2::util::BitVec;

namespace {

const dc::Dvbs2Code& toy_code() {
    // p = 12: one full AVX2 block of 8 lanes plus a 4-lane tail per group.
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

/// Deterministic raw channel values spanning the quantizer rails.
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

void expect_same_result(const dd::DecodeResult& a, const dd::DecodeResult& b,
                        const std::string& context) {
    EXPECT_EQ(a.converged, b.converged) << context;
    EXPECT_EQ(a.iterations, b.iterations) << context;
    EXPECT_EQ(BitVec::hamming_distance(a.codeword, b.codeword), 0u) << context;
    EXPECT_EQ(BitVec::hamming_distance(a.info_bits, b.info_bits), 0u) << context;
}

/// EXPECT_THROW plus a substring check on the diagnostic, so the "names the
/// offending option" contract of validate_engine_spec is pinned, not just
/// the throw itself.
template <class Fn>
void expect_throws_mentioning(Fn&& fn, const std::vector<std::string>& needles,
                              const std::string& context) {
    try {
        fn();
        FAIL() << context << ": expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        for (const auto& needle : needles)
            EXPECT_NE(what.find(needle), std::string::npos)
                << context << ": diagnostic \"" << what << "\" does not mention \"" << needle
                << "\"";
    }
}

dd::EngineSpec spec_of(dd::Arithmetic arith, dd::DecoderBackend backend, dd::Schedule schedule,
                       dd::SimdLaneMode lanes = dd::SimdLaneMode::Auto, int iters = 10) {
    dd::EngineSpec spec;
    spec.arith = arith;
    spec.config.backend = backend;
    spec.config.schedule = schedule;
    spec.config.lane_mode = lanes;
    spec.config.max_iterations = iters;
    spec.quant = dq::kQuant6;
    return spec;
}

constexpr dd::Schedule kAllSchedules[] = {dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward,
                                          dd::Schedule::ZigzagSegmented, dd::Schedule::ZigzagMap,
                                          dd::Schedule::Layered};

/// The three engines make_engine builds, by (arithmetic, backend).
constexpr struct {
    dd::Arithmetic arith;
    dd::DecoderBackend backend;
    const char* name;  ///< backend_name() prefix
} kEngines[] = {
    {dd::Arithmetic::Float, dd::DecoderBackend::Scalar, "float-scalar"},
    {dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, "fixed-scalar"},
    {dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, "fixed-simd"},
};

}  // namespace

// ----------------------------------------------------------- engine choice

TEST(EngineRegistry, ArithmeticAndBackendPickTheEngine) {
    // (arithmetic, backend) selects one of the three engines; the fourth
    // combination, float on the SIMD backend, is rejected
    // (EngineValidation.FloatRejectsSimdBackend).
    for (const auto& e : kEngines) {
        const auto eng =
            dd::make_engine(toy_code(), spec_of(e.arith, e.backend, dd::Schedule::TwoPhase));
        EXPECT_EQ(eng->backend_name().rfind(e.name, 0), 0u) << eng->backend_name();
        EXPECT_EQ(eng->arithmetic(), e.arith) << e.name;
        EXPECT_EQ(eng->config().backend, e.backend) << e.name;
    }
}

TEST(EngineRegistry, MakeEngineReportsSpec) {
    const struct {
        dd::EngineSpec spec;
        bool has_quant;
    } cases[] = {
        {spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
         false},
        {spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, dd::Schedule::Layered), true},
        {spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, dd::Schedule::ZigzagSegmented),
         true},
    };
    for (const auto& c : cases) {
        const auto eng = dd::make_engine(toy_code(), c.spec);
        EXPECT_EQ(eng->arithmetic(), c.spec.arith);
        EXPECT_EQ(eng->config().schedule, c.spec.config.schedule);
        EXPECT_EQ(eng->config().max_iterations, c.spec.config.max_iterations);
        EXPECT_FALSE(eng->backend_name().empty());
        if (c.has_quant) {
            ASSERT_NE(eng->quant_spec(), nullptr);
            EXPECT_EQ(*eng->quant_spec(), dq::kQuant6);
        } else {
            EXPECT_EQ(eng->quant_spec(), nullptr);
        }
        EXPECT_GE(eng->preferred_batch(), 1);
    }
}

// ------------------------------------------------------------- validation

TEST(EngineValidation, FloatRejectsSimdBackend) {
    expect_throws_mentioning(
        [] {
            dd::validate_engine_spec(spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Simd,
                                             dd::Schedule::TwoPhase));
        },
        {"fixed", "simd"}, "float+simd");
}

TEST(EngineValidation, GroupLaneModeRejectsSerialSchedulesNamingTheObstruction) {
    // Group-parallel lanes need a lockstep-legal schedule (the dataflow IR's
    // classify_schedule verdict): two-phase and zigzag-segmented. The three
    // serial-chain schedules are rejected with the schedule and the IR's
    // obstruction in the diagnostic; auto and frame-per-lane run all five.
    for (const auto schedule : kAllSchedules) {
        const auto group = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, schedule,
                                   dd::SimdLaneMode::GroupParallel);
        const auto& cls = ir::classify_schedule(schedule);
        if (cls.group_parallel_legal) {
            EXPECT_NO_THROW(dd::validate_engine_spec(group)) << dd::to_string(schedule);
        } else {
            ASSERT_FALSE(cls.group_parallel_obstruction.empty()) << dd::to_string(schedule);
            expect_throws_mentioning([&] { (void)dd::make_engine(toy_code(), group); },
                                     {"lane_mode=group-parallel", dd::to_string(schedule),
                                      cls.group_parallel_obstruction},
                                     std::string("group-parallel ") + dd::to_string(schedule));
        }
        for (const auto lanes : {dd::SimdLaneMode::Auto, dd::SimdLaneMode::FramePerLane})
            EXPECT_NO_THROW((void)dd::make_engine(
                toy_code(), spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, schedule,
                                    lanes)))
                << dd::to_string(schedule) << " " << dd::to_string(lanes);
    }
    EXPECT_FALSE(ir::classify_schedule(dd::Schedule::ZigzagForward).group_parallel_legal);
    EXPECT_TRUE(ir::classify_schedule(dd::Schedule::ZigzagSegmented).group_parallel_legal);
}

TEST(EngineValidation, RuleParametersCheckedForMatchingRuleOnly) {
    auto spec = spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar,
                        dd::Schedule::ZigzagForward);
    spec.config.rule = dd::CheckRule::NormalizedMinSum;
    spec.config.normalization = 0.0;
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"normalization"},
                             "normalization=0");
    spec.config.normalization = 1.5;
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"normalization"},
                             "normalization=1.5");

    spec.config.rule = dd::CheckRule::OffsetMinSum;
    spec.config.offset = -0.25;
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"offset"}, "offset<0");

    // An out-of-range parameter of a rule NOT in use is ignored.
    spec.config.rule = dd::CheckRule::Exact;
    spec.config.normalization = 7.0;
    spec.config.offset = -3.0;
    EXPECT_NO_THROW(dd::validate_engine_spec(spec));

    spec.config.max_iterations = -1;
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"max_iterations"},
                             "negative iteration cap");
}

TEST(EngineValidation, FixedEnginesRejectMalformedQuantSpec) {
    auto spec = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                        dd::Schedule::ZigzagForward);
    spec.quant = dq::QuantSpec{1, 0};
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"total_bits"},
                             "1-bit quantizer");
    // The same malformed quantizer is fine for float arithmetic (unused).
    spec.arith = dd::Arithmetic::Float;
    EXPECT_NO_THROW(dd::validate_engine_spec(spec));
}

TEST(EngineValidation, WrappersRouteThroughCentralValidation) {
    dd::DecoderConfig cfg;
    cfg.backend = dd::DecoderBackend::Simd;
    // Decoder is float arithmetic: float+simd must be rejected.
    expect_throws_mentioning([&] { dd::Decoder dec(toy_code(), cfg); }, {"fixed"},
                             "Decoder wrapper float+simd");
    // FixedDecoder with an out-of-range parameter for the active rule.
    cfg.schedule = dd::Schedule::Layered;
    cfg.rule = dd::CheckRule::NormalizedMinSum;
    cfg.normalization = 1.5;
    expect_throws_mentioning(
        [&] { dd::FixedDecoder dec(toy_code(), cfg, dq::kQuant6); },
        {"normalization"}, "FixedDecoder wrapper bad normalization");
}

// ----------------------------------------------------- reuse and batching

namespace {

void check_reuse_equals_fresh(const dd::EngineSpec& spec, const std::string& context) {
    const auto& code = toy_code();
    const auto reused = dd::make_engine(code, spec);
    dd::DecodeResult out;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto llr = noisy_llrs(code, 1.0 + 0.3 * static_cast<double>(seed % 3), seed);
        reused->decode_into(llr, out);
        const auto fresh = dd::make_engine(code, spec)->decode(llr);
        expect_same_result(out, fresh, context + ", seed " + std::to_string(seed));
    }
}

}  // namespace

TEST(EngineReuse, ReusedWorkspaceMatchesFreshEngine) {
    check_reuse_equals_fresh(
        spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
        "float-scalar");
    check_reuse_equals_fresh(
        spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, dd::Schedule::Layered),
        "fixed-scalar");
    check_reuse_equals_fresh(spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                     dd::Schedule::ZigzagSegmented),
                             "fixed-simd group");
    check_reuse_equals_fresh(spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                     dd::Schedule::ZigzagForward,
                                     dd::SimdLaneMode::FramePerLane),
                             "fixed-simd frame-per-lane");
}

namespace {

void check_batch_equals_single(const dd::EngineSpec& spec, int batch,
                               const std::string& context) {
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    const auto eng = dd::make_engine(code, spec);

    std::vector<double> flat;
    std::vector<std::vector<double>> frames;
    for (int f = 0; f < batch; ++f) {
        frames.push_back(noisy_llrs(code, 0.8 + 0.4 * (f % 4), 100 + static_cast<std::uint64_t>(f)));
        flat.insert(flat.end(), frames.back().begin(), frames.back().end());
    }

    std::vector<dd::DecodeResult> batched(static_cast<std::size_t>(batch));
    eng->decode_batch(flat, batched);

    const auto single = dd::make_engine(code, spec);
    dd::DecodeResult ref;
    for (int f = 0; f < batch; ++f) {
        single->decode_into(frames[static_cast<std::size_t>(f)], ref);
        expect_same_result(batched[static_cast<std::size_t>(f)], ref,
                           context + ", frame " + std::to_string(f));
    }
    (void)n;
}

}  // namespace

TEST(EngineBatch, BatchEqualsPerFrameDecode) {
    // Float engine: base-class loop.
    check_batch_equals_single(
        spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
        3, "float-scalar");
    // SIMD frame-per-lane: preferred_batch()+3 frames forces a full block
    // plus a partial tail block at reduced lane occupancy.
    const auto simd_spec = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                   dd::Schedule::ZigzagForward, dd::SimdLaneMode::FramePerLane);
    const int lanes = dd::make_engine(toy_code(), simd_spec)->preferred_batch();
    ASSERT_GE(lanes, 1);
    check_batch_equals_single(simd_spec, lanes + 3, "fixed-simd frame-per-lane");
    // Auto mode on a lockstep-legal schedule: single-frame calls go
    // group-parallel, batches frame-per-lane — both must agree with
    // per-frame decode_into.
    check_batch_equals_single(spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                      dd::Schedule::ZigzagSegmented),
                              lanes + 1, "fixed-simd auto");
}

// --------------------------------------------- cross-backend equivalence

TEST(EngineEquivalence, AllSchedulesFramePerLaneMatchesScalar) {
    const auto& code = toy_code();
    for (const auto schedule :
         {dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward, dd::Schedule::ZigzagSegmented,
          dd::Schedule::ZigzagMap, dd::Schedule::Layered}) {
        const auto scalar = dd::make_engine(
            code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, schedule));
        const auto lanes_eng = dd::make_engine(
            code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, schedule,
                          dd::SimdLaneMode::FramePerLane));
        dd::DecodeResult a, b;
        for (std::uint64_t seed = 11; seed <= 13; ++seed) {
            const auto llr = noisy_llrs(code, 1.2, seed);
            scalar->decode_into(llr, a);
            lanes_eng->decode_into(llr, b);
            expect_same_result(a, b, std::string("frame-per-lane vs scalar, schedule ") +
                                         dd::to_string(schedule));
        }
    }
}

TEST(EngineEquivalence, GroupParallelMatchesScalar) {
    // Every schedule under lane_mode=auto (group-parallel single frames on
    // two-phase and segmented, the scalar reference on the serial-chain
    // schedules, frame-per-lane batches on all five), and group-parallel
    // lanes on the two lockstep-legal schedules.
    const auto& code = toy_code();
    for (const auto schedule : kAllSchedules) {
        std::vector<dd::SimdLaneMode> modes = {dd::SimdLaneMode::Auto};
        if (ir::classify_schedule(schedule).group_parallel_legal)
            modes.push_back(dd::SimdLaneMode::GroupParallel);
        const auto scalar = dd::make_engine(
            code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, schedule));
        for (const auto lanes : modes) {
            const auto simd = dd::make_engine(
                code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, schedule, lanes));
            const std::string ctx = std::string(dd::to_string(lanes)) + " vs scalar, schedule " +
                                    dd::to_string(schedule);
            std::vector<double> flat;
            std::vector<dd::DecodeResult> ref(3);
            dd::DecodeResult got;
            for (std::uint64_t seed = 21; seed <= 23; ++seed) {
                const auto llr = noisy_llrs(code, 1.2, seed);
                flat.insert(flat.end(), llr.begin(), llr.end());
                scalar->decode_into(llr, ref[seed - 21]);
                simd->decode_into(llr, got);
                expect_same_result(ref[seed - 21], got, ctx);
            }
            std::vector<dd::DecodeResult> batch(3);
            simd->decode_batch(flat, batch);
            for (std::size_t f = 0; f < batch.size(); ++f)
                expect_same_result(ref[f], batch[f], ctx + ", batch frame " + std::to_string(f));
        }
    }
}

TEST(EngineEquivalence, RawDecodeMatchesAcrossFixedBackends) {
    const auto& code = toy_code();
    const auto spec = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                              dd::Schedule::ZigzagSegmented);
    const auto scalar = dd::make_engine(code, spec);
    auto simd_spec = spec;
    simd_spec.config.backend = dd::DecoderBackend::Simd;
    const auto simd = dd::make_engine(code, simd_spec);

    dd::DecodeResult a, b;
    for (std::uint64_t seed = 31; seed <= 34; ++seed) {
        const auto qllr = random_channel(code, dq::kQuant6, seed);
        scalar->decode_raw_into(qllr, a);
        simd->decode_raw_into(qllr, b);
        expect_same_result(a, b, "decode_raw_into, seed " + std::to_string(seed));
    }
}

TEST(EngineEquivalence, CrossBackendMatrixAllRates) {
    // One noisy frame per standard long-frame rate at a low iteration cap:
    // fixed-scalar, SIMD group-parallel and SIMD frame-per-lane must agree
    // bit for bit; the float engine must agree with its own batched path.
    for (const auto rate : dc::all_rates()) {
        const dc::Dvbs2Code code(dc::standard_params(rate));
        const auto llr = noisy_llrs(code, 2.0, 7 + static_cast<std::uint64_t>(rate));

        const auto base = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                                  dd::Schedule::ZigzagSegmented, dd::SimdLaneMode::Auto, 4);
        const auto scalar = dd::make_engine(code, base);
        auto group_spec = base;
        group_spec.config.backend = dd::DecoderBackend::Simd;
        group_spec.config.lane_mode = dd::SimdLaneMode::GroupParallel;
        const auto group = dd::make_engine(code, group_spec);
        auto lane_spec = group_spec;
        lane_spec.config.lane_mode = dd::SimdLaneMode::FramePerLane;
        const auto lanes_eng = dd::make_engine(code, lane_spec);

        dd::DecodeResult a, b, c;
        scalar->decode_into(llr, a);
        group->decode_into(llr, b);
        lanes_eng->decode_into(llr, c);
        const std::string ctx = std::string("rate ") + dc::to_string(rate);
        expect_same_result(a, b, ctx + ", group vs scalar");
        expect_same_result(a, c, ctx + ", frame-per-lane vs scalar");

        auto float_spec = base;
        float_spec.arith = dd::Arithmetic::Float;
        const auto fp = dd::make_engine(code, float_spec);
        dd::DecodeResult fa;
        fp->decode_into(llr, fa);
        std::vector<double> flat(llr);
        flat.insert(flat.end(), llr.begin(), llr.end());
        std::vector<dd::DecodeResult> fb(2);
        fp->decode_batch(flat, fb);
        expect_same_result(fa, fb[0], ctx + ", float batch[0]");
        expect_same_result(fa, fb[1], ctx + ", float batch[1]");
    }
}

TEST(EngineEquivalence, RunAndDumpC2vMatchesAcrossBackends) {
    const auto& code = toy_code();
    const auto qllr = random_channel(code, dq::kQuant6, 99);
    const auto base = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                              dd::Schedule::ZigzagSegmented);
    const auto ref = dd::make_engine(code, base)->run_and_dump_c2v(qllr, 3);
    auto group_spec = base;
    group_spec.config.backend = dd::DecoderBackend::Simd;
    EXPECT_EQ(dd::make_engine(code, group_spec)->run_and_dump_c2v(qllr, 3), ref);
    auto lane_spec = group_spec;
    lane_spec.config.lane_mode = dd::SimdLaneMode::FramePerLane;
    EXPECT_EQ(dd::make_engine(code, lane_spec)->run_and_dump_c2v(qllr, 3), ref);

    auto float_spec = base;
    float_spec.arith = dd::Arithmetic::Float;
    EXPECT_THROW((void)dd::make_engine(code, float_spec)->run_and_dump_c2v(qllr, 3),
                 std::runtime_error);
}

// ----------------------------------------------------- observers and hooks

TEST(EngineObserver, ObserverDoesNotChangeResults) {
    const auto& code = toy_code();
    for (const auto& spec :
         {spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
          spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, dd::Schedule::Layered),
          spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                  dd::Schedule::ZigzagSegmented)}) {
        const auto llr = noisy_llrs(code, 1.0, 5);
        const auto plain = dd::make_engine(code, spec)->decode(llr);
        const auto traced_eng = dd::make_engine(code, spec);
        int traces = 0;
        traced_eng->set_observer([&](const dd::IterationTrace& t) {
            EXPECT_EQ(t.iteration, traces + 1);
            ++traces;
        });
        const auto traced = traced_eng->decode(llr);
        expect_same_result(plain, traced, std::string("observer, ") + traced_eng->backend_name());
        EXPECT_EQ(traces, traced.iterations);
    }
}

TEST(EngineObserver, FramePerLaneRejectsObserver) {
    const auto eng = dd::make_engine(
        toy_code(), spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                            dd::Schedule::ZigzagForward, dd::SimdLaneMode::FramePerLane));
    EXPECT_THROW(eng->set_observer([](const dd::IterationTrace&) {}), std::runtime_error);
    EXPECT_NO_THROW(eng->set_observer({}));  // clearing is always legal
}

TEST(EngineHooks, UnsupportedHooksThrow) {
    const auto& code = toy_code();
    const auto fp = dd::make_engine(
        code, spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar,
                      dd::Schedule::ZigzagForward));
    dd::DecodeResult out;
    const auto qllr = random_channel(code, dq::kQuant6, 1);
    EXPECT_THROW(fp->decode_raw_into(qllr, out), std::runtime_error);

    const auto simd = dd::make_engine(
        code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                      dd::Schedule::ZigzagSegmented));
    EXPECT_THROW(simd->set_cn_order({0, 1, 2}), std::runtime_error);
}

// ------------------------------------------------- Monte-Carlo equivalence

TEST(EngineMonteCarlo, EngineTalliesMatchDecodeFactoryPath) {
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2, dc::FrameSize::Short));
    dd::DecoderConfig dcfg;
    dcfg.schedule = dd::Schedule::ZigzagSegmented;
    dcfg.max_iterations = 8;
    dm::SimConfig sim;
    sim.seed = 11;
    sim.threads = 1;
    sim.limits.max_frames = 12;
    sim.limits.min_frames = 12;
    sim.limits.target_bit_errors = ~0ULL;
    sim.limits.target_frame_errors = ~0ULL;
    const double ebn0 = 1.0;

    dm::DecodeFactory factory = [&](unsigned) {
        auto dec = std::make_shared<dd::FixedDecoder>(code, dcfg, dq::kQuant6);
        return [dec](const std::vector<double>& llr) {
            const auto r = dec->decode(llr);
            return dm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        };
    };
    const auto ref = dm::simulate_point_parallel(code, factory, ebn0, sim);
    ASSERT_EQ(ref.frames, 12u);

    const auto check = [&](const dd::EngineSpec& spec, unsigned threads,
                           const std::string& context) {
        dm::SimConfig cfg = sim;
        cfg.threads = threads;
        const auto pt = dm::simulate_point_engine(code, spec, ebn0, cfg);
        EXPECT_EQ(pt.frames, ref.frames) << context;
        EXPECT_EQ(pt.bit_errors, ref.bit_errors) << context;
        EXPECT_EQ(pt.frame_errors, ref.frame_errors) << context;
        EXPECT_EQ(pt.undetected_frame_errors, ref.undetected_frame_errors) << context;
        EXPECT_EQ(pt.avg_iterations, ref.avg_iterations) << context;
    };
    dd::EngineSpec spec;
    spec.arith = dd::Arithmetic::Fixed;
    spec.config = dcfg;
    spec.quant = dq::kQuant6;
    check(spec, 1, "fixed-scalar x1");
    check(spec, 3, "fixed-scalar x3");
    spec.config.backend = dd::DecoderBackend::Simd;
    check(spec, 2, "fixed-simd auto x2");
    spec.config.lane_mode = dd::SimdLaneMode::FramePerLane;
    check(spec, 2, "fixed-simd frame-per-lane x2");
}

TEST(EngineMonteCarlo, SweepEngineMatchesPointCalls) {
    const auto& code = toy_code();
    dd::EngineSpec spec;
    spec.arith = dd::Arithmetic::Fixed;
    spec.config.backend = dd::DecoderBackend::Simd;
    spec.config.lane_mode = dd::SimdLaneMode::FramePerLane;
    spec.config.max_iterations = 10;
    dm::SimConfig sim;
    sim.seed = 4;
    sim.threads = 2;
    sim.limits.max_frames = 10;
    sim.limits.min_frames = 10;
    const std::vector<double> points = {0.5, 1.5};
    const auto sweep = dm::simulate_sweep_engine(code, spec, points, sim);
    ASSERT_EQ(sweep.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto pt = dm::simulate_point_engine(code, spec, points[i], sim);
        EXPECT_EQ(sweep[i].frames, pt.frames);
        EXPECT_EQ(sweep[i].bit_errors, pt.bit_errors);
        EXPECT_EQ(sweep[i].frame_errors, pt.frame_errors);
        EXPECT_EQ(sweep[i].avg_iterations, pt.avg_iterations);
    }
}

// ------------------------------------------- early-stop agreement property

// Property: for every built-in engine and any channel, when an
// early-stopping decode reports convergence, the full-budget decode of the
// same frame yields the same hard-decision codeword. (Once the syndrome is
// satisfied every variable's sign is fixed by a valid codeword; further
// iterations only sharpen magnitudes.)
TEST(EngineProperties, EarlyStopConvergedMatchesFullBudgetCodeword) {
    const auto& code = toy_code();
    const double snrs[] = {1.0, 2.5, 4.0};
    for (const auto& key : kEngines) {
        for (const dd::Schedule schedule : kAllSchedules) {
            auto es_spec = spec_of(key.arith, key.backend, schedule);
            es_spec.config.early_stop = true;
            auto full_spec = es_spec;
            full_spec.config.early_stop = false;
            const auto es = dd::make_engine(code, es_spec);
            const auto full = dd::make_engine(code, full_spec);
            const std::string which =
                std::string(dd::to_string(key.arith)) + "+" + dd::to_string(key.backend) + "+" +
                dd::to_string(schedule);
            int converged_seen = 0;
            dd::DecodeResult a, b;
            for (std::uint64_t s = 0; s < 6; ++s) {
                const auto llr = noisy_llrs(code, snrs[s % 3], 7000 + s);
                es->decode_into(llr, a);
                full->decode_into(llr, b);
                if (!a.converged) continue;
                ++converged_seen;
                EXPECT_EQ(BitVec::hamming_distance(a.codeword, b.codeword), 0u)
                    << which << " seed " << 7000 + s;
                EXPECT_EQ(BitVec::hamming_distance(a.info_bits, b.info_bits), 0u)
                    << which << " seed " << 7000 + s;
                // The early stop can only save iterations, never add them.
                EXPECT_LE(a.iterations, b.iterations) << which;
            }
            // The property must not pass vacuously: at these SNRs the toy
            // code converges for at least the easy frames on every backend.
            EXPECT_GE(converged_seen, 2) << which;
        }
    }
}

// --------------------- span-mismatch diagnostics (all backends) ----------

namespace {

/// Runs `f`, expecting a std::runtime_error; returns its message.
std::string batch_error(const std::function<void()>& f) {
    try {
        f();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

std::vector<dd::EngineSpec> validating_specs() {
    dd::EngineSpec scalar;  // fixed scalar
    dd::EngineSpec simd;
    simd.config.backend = dd::DecoderBackend::Simd;
    dd::EngineSpec flt;
    flt.arith = dd::Arithmetic::Float;
    return {scalar, simd, flt};
}

}  // namespace

TEST(EngineBatchValidation, EveryBackendDeclaresFrameLength) {
    const auto& code = toy_code();
    for (const auto& spec : validating_specs()) {
        const auto eng = dd::make_engine(code, spec);
        EXPECT_EQ(eng->frame_length(), static_cast<std::size_t>(code.n()))
            << eng->backend_name();
    }
}

TEST(EngineBatchValidation, MismatchNamesBothSizesAndExpectedRelation) {
    // Regression: a mismatched decode_batch call used to fail deep inside a
    // backend (or silently decode garbage lanes on the SIMD path) without
    // naming the sizes involved. The public entry point must reject it with
    // a diagnostic carrying llrs.size(), out.size(), N and the product —
    // identically for the scalar AND SIMD engines.
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    for (const auto& spec : validating_specs()) {
        const auto eng = dd::make_engine(code, spec);
        const std::string name = eng->backend_name();
        std::vector<double> llrs(2 * n - 1, 0.5);  // one value short of 2 frames
        std::vector<dd::DecodeResult> out(2);
        const std::string msg = batch_error([&] {
            eng->decode_batch(llrs, out);
        });
        ASSERT_FALSE(msg.empty()) << name << ": mismatched batch did not throw";
        EXPECT_NE(msg.find("decode_batch"), std::string::npos) << name << ": " << msg;
        EXPECT_NE(msg.find("llrs.size()=" + std::to_string(2 * n - 1)), std::string::npos)
            << name << ": " << msg;
        EXPECT_NE(msg.find("out.size()=2"), std::string::npos) << name << ": " << msg;
        EXPECT_NE(msg.find("N=" + std::to_string(n)), std::string::npos) << name << ": " << msg;
        EXPECT_NE(msg.find("= " + std::to_string(2 * n)), std::string::npos)
            << name << ": expected product missing: " << msg;
    }
}

TEST(EngineBatchValidation, ZeroResultSlotsNamesBothSizes) {
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    for (const auto& spec : validating_specs()) {
        const auto eng = dd::make_engine(code, spec);
        std::vector<double> llrs(n, 0.5);
        const std::string msg = batch_error([&] {
            eng->decode_batch(llrs, std::span<dd::DecodeResult>{});
        });
        ASSERT_FALSE(msg.empty()) << eng->backend_name();
        EXPECT_NE(msg.find("out.size()=0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("llrs.size()=" + std::to_string(n)), std::string::npos) << msg;
    }
}

TEST(EngineBatchValidation, SingleFrameSpanMismatchNamesN) {
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    for (const auto& spec : validating_specs()) {
        const auto eng = dd::make_engine(code, spec);
        std::vector<double> llr(n + 3, 0.5);
        dd::DecodeResult out;
        const std::string msg = batch_error([&] { eng->decode_into(llr, out); });
        ASSERT_FALSE(msg.empty()) << eng->backend_name();
        EXPECT_NE(msg.find("decode_into"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(n + 3)), std::string::npos) << msg;
        EXPECT_NE(msg.find("N=" + std::to_string(n)), std::string::npos) << msg;
    }
}

TEST(EngineStaging, NonFiniteLlrNamesItsIndexOnEveryEngine) {
    // Fixed SIMD engines stage through the vector quantizer, which only
    // reports that a frame holds a non-finite value; the diagnostic must
    // still name the first one's index: at index 0, inside a vector
    // register, and in the quantizer's scalar tail (the last index of an odd
    // N). A second bad value after the first must not be named.
    const dc::Dvbs2Code code(dc::toy_params(15, 5, 1, 7, 1));  // N = 105
    const auto n = static_cast<std::size_t>(code.n());
    ASSERT_EQ(n % 2, 1u);
    const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
    const std::size_t positions[] = {0, 5, n / 2, n - 1};
    const std::vector<double> clean = noisy_llrs(code, 3.0, 0x57A6E);
    for (const auto& engine : kEngines) {
        const auto eng = dd::make_engine(
            code, spec_of(engine.arith, engine.backend, dd::Schedule::ZigzagForward));
        const std::string name = eng->backend_name();
        for (const double bad : bad_values) {
            for (const std::size_t pos : positions) {
                std::vector<double> llr = clean;
                llr[pos] = bad;
                if (pos + 1 < n) llr[n - 1] = bad;
                const std::string want =
                    "non-finite channel LLR at index " + std::to_string(pos);
                const std::string ctx = name + " value " + std::to_string(bad) + " at " +
                                        std::to_string(pos);
                dd::DecodeResult out;
                const std::string single = batch_error([&] { eng->decode_into(llr, out); });
                ASSERT_TRUE(single.ends_with(want)) << ctx << ": " << single;
                EXPECT_EQ(single.find("frame "), std::string::npos) << ctx << ": " << single;

                // A batch names the offending frame and the index within it.
                std::vector<double> batch = clean;
                batch.insert(batch.end(), llr.begin(), llr.end());
                batch.insert(batch.end(), clean.begin(), clean.end());
                std::vector<dd::DecodeResult> outs(3);
                const std::string batched =
                    batch_error([&] { eng->decode_batch(batch, outs); });
                ASSERT_TRUE(batched.ends_with(want)) << ctx << " (batch): " << batched;
                ASSERT_TRUE(batched.ends_with("frame 1: " + want))
                    << ctx << " (batch): " << batched;
            }
        }
        // The engine is still usable after the rejected calls.
        dd::DecodeResult out;
        EXPECT_NO_THROW(eng->decode_into(clean, out)) << name;
    }
}
