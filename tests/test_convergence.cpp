// Convergence test tier: per-lane early termination, lane compaction and
// the ConvergenceStats telemetry (ISSUE: "Per-lane early termination with
// lane compaction in the SIMD backends").
//
// The tier pins one strict invariant: with early termination enabled, every
// frame decoded by a SIMD backend — group-parallel single frames or
// frame-per-lane batches with lane compaction — produces a codeword,
// iteration count and converged flag bit-identical to a scalar
// MpDecoder<FixedArith> decode of the same frame, for every standard rate
// and every schedule the lane mapping supports; and lane compaction returns
// results in input order no matter how unevenly the lanes converge. On top
// of that sit the ConvergenceStats unit tests, the engine-layer telemetry
// contract, and Monte-Carlo iteration-histogram pins (golden values in
// golden_convergence_pins.inc).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "comm/parallel.hpp"
#include "core/engine.hpp"
#include "core/simd/batch_decoder.hpp"
#include "core/syndrome.hpp"
#include "core/simd/simd_decoder.hpp"
#include "enc/encoder.hpp"
#include "quant/fixed.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;
namespace dq = dvbs2::quant;
using dvbs2::util::BitVec;

namespace {

std::string name_of(dd::Schedule s) { return dd::to_string(s); }

constexpr dd::Schedule kAllSchedules[] = {dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward,
                                          dd::Schedule::ZigzagSegmented, dd::Schedule::ZigzagMap,
                                          dd::Schedule::Layered};
constexpr dd::Schedule kGroupSchedules[] = {dd::Schedule::TwoPhase,
                                            dd::Schedule::ZigzagSegmented};

const dc::Dvbs2Code& toy_code() {
    // p = 12: one full AVX2 block of 8 lanes plus a 4-lane tail per group.
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

/// Noisy BPSK instance of a random codeword (deterministic per seed).
std::vector<double> noisy_llrs(const dc::Dvbs2Code& code, double ebn0_db, std::uint64_t seed) {
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), seed);
    const BitVec cw = enc.encode(info);
    dm::AwgnModem modem(dm::Modulation::Bpsk, seed * 77 + 1);
    const double sigma = dm::noise_sigma(ebn0_db, code.params().rate(), dm::Modulation::Bpsk);
    return modem.transmit(cw, sigma);
}

/// Frame-major block of `frames` noisy frames with alternating hard/easy
/// SNR, so a batch mixes quick converging lanes with slow (or never
/// converging) ones — the adversarial case for per-lane retirement order.
std::vector<double> mixed_block(const dc::Dvbs2Code& code, std::size_t frames, double hard_db,
                                double easy_db, std::uint64_t seed0 = 100) {
    std::vector<double> block;
    for (std::size_t f = 0; f < frames; ++f) {
        const auto llr = noisy_llrs(code, (f % 2) ? easy_db : hard_db, seed0 + f);
        block.insert(block.end(), llr.begin(), llr.end());
    }
    return block;
}

dd::EngineSpec spec_of(dd::DecoderBackend backend, dd::Schedule schedule,
                       dd::SimdLaneMode lanes = dd::SimdLaneMode::Auto, int iters = 8,
                       bool early_stop = true) {
    dd::EngineSpec spec;
    spec.arith = dd::Arithmetic::Fixed;
    spec.config.backend = backend;
    spec.config.schedule = schedule;
    spec.config.lane_mode = lanes;
    spec.config.max_iterations = iters;
    spec.config.early_stop = early_stop;
    spec.quant = dq::kQuant6;
    return spec;
}

void expect_same_result(const dd::DecodeResult& a, const dd::DecodeResult& b,
                        const std::string& context) {
    EXPECT_EQ(a.converged, b.converged) << context;
    EXPECT_EQ(a.iterations, b.iterations) << context;
    EXPECT_EQ(BitVec::hamming_distance(a.codeword, b.codeword), 0u) << context;
    EXPECT_EQ(BitVec::hamming_distance(a.info_bits, b.info_bits), 0u) << context;
}

/// Lane count of the frame-per-lane decoder for the q6 specs on `code`
/// (every q6 spec on a standard or toy code runs 16-bit lanes, so they all
/// share it).
std::size_t batch_lanes(const dc::Dvbs2Code& code) {
    return static_cast<std::size_t>(
        dd::SimdBatchFixedDecoder(code, dd::DecoderConfig{}, dq::kQuant6).lanes());
}

/// Decodes `frames` frames of `block` per-frame through a scalar fixed
/// engine — the reference every SIMD result must reproduce bit for bit.
std::vector<dd::DecodeResult> scalar_reference(const dc::Dvbs2Code& code,
                                               const dd::EngineSpec& simd_spec,
                                               std::span<const double> block,
                                               std::size_t frames) {
    dd::EngineSpec sc = simd_spec;
    sc.config.backend = dd::DecoderBackend::Scalar;
    const auto eng = dd::make_engine(code, sc);
    const std::size_t n = block.size() / frames;
    std::vector<dd::DecodeResult> out(frames);
    for (std::size_t f = 0; f < frames; ++f) eng->decode_into(block.subspan(f * n, n), out[f]);
    return out;
}

}  // namespace

// -------------------------------------------------- ConvergenceStats (unit)

TEST(ConvergenceStats, RecordCountsFramesIterationsAndConvergence) {
    dd::ConvergenceStats s;
    s.record(3, true);
    s.record(5, false);
    EXPECT_EQ(s.frames, 2u);
    EXPECT_EQ(s.converged_frames, 1u);
    EXPECT_EQ(s.iteration_sum, 8u);
    ASSERT_GE(s.histogram.size(), 6u);
    EXPECT_EQ(s.histogram[3], 1u);
    EXPECT_EQ(s.histogram[5], 1u);
    EXPECT_DOUBLE_EQ(s.mean_iterations(), 4.0);
    EXPECT_DOUBLE_EQ(s.convergence_rate(), 0.5);
}

TEST(ConvergenceStats, NegativeIterationsClampToZero) {
    dd::ConvergenceStats s;
    s.record(-3, true);
    EXPECT_EQ(s.frames, 1u);
    EXPECT_EQ(s.iteration_sum, 0u);
    ASSERT_GE(s.histogram.size(), 1u);
    EXPECT_EQ(s.histogram[0], 1u);
}

TEST(ConvergenceStats, ReservePresizesAndInRangeRecordsDoNotGrow) {
    dd::ConvergenceStats s;
    s.reserve_iterations(10);
    ASSERT_EQ(s.histogram.size(), 11u);  // counts 0..10 inclusive
    s.record(10, true);
    EXPECT_EQ(s.histogram.size(), 11u);
    s.record(12, false);  // out of the reserved range: grows rather than drops
    EXPECT_EQ(s.histogram.size(), 13u);
    EXPECT_EQ(s.histogram[12], 1u);
}

TEST(ConvergenceStats, MergeAddsCountsAndAlignsHistograms) {
    dd::ConvergenceStats a;
    a.record(2, true);
    dd::ConvergenceStats b;
    b.record(7, false);
    b.record(2, true);
    a.merge(b);
    EXPECT_EQ(a.frames, 3u);
    EXPECT_EQ(a.converged_frames, 2u);
    EXPECT_EQ(a.iteration_sum, 11u);
    ASSERT_GE(a.histogram.size(), 8u);
    EXPECT_EQ(a.histogram[2], 2u);
    EXPECT_EQ(a.histogram[7], 1u);
}

TEST(ConvergenceStats, ResetZeroesCountsButKeepsStorage) {
    dd::ConvergenceStats s;
    s.reserve_iterations(6);
    s.record(4, true);
    const std::size_t size = s.histogram.size();
    s.reset();
    EXPECT_EQ(s.frames, 0u);
    EXPECT_EQ(s.converged_frames, 0u);
    EXPECT_EQ(s.iteration_sum, 0u);
    EXPECT_EQ(s.histogram.size(), size);
    for (const auto h : s.histogram) EXPECT_EQ(h, 0u);
    EXPECT_DOUBLE_EQ(s.mean_iterations(), 0.0);
    EXPECT_DOUBLE_EQ(s.convergence_rate(), 0.0);
}

// ------------------------------------- equivalence matrix, all eleven rates
//
// For every standard rate (Short frames where the family defines the rate,
// Long for 9/10) and every schedule: a frame-per-lane batch of W + 2 mixed
// hard/easy frames with early stopping decodes bit-identically — converged,
// iterations, codeword, info bits — to the scalar reference, frame by
// frame; and for the schedules the group-parallel mapping supports, so do
// single-frame group-parallel decodes. The serial-chain schedules have no
// group-parallel mapping: under lane_mode=auto their single frames run on
// the scalar reference and their batches frame-per-lane, both again
// bit-identical. The SIMD engines' ConvergenceStats must then equal the
// scalar engine's too.

class ConvergenceAllRates : public ::testing::TestWithParam<dc::CodeRate> {};

TEST_P(ConvergenceAllRates, EarlyTerminationBitIdenticalToScalar) {
    const dc::CodeRate rate = GetParam();
    const auto short_rates = dc::rates_for(dc::FrameSize::Short);
    const bool has_short =
        std::find(short_rates.begin(), short_rates.end(), rate) != short_rates.end();
    const dc::Dvbs2Code code(
        dc::standard_params(rate, has_short ? dc::FrameSize::Short : dc::FrameSize::Long));
    const auto frames = batch_lanes(code) + 2;  // forces a refill
    // 1 dB frames often exhaust the 8-iteration budget; 4 dB frames converge
    // in a couple — a genuinely mixed batch on every rate.
    const std::vector<double> block = mixed_block(code, frames, 1.0, 4.0);
    const std::size_t n = block.size() / frames;

    for (const dd::Schedule schedule : kAllSchedules) {
        const auto spec =
            spec_of(dd::DecoderBackend::Simd, schedule, dd::SimdLaneMode::FramePerLane);
        const auto ref = scalar_reference(code, spec, block, frames);
        // Structural telemetry: identical per-frame results must aggregate
        // to identical histograms, whatever path recorded them.
        dd::ConvergenceStats expect;
        expect.reserve_iterations(spec.config.max_iterations);
        for (const auto& r : ref) expect.record(r.iterations, r.converged);
        const auto expect_same_stats = [&](const dd::Engine& eng, const std::string& ctx) {
            EXPECT_EQ(eng.convergence().histogram, expect.histogram) << ctx;
            EXPECT_EQ(eng.convergence().frames, expect.frames) << ctx;
            EXPECT_EQ(eng.convergence().converged_frames, expect.converged_frames) << ctx;
            EXPECT_EQ(eng.convergence().iteration_sum, expect.iteration_sum) << ctx;
        };

        const auto batch_eng = dd::make_engine(code, spec);
        std::vector<dd::DecodeResult> got(frames);
        batch_eng->decode_batch(block, got);
        for (std::size_t f = 0; f < frames; ++f)
            expect_same_result(ref[f], got[f],
                               name_of(schedule) + " frame-per-lane frame " +
                                   std::to_string(f) + " rate " + dc::to_string(rate));
        expect_same_stats(*batch_eng, name_of(schedule) + " frame-per-lane");

        if (std::find(std::begin(kGroupSchedules), std::end(kGroupSchedules), schedule) !=
            std::end(kGroupSchedules))
            continue;
        // Serial-chain schedule: lane_mode=auto decodes single frames on the
        // scalar reference and batches frame-per-lane.
        auto auto_spec = spec;
        auto_spec.config.lane_mode = dd::SimdLaneMode::Auto;
        const std::string ctx = name_of(schedule) + " auto, rate " + dc::to_string(rate);
        const auto single = dd::make_engine(code, auto_spec);
        dd::DecodeResult one;
        for (std::size_t f = 0; f < frames; ++f) {
            single->decode_into(std::span<const double>(block).subspan(f * n, n), one);
            expect_same_result(ref[f], one, ctx + " decode_into frame " + std::to_string(f));
        }
        expect_same_stats(*single, ctx + " decode_into");
        const auto batch = dd::make_engine(code, auto_spec);
        batch->decode_batch(block, got);
        for (std::size_t f = 0; f < frames; ++f)
            expect_same_result(ref[f], got[f], ctx + " decode_batch frame " + std::to_string(f));
        expect_same_stats(*batch, ctx + " decode_batch");
    }

    for (const dd::Schedule schedule : kGroupSchedules) {
        const auto spec =
            spec_of(dd::DecoderBackend::Simd, schedule, dd::SimdLaneMode::GroupParallel);
        const auto ref = scalar_reference(code, spec, block, frames);
        const auto eng = dd::make_engine(code, spec);
        dd::DecodeResult got;
        for (std::size_t f = 0; f < frames; ++f) {
            eng->decode_into(std::span<const double>(block).subspan(f * n, n), got);
            expect_same_result(ref[f], got,
                               name_of(schedule) + " group-parallel frame " +
                                   std::to_string(f) + " rate " + dc::to_string(rate));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, ConvergenceAllRates, ::testing::ValuesIn(dc::all_rates()),
                         [](const auto& info) {
                             std::string s = dc::to_string(info.param);
                             for (auto& c : s)
                                 if (c == '/') c = '_';
                             return "R" + s;
                         });

// --------------------------------------------- lane-compaction edge cases

namespace {

/// Saturated LLRs of an exact codeword: every lane converges at iteration 1.
std::vector<double> exact_codeword_llrs(const dc::Dvbs2Code& code, std::uint64_t seed) {
    const dvbs2::enc::Encoder enc(code);
    const BitVec cw = enc.encode(dvbs2::enc::random_info_bits(code.k(), seed));
    std::vector<double> llr(static_cast<std::size_t>(code.n()));
    for (std::size_t i = 0; i < llr.size(); ++i) llr[i] = cw.get(i) ? -20.0 : 20.0;
    return llr;
}

/// Uniform-random sign noise that BP cannot fix in a 2-iteration budget.
std::vector<double> hopeless_llrs(const dc::Dvbs2Code& code, std::uint64_t seed) {
    std::vector<double> llr(static_cast<std::size_t>(code.n()));
    std::uint64_t s = seed;
    for (auto& v : llr) {
        s += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        v = (z & 1u) ? -2.0 : 2.0;
    }
    return llr;
}

}  // namespace

TEST(LaneCompaction, BatchSmallerThanPreferredBatch) {
    const auto& code = toy_code();
    for (const dd::Schedule schedule : kAllSchedules) {
        const auto spec =
            spec_of(dd::DecoderBackend::Simd, schedule, dd::SimdLaneMode::FramePerLane);
        const auto eng = dd::make_engine(code, spec);
        const std::size_t frames = 3;
        ASSERT_LT(static_cast<int>(frames), eng->preferred_batch());
        const auto block = mixed_block(code, frames, 1.0, 5.0, 7);
        const auto ref = scalar_reference(code, spec, block, frames);
        std::vector<dd::DecodeResult> got(frames);
        eng->decode_batch(block, got);
        for (std::size_t f = 0; f < frames; ++f)
            expect_same_result(ref[f], got[f], name_of(schedule) + " small-batch frame " +
                                                   std::to_string(f));
    }
}

TEST(LaneCompaction, AllLanesConvergeAtIterationOne) {
    const auto& code = toy_code();
    const auto frames = 2 * batch_lanes(code) + 1;
    std::vector<double> block;
    for (std::size_t f = 0; f < frames; ++f) {
        const auto llr = exact_codeword_llrs(code, 40 + f);
        block.insert(block.end(), llr.begin(), llr.end());
    }
    for (const dd::Schedule schedule : kAllSchedules) {
        const auto spec =
            spec_of(dd::DecoderBackend::Simd, schedule, dd::SimdLaneMode::FramePerLane);
        const auto eng = dd::make_engine(code, spec);
        std::vector<dd::DecodeResult> got(frames);
        eng->decode_batch(block, got);
        const auto ref = scalar_reference(code, spec, block, frames);
        for (std::size_t f = 0; f < frames; ++f) {
            EXPECT_TRUE(got[f].converged) << dd::to_string(schedule) << " frame " << f;
            EXPECT_EQ(got[f].iterations, 1) << dd::to_string(schedule) << " frame " << f;
            expect_same_result(ref[f], got[f],
                               name_of(schedule) + " frame " + std::to_string(f));
        }
    }
}

TEST(LaneCompaction, NoLaneConvergesBudgetExhaustion) {
    const auto& code = toy_code();
    const auto frames = batch_lanes(code) + 3;
    std::vector<double> block;
    for (std::size_t f = 0; f < frames; ++f) {
        const auto llr = hopeless_llrs(code, 1000 + f);
        block.insert(block.end(), llr.begin(), llr.end());
    }
    for (const dd::Schedule schedule : kAllSchedules) {
        const auto spec = spec_of(dd::DecoderBackend::Simd, schedule,
                                  dd::SimdLaneMode::FramePerLane, /*iters=*/2);
        const auto eng = dd::make_engine(code, spec);
        std::vector<dd::DecodeResult> got(frames);
        eng->decode_batch(block, got);
        const auto ref = scalar_reference(code, spec, block, frames);
        for (std::size_t f = 0; f < frames; ++f) {
            expect_same_result(ref[f], got[f],
                               name_of(schedule) + " frame " + std::to_string(f));
            // The whole point of the fixture: nobody converged, every lane
            // ran to its budget, compaction still had to refill lanes.
            EXPECT_FALSE(got[f].converged) << dd::to_string(schedule) << " frame " << f;
            EXPECT_EQ(got[f].iterations, 2) << dd::to_string(schedule) << " frame " << f;
        }
    }
}

TEST(LaneCompaction, MixedBatch1000FramesInInputOrder) {
    const auto& code = toy_code();
    const std::size_t frames = 1000;
    const auto block = mixed_block(code, frames, 0.5, 6.0, 5000);
    // One schedule suffices here (the rate matrix covers all five); the
    // point is volume: ~1000 retire/refill events per lane mapping, every
    // result landing in its input-order slot.
    const auto spec =
        spec_of(dd::DecoderBackend::Simd, dd::Schedule::Layered, dd::SimdLaneMode::FramePerLane);
    const auto ref = scalar_reference(code, spec, block, frames);
    const auto eng = dd::make_engine(code, spec);
    std::vector<dd::DecodeResult> got(frames);
    eng->decode_batch(block, got);
    for (std::size_t f = 0; f < frames; ++f)
        expect_same_result(ref[f], got[f], "frame " + std::to_string(f));

    // And per-frame decode_into through the same engine agrees with the
    // batched path (compaction changes scheduling, never results).
    const auto single = dd::make_engine(code, spec);
    dd::DecodeResult one;
    const std::size_t n = block.size() / frames;
    for (std::size_t f = 0; f < frames; f += 97) {  // sampled; full loop is the ref above
        single->decode_into(std::span<const double>(block).subspan(f * n, n), one);
        expect_same_result(ref[f], one, "decode_into frame " + std::to_string(f));
    }
}

TEST(LaneCompaction, AdversarialRetirementOrder) {
    // First W frames hopeless (retire last, at the budget), next W+1 exact
    // codewords (retire at iteration 1): every refill happens while the
    // original occupants are still iterating, and the late lanes retire in
    // reverse arrival order.
    const auto& code = toy_code();
    const auto lanes = batch_lanes(code);
    std::vector<double> block;
    for (std::size_t f = 0; f < lanes; ++f) {
        const auto llr = hopeless_llrs(code, 9000 + f);
        block.insert(block.end(), llr.begin(), llr.end());
    }
    for (std::size_t f = 0; f <= lanes; ++f) {
        const auto llr = exact_codeword_llrs(code, 9100 + f);
        block.insert(block.end(), llr.begin(), llr.end());
    }
    const std::size_t frames = 2 * lanes + 1;
    for (const dd::Schedule schedule : kAllSchedules) {
        const auto spec =
            spec_of(dd::DecoderBackend::Simd, schedule, dd::SimdLaneMode::FramePerLane);
        const auto ref = scalar_reference(code, spec, block, frames);
        const auto eng = dd::make_engine(code, spec);
        std::vector<dd::DecodeResult> got(frames);
        eng->decode_batch(block, got);
        for (std::size_t f = 0; f < frames; ++f)
            expect_same_result(ref[f], got[f],
                               name_of(schedule) + " frame " + std::to_string(f));
    }
}

TEST(LaneCompaction, ZeroIterationBudgetHardensFromChannel) {
    const auto& code = toy_code();
    const auto frames = batch_lanes(code) + 1;
    const auto block = mixed_block(code, frames, 1.0, 5.0, 60);
    for (const dd::Schedule schedule : kAllSchedules) {
        const auto spec = spec_of(dd::DecoderBackend::Simd, schedule,
                                  dd::SimdLaneMode::FramePerLane, /*iters=*/0);
        const auto ref = scalar_reference(code, spec, block, frames);
        const auto eng = dd::make_engine(code, spec);
        std::vector<dd::DecodeResult> got(frames);
        eng->decode_batch(block, got);
        for (std::size_t f = 0; f < frames; ++f) {
            expect_same_result(ref[f], got[f],
                               name_of(schedule) + " frame " + std::to_string(f));
            EXPECT_EQ(got[f].iterations, 0);
            EXPECT_FALSE(got[f].converged);
        }
    }
}

TEST(LaneCompaction, EarlyStopOffStillMatchesScalar) {
    const auto& code = toy_code();
    const auto frames = batch_lanes(code) + 2;
    const auto block = mixed_block(code, frames, 1.0, 5.0, 70);
    for (const dd::Schedule schedule : kAllSchedules) {
        const auto spec = spec_of(dd::DecoderBackend::Simd, schedule,
                                  dd::SimdLaneMode::FramePerLane, /*iters=*/6,
                                  /*early_stop=*/false);
        const auto ref = scalar_reference(code, spec, block, frames);
        const auto eng = dd::make_engine(code, spec);
        std::vector<dd::DecodeResult> got(frames);
        eng->decode_batch(block, got);
        for (std::size_t f = 0; f < frames; ++f) {
            expect_same_result(ref[f], got[f],
                               name_of(schedule) + " frame " + std::to_string(f));
            // Fixed budget: every frame runs exactly max_iterations.
            EXPECT_EQ(got[f].iterations, 6);
        }
    }
}

TEST(LaneCompaction, SingleFrameStreamMatchesScalar) {
    const auto& code = toy_code();
    const auto llr = noisy_llrs(code, 2.0, 81);
    for (const dd::Schedule schedule : kAllSchedules) {
        const auto spec =
            spec_of(dd::DecoderBackend::Simd, schedule, dd::SimdLaneMode::FramePerLane);
        const auto ref = scalar_reference(code, spec, llr, 1);
        const auto eng = dd::make_engine(code, spec);
        dd::DecodeResult got;
        eng->decode_into(llr, got);
        expect_same_result(ref[0], got, name_of(schedule) + " single frame");
    }
}

TEST(LaneCompaction, SignPlaneVerdictsAndCodewordsMatchScalarOnBothLaneWidths) {
    // Every lane's syndrome verdict and hardened codeword are read from the
    // sign plane. For each budget 1..10, without early stopping (the verdict
    // is taken at the budget) and with it (each lane stops on its own
    // verdict), every frame must equal the scalar decode, and its converged
    // flag check_syndrome of its codeword. The block holds exact codewords,
    // hopeless frames and easy and hard noisy ones, one frame fewer than
    // the lanes (3 on 4 lanes), so an idle lane computes beside them.
    // kQuant6 runs 16-bit lanes; {8, 4}, whose correction table outruns the
    // 16-bit lanes' 16-entry lookup, runs 32-bit lanes.
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    for (const dq::QuantSpec& spec : {dq::kQuant6, dq::QuantSpec{8, 4}}) {
        dd::DecoderConfig cfg;
        cfg.schedule = dd::Schedule::ZigzagForward;
        cfg.rule = dd::CheckRule::Exact;
        const int lane_bits = spec == dq::kQuant6 ? 16 : 32;
        ASSERT_EQ(dd::SimdBatchFixedDecoder(code, cfg, spec).lane_bits(), lane_bits);
        const auto frames =
            static_cast<std::size_t>(dd::SimdBatchFixedDecoder(code, cfg, spec).lanes()) - 1;
        std::vector<dq::QLLR> block;
        for (std::size_t f = 0; f < frames; ++f) {
            const std::vector<double> llr = f % 4 == 0   ? exact_codeword_llrs(code, 300 + f)
                                            : f % 4 == 1 ? hopeless_llrs(code, 300 + f)
                                                         : noisy_llrs(code, f % 4 == 2 ? 5.0 : 1.5,
                                                                      300 + f);
            for (const double x : llr) block.push_back(dq::quantize(x, spec));
        }
        int converged = 0;
        int unconverged = 0;
        for (const bool early_stop : {false, true}) {
            for (int budget = 1; budget <= 10; ++budget) {
                cfg.max_iterations = budget;
                cfg.early_stop = early_stop;
                dd::SimdBatchFixedDecoder batch(code, cfg, spec);
                std::vector<dd::DecodeResult> got(frames);
                batch.decode_into(block, frames, got.data());
                dd::EngineSpec sc;
                sc.config = cfg;
                sc.quant = spec;
                const auto scalar = dd::make_engine(code, sc);
                for (std::size_t f = 0; f < frames; ++f) {
                    const std::string ctx = "int" + std::to_string(lane_bits) +
                                            (early_stop ? " early-stop" : " fixed-budget") +
                                            " budget " + std::to_string(budget) + " frame " +
                                            std::to_string(f);
                    dd::DecodeResult want;
                    scalar->decode_raw_into(std::span<const dq::QLLR>(block).subspan(f * n, n),
                                            want);
                    expect_same_result(want, got[f], ctx);
                    EXPECT_EQ(got[f].converged, dd::check_syndrome(code, got[f].codeword).satisfied)
                        << ctx;
                    ++(got[f].converged ? converged : unconverged);
                }
            }
        }
        EXPECT_GT(converged, 0) << lane_bits;
        EXPECT_GT(unconverged, 0) << lane_bits;
    }
}

// ------------------------------------------- engine-layer telemetry contract

TEST(EngineConvergence, EveryDecodeEntryPointRecords) {
    const auto& code = toy_code();
    const auto spec =
        spec_of(dd::DecoderBackend::Simd, dd::Schedule::TwoPhase, dd::SimdLaneMode::Auto);
    const auto eng = dd::make_engine(code, spec);
    EXPECT_EQ(eng->convergence().frames, 0u);

    const auto llr = noisy_llrs(code, 3.0, 11);
    dd::DecodeResult r;
    eng->decode_into(llr, r);
    EXPECT_EQ(eng->convergence().frames, 1u);

    std::vector<dq::QLLR> q(llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i) q[i] = dq::quantize(llr[i], dq::kQuant6);
    eng->decode_raw_into(q, r);
    EXPECT_EQ(eng->convergence().frames, 2u);

    const std::size_t frames = 5;
    const auto block = mixed_block(code, frames, 2.0, 5.0, 21);
    std::vector<dd::DecodeResult> out(frames);
    eng->decode_batch(block, out);
    EXPECT_EQ(eng->convergence().frames, 2u + frames);

    std::uint64_t hist_sum = 0;
    for (const auto h : eng->convergence().histogram) hist_sum += h;
    EXPECT_EQ(hist_sum, eng->convergence().frames);
}

TEST(EngineConvergence, StatsMatchPerFrameResults) {
    const auto& code = toy_code();
    for (const auto backend : {dd::DecoderBackend::Scalar, dd::DecoderBackend::Simd}) {
        const auto spec = spec_of(backend, dd::Schedule::ZigzagSegmented);
        const auto eng = dd::make_engine(code, spec);
        dd::ConvergenceStats expect;
        dd::DecodeResult r;
        for (std::uint64_t s = 0; s < 12; ++s) {
            eng->decode_into(noisy_llrs(code, (s % 2) ? 5.0 : 1.0, 300 + s), r);
            expect.record(r.iterations, r.converged);
        }
        const auto& got = eng->convergence();
        EXPECT_EQ(got.frames, expect.frames) << dd::to_string(backend);
        EXPECT_EQ(got.converged_frames, expect.converged_frames) << dd::to_string(backend);
        EXPECT_EQ(got.iteration_sum, expect.iteration_sum) << dd::to_string(backend);
        // The engine pre-sizes its histogram to max_iterations; compare the
        // populated prefix rather than the container sizes.
        for (std::size_t i = 0; i < std::max(got.histogram.size(), expect.histogram.size()); ++i) {
            const std::uint64_t g = i < got.histogram.size() ? got.histogram[i] : 0;
            const std::uint64_t e = i < expect.histogram.size() ? expect.histogram[i] : 0;
            EXPECT_EQ(g, e) << dd::to_string(backend) << " histogram[" << i << "]";
        }
    }
}

TEST(EngineConvergence, ResetZeroesTelemetry) {
    const auto& code = toy_code();
    const auto eng = dd::make_engine(code, spec_of(dd::DecoderBackend::Scalar,
                                                   dd::Schedule::ZigzagForward));
    dd::DecodeResult r;
    eng->decode_into(noisy_llrs(code, 3.0, 9), r);
    ASSERT_EQ(eng->convergence().frames, 1u);
    eng->reset_convergence();
    EXPECT_EQ(eng->convergence().frames, 0u);
    EXPECT_EQ(eng->convergence().iteration_sum, 0u);
    for (const auto h : eng->convergence().histogram) EXPECT_EQ(h, 0u);
    // Still records after the reset.
    eng->decode_into(noisy_llrs(code, 3.0, 9), r);
    EXPECT_EQ(eng->convergence().frames, 1u);
}

TEST(EngineConvergence, FloatEngineRecordsToo) {
    // The telemetry is structural (recorded by the public entry points),
    // so even backends that predate it feed the histogram.
    const auto& code = toy_code();
    dd::EngineSpec spec;
    spec.arith = dd::Arithmetic::Float;
    spec.config.backend = dd::DecoderBackend::Scalar;
    spec.config.schedule = dd::Schedule::TwoPhase;
    spec.config.max_iterations = 8;
    const auto eng = dd::make_engine(code, spec);
    dd::DecodeResult r;
    eng->decode_into(noisy_llrs(code, 4.0, 31), r);
    EXPECT_EQ(eng->convergence().frames, 1u);
    EXPECT_EQ(eng->convergence().iteration_sum, static_cast<std::uint64_t>(r.iterations));
    EXPECT_EQ(eng->convergence().converged_frames, r.converged ? 1u : 0u);
}

TEST(EngineConvergence, HistogramPresizedToBudget) {
    const auto& code = toy_code();
    const auto eng = dd::make_engine(
        code, spec_of(dd::DecoderBackend::Scalar, dd::Schedule::TwoPhase, dd::SimdLaneMode::Auto,
                      /*iters=*/13));
    dd::DecodeResult r;
    eng->decode_into(noisy_llrs(code, 4.0, 17), r);
    // 0..13 inclusive: a budget-exhausting frame needs no growth either.
    EXPECT_EQ(eng->convergence().histogram.size(), 14u);
}

// ------------------------------------------ Monte-Carlo iteration histograms

TEST(MonteCarloConvergence, HistogramConsistentWithPointCounts) {
    const auto& code = toy_code();
    dm::SimConfig cfg;
    cfg.seed = 77;
    cfg.threads = 1;
    cfg.limits.max_frames = 64;
    cfg.limits.min_frames = 64;
    cfg.limits.target_bit_errors = 1;
    cfg.limits.target_frame_errors = 1;
    const auto spec =
        spec_of(dd::DecoderBackend::Simd, dd::Schedule::Layered, dd::SimdLaneMode::FramePerLane,
                /*iters=*/12);
    const auto pt = dm::simulate_point_engine(code, spec, 2.0, cfg);
    EXPECT_EQ(pt.convergence.frames, pt.frames);
    std::uint64_t hist_sum = 0, iter_sum = 0;
    for (std::size_t i = 0; i < pt.convergence.histogram.size(); ++i) {
        hist_sum += pt.convergence.histogram[i];
        iter_sum += i * pt.convergence.histogram[i];
    }
    EXPECT_EQ(hist_sum, pt.frames);
    EXPECT_EQ(iter_sum, pt.convergence.iteration_sum);
    EXPECT_DOUBLE_EQ(pt.convergence.mean_iterations(), pt.avg_iterations);
}

TEST(MonteCarloConvergence, HistogramThreadCountInvariant) {
    const auto& code = toy_code();
    const auto spec =
        spec_of(dd::DecoderBackend::Simd, dd::Schedule::ZigzagMap, dd::SimdLaneMode::FramePerLane,
                /*iters=*/10);
    dm::SimConfig cfg;
    cfg.seed = 99;
    cfg.limits.max_frames = 96;
    cfg.limits.min_frames = 16;
    cfg.limits.target_bit_errors = 60;
    cfg.limits.target_frame_errors = 8;

    cfg.threads = 1;
    const auto serial = dm::simulate_point_engine(code, spec, 1.5, cfg);
    cfg.threads = 3;
    const auto parallel = dm::simulate_point_engine(code, spec, 1.5, cfg);

    EXPECT_EQ(serial.frames, parallel.frames);
    EXPECT_EQ(serial.convergence.frames, parallel.convergence.frames);
    EXPECT_EQ(serial.convergence.converged_frames, parallel.convergence.converged_frames);
    EXPECT_EQ(serial.convergence.iteration_sum, parallel.convergence.iteration_sum);
    EXPECT_EQ(serial.convergence.histogram, parallel.convergence.histogram);
}

TEST(MonteCarloConvergence, EngineAndDecodeFnPathsAgree) {
    const auto& code = toy_code();
    const auto spec = spec_of(dd::DecoderBackend::Scalar, dd::Schedule::TwoPhase,
                              dd::SimdLaneMode::Auto, /*iters=*/10);
    dm::SimConfig cfg;
    cfg.seed = 5;
    cfg.threads = 1;
    cfg.limits.max_frames = 48;
    cfg.limits.min_frames = 8;
    cfg.limits.target_bit_errors = 40;
    cfg.limits.target_frame_errors = 6;

    const auto via_engine = dm::simulate_point_engine(code, spec, 1.5, cfg);
    const auto eng = dd::make_engine(code, spec);
    const auto via_fn = dm::simulate_point(
        code,
        [&eng](const std::vector<double>& llr) {
            const auto r = eng->decode(llr);
            return dm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        },
        1.5, cfg);

    EXPECT_EQ(via_engine.frames, via_fn.frames);
    EXPECT_EQ(via_engine.bit_errors, via_fn.bit_errors);
    EXPECT_EQ(via_engine.convergence.histogram, via_fn.convergence.histogram);
    EXPECT_EQ(via_engine.convergence.converged_frames, via_fn.convergence.converged_frames);
}

// Golden pins: iteration histogram, mean iterations and convergence counts
// of the frame-per-lane SIMD engine at two fixed (rate, Eb/N0, seed) points
// on standard short-frame codes. The results are lane-width independent
// (every frame is bit-identical to its scalar decode — the invariant the
// rest of this tier pins), so the same values hold on AVX2, SSE4, NEON and
// the scalar fallback.
TEST(MonteCarloConvergence, GoldenIterationHistogramsArePinned) {
    struct ConvPin {
        dc::CodeRate rate;
        double ebn0_db;
        std::uint64_t frames, converged, iter_sum;
        std::vector<std::uint64_t> histogram;  // trailing zero bins trimmed
    };
    const ConvPin pins[] = {
#include "golden_convergence_pins.inc"
    };
    for (const auto& pin : pins) {
        const dc::Dvbs2Code code(dc::standard_params(pin.rate, dc::FrameSize::Short));
        const auto spec = spec_of(dd::DecoderBackend::Simd, dd::Schedule::TwoPhase,
                                  dd::SimdLaneMode::FramePerLane, /*iters=*/30);
        dm::SimConfig cfg;
        cfg.seed = 424242;
        cfg.threads = 1;
        cfg.limits.max_frames = 24;
        cfg.limits.min_frames = 24;
        cfg.limits.target_bit_errors = 1;
        cfg.limits.target_frame_errors = 1;
        const auto pt = dm::simulate_point_engine(code, spec, pin.ebn0_db, cfg);

        std::vector<std::uint64_t> hist = pt.convergence.histogram;
        while (!hist.empty() && hist.back() == 0) hist.pop_back();

        const std::string ctx = dc::to_string(pin.rate) + " @ " +
                                std::to_string(pin.ebn0_db) + " dB";
        EXPECT_EQ(pt.frames, pin.frames) << ctx;
        EXPECT_EQ(pt.convergence.converged_frames, pin.converged) << ctx;
        EXPECT_EQ(pt.convergence.iteration_sum, pin.iter_sum) << ctx;
        EXPECT_EQ(hist, pin.histogram) << ctx;
        if (HasFailure()) {
            // Paste-ready line for golden_convergence_pins.inc after an
            // intended decoder change.
            std::string h;
            for (std::size_t i = 0; i < hist.size(); ++i)
                h += (i ? ", " : "") + std::to_string(hist[i]) + "u";
            std::string tok = dc::to_string(pin.rate);
            for (auto& c : tok)
                if (c == '/') c = '_';
            ADD_FAILURE() << "actual pin: {dc::CodeRate::R" << tok << ", "
                          << pin.ebn0_db << ", " << pt.frames << "u, "
                          << pt.convergence.converged_frames << "u, "
                          << pt.convergence.iteration_sum << "u, {" << h << "}},";
        }
    }
}
