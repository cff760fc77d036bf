// Tests of the schedule dataflow IR (src/analysis/ir): trace compilation and
// golden trace digests (golden_trace_pins.inc), the derived SIMD-legality
// classification (pinned to the set the engine layer once hardcoded), exact
// liveness word counts including the paper's Sec. 4 parity-storage halving,
// the slot-stream def/use rules, and the port drain run over a proven slot
// stream pinned bit-equal to the dynamic conflict simulator across rates and
// mappings.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "analysis/ir/analyses.hpp"
#include "analysis/lint_schedule.hpp"
#include "arch/anneal.hpp"
#include "arch/conflict.hpp"
#include "code/tanner.hpp"
#include "core/engine.hpp"

namespace ir = dvbs2::analysis::ir;
namespace da = dvbs2::analysis;
namespace dc = dvbs2::code;
namespace dr = dvbs2::arch;
namespace co = dvbs2::core;

namespace {

/// Canonical classification dims: P=4, q=3, kc=2, 3 iterations (m=12).
ir::TraceDims canonical() { return ir::TraceDims{}; }

const ir::PhaseParallelism* phase_named(const ir::ParallelismReport& rep,
                                        const std::string& name) {
    for (const auto& pp : rep.phases)
        if (pp.name == name) return &pp;
    return nullptr;
}

constexpr co::Schedule kAllSchedules[] = {
    co::Schedule::TwoPhase, co::Schedule::ZigzagForward, co::Schedule::ZigzagSegmented,
    co::Schedule::ZigzagMap, co::Schedule::Layered};

// ---- FNV-1a 64 over the full trace content (shape + every event field) ----

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= kFnvPrime;
    }
}

std::uint64_t trace_digest(const ir::Trace& tr) {
    std::uint64_t h = kFnvOffset;
    for (const std::string& name : tr.phase_names)
        for (char c : name) fnv_u64(h, static_cast<unsigned char>(c));
    for (std::int32_t sz : tr.space_size) fnv_u64(h, static_cast<std::uint64_t>(sz));
    for (const ir::Event& ev : tr.events) {
        fnv_u64(h, static_cast<std::uint64_t>(ev.access));
        fnv_u64(h, static_cast<std::uint64_t>(ev.space));
        fnv_u64(h, static_cast<std::uint64_t>(ev.index));
        fnv_u64(h, static_cast<std::uint64_t>(ev.iter));
        fnv_u64(h, static_cast<std::uint64_t>(ev.phase));
        fnv_u64(h, static_cast<std::uint64_t>(ev.unit));
        fnv_u64(h, static_cast<std::uint64_t>(ev.lane));
        fnv_u64(h, static_cast<std::uint64_t>(ev.step));
    }
    return h;
}

struct TracePin {
    co::Schedule schedule;
    std::uint64_t digest;
};

constexpr TracePin kTracePins[] = {
#include "golden_trace_pins.inc"
};

/// C++ enumerator name, so a failed pin prints a paste-ready .inc row.
const char* schedule_enum_name(co::Schedule s) {
    switch (s) {
        case co::Schedule::TwoPhase: return "TwoPhase";
        case co::Schedule::ZigzagForward: return "ZigzagForward";
        case co::Schedule::ZigzagSegmented: return "ZigzagSegmented";
        case co::Schedule::ZigzagMap: return "ZigzagMap";
        case co::Schedule::Layered: return "Layered";
    }
    return "?";
}

}  // namespace

// ------------------------------------------------------------ trace shape --

TEST(IrTrace, DimsAreValidated) {
    ir::TraceDims d = canonical();
    d.parallelism = 0;
    EXPECT_THROW(ir::build_schedule_trace(co::Schedule::TwoPhase, d), std::runtime_error);
    d = canonical();
    d.edge_variable.assign(5, 0);  // wrong size: must be m*kc = 24
    EXPECT_THROW(ir::build_schedule_trace(co::Schedule::TwoPhase, d), std::runtime_error);
}

TEST(IrTrace, EverySpaceIndexStaysInsideItsDeclaredSize) {
    for (co::Schedule s : kAllSchedules) {
        const ir::Trace tr = ir::build_schedule_trace(s, canonical());
        ASSERT_EQ(tr.space_size.size(), static_cast<std::size_t>(ir::kSpaceCount));
        for (const ir::Event& ev : tr.events) {
            ASSERT_GE(ev.index, 0);
            ASSERT_LT(ev.index, tr.space_size[static_cast<std::size_t>(ev.space)])
                << ir::to_string(ev.space) << " in " << co::to_string(s);
        }
    }
}

// ----------------------------------------------------- golden trace pins --

TEST(IrGoldenTrace, CanonicalTraceDigestsArePinned) {
    // Range certification (absint) and the schedule.dataflow.* lint consume
    // these traces; a builder change that reorders or reshapes events must
    // show up here, not as a silently different certificate or finding.
    for (const TracePin& pin : kTracePins) {
        const ir::Trace tr = ir::build_schedule_trace(pin.schedule, ir::TraceDims{});
        const std::uint64_t got = trace_digest(tr);
        EXPECT_EQ(got, pin.digest)
            << "actual pin: {co::Schedule::" << schedule_enum_name(pin.schedule) << ", 0x"
            << std::hex << got << "ULL},";
    }
}

// -------------------------------------------- derived lockstep legality --

TEST(IrClassify, LegalSetMatchesThePreviouslyHardcodedEngineSet) {
    // validate_engine_spec used to hardcode {TwoPhase, ZigzagSegmented} for
    // the group-parallel SIMD mapping; the IR must derive exactly that set.
    for (co::Schedule s : kAllSchedules) {
        const ir::ScheduleClass& cls = ir::classify_schedule(s);
        const bool expect_legal =
            s == co::Schedule::TwoPhase || s == co::Schedule::ZigzagSegmented;
        EXPECT_EQ(cls.group_parallel_legal, expect_legal) << co::to_string(s);
        if (!expect_legal) {
            EXPECT_FALSE(cls.group_parallel_obstruction.empty()) << co::to_string(s);
        }
    }
}

TEST(IrClassify, EngineRegistryConsultsTheDerivedClassification) {
    // validate_engine_spec admits the group-parallel mapping exactly where
    // classify_schedule says lockstep lanes are legal, and the frame-per-lane
    // mapping on every schedule.
    for (co::Schedule s : kAllSchedules) {
        co::EngineSpec spec;
        spec.config.backend = co::DecoderBackend::Simd;
        spec.config.schedule = s;
        spec.config.lane_mode = co::SimdLaneMode::GroupParallel;
        if (ir::classify_schedule(s).group_parallel_legal) {
            EXPECT_NO_THROW(co::validate_engine_spec(spec)) << co::to_string(s);
        } else {
            EXPECT_THROW(co::validate_engine_spec(spec), std::runtime_error)
                << co::to_string(s);
        }
        spec.config.lane_mode = co::SimdLaneMode::FramePerLane;
        EXPECT_NO_THROW(co::validate_engine_spec(spec)) << co::to_string(s);
    }
}

TEST(IrParallelism, TwoPhaseCheckNodesAreFullyIndependent) {
    const auto rep =
        ir::analyze_parallelism(ir::build_schedule_trace(co::Schedule::TwoPhase, canonical()));
    EXPECT_TRUE(rep.lockstep_legal);
    const auto* check = phase_named(rep, "check");
    ASSERT_NE(check, nullptr);
    EXPECT_EQ(check->units, 12);
    EXPECT_EQ(check->levels, 1);      // no same-phase dependences at all
    EXPECT_EQ(check->max_group, 12);  // all m CNs updatable at once
}

TEST(IrParallelism, ZigzagForwardCheckPhaseIsOneSerialChain) {
    const auto rep = ir::analyze_parallelism(
        ir::build_schedule_trace(co::Schedule::ZigzagForward, canonical()));
    EXPECT_FALSE(rep.lockstep_legal);
    ASSERT_TRUE(rep.violation.has_value());
    EXPECT_FALSE(rep.violation->describe().empty());
    const auto* check = phase_named(rep, "check");
    ASSERT_NE(check, nullptr);
    EXPECT_EQ(check->levels, 12);    // the full zigzag chain, strictly serial
    EXPECT_EQ(check->max_group, 1);  // nothing provably parallel
}

TEST(IrParallelism, SegmentedScheduleProvesTheEq2PWayIndependence) {
    // P=4 FUs sweep q=3 local CNs in lockstep: the IR must derive exactly
    // q dependence levels of width P — the paper's Eq. 2 guarantee.
    const auto rep = ir::analyze_parallelism(
        ir::build_schedule_trace(co::Schedule::ZigzagSegmented, canonical()));
    EXPECT_TRUE(rep.lockstep_legal);
    const auto* check = phase_named(rep, "check");
    ASSERT_NE(check, nullptr);
    EXPECT_EQ(check->levels, 3);
    EXPECT_EQ(check->max_group, 4);
}

TEST(IrParallelism, SyntheticCrossLaneTraceIsFlaggedIllegal) {
    // Hand-built minimal schedule: unit 0 (lane 0) defines a word at step 0,
    // unit 1 (lane 1) consumes it at step 0 of the same phase.
    ir::Trace tr;
    tr.phase_names = {"check"};
    tr.space_size.assign(ir::kSpaceCount, 0);
    tr.events = {
        {ir::Access::Def, ir::Space::ZigzagFwd, 0, 0, 0, /*unit=*/0, /*lane=*/0, /*step=*/0},
        {ir::Access::Use, ir::Space::ZigzagFwd, 0, 0, 0, /*unit=*/1, /*lane=*/1, /*step=*/0},
    };
    const auto rep = ir::analyze_parallelism(tr);
    EXPECT_FALSE(rep.lockstep_legal);
    ASSERT_TRUE(rep.violation.has_value());
    EXPECT_EQ(rep.violation->def_lane, 0);
    EXPECT_EQ(rep.violation->use_lane, 1);
    EXPECT_NE(rep.violation->describe().find("crosses lanes"), std::string::npos);

    // The same dependence one step later in the same lane is legal.
    tr.events[1].lane = 0;
    tr.events[1].unit = 0;
    tr.events[1].step = 1;
    EXPECT_TRUE(ir::analyze_parallelism(tr).lockstep_legal);

    // A use at an *earlier* step than its def runs against the lockstep
    // order even inside one lane.
    tr.events[0].step = 2;
    tr.events[1].unit = 1;
    const auto rep2 = ir::analyze_parallelism(tr);
    EXPECT_FALSE(rep2.lockstep_legal);
    EXPECT_NE(rep2.violation->describe().find("later lockstep step"), std::string::npos);
}

// ------------------------------------------------------------- liveness --

TEST(IrLiveness, ZigzagHalvesParityStorageExactWordCounts) {
    // Canonical dims: m = 12 parity nodes, E = 24 information-edge words.
    // Flooding keeps both directions of the parity chain: m + (m-1) = 23.
    // The zigzag sweep wires the forward message through and stores only
    // the backward one: 2 + (m-1) = 13 — the paper's Sec. 4 halving.
    const auto flood =
        ir::analyze_liveness(ir::build_schedule_trace(co::Schedule::TwoPhase, canonical()));
    EXPECT_EQ(flood.peak(ir::Space::ZigzagFwd), 12);
    EXPECT_EQ(flood.peak(ir::Space::ZigzagBwd), 11);
    EXPECT_EQ(flood.parity_words(), 23);
    EXPECT_EQ(flood.message_words(), 24);

    const auto zigzag = ir::analyze_liveness(
        ir::build_schedule_trace(co::Schedule::ZigzagForward, canonical()));
    EXPECT_EQ(zigzag.peak(ir::Space::ZigzagFwd), 2);
    EXPECT_EQ(zigzag.peak(ir::Space::ZigzagBwd), 11);
    EXPECT_EQ(zigzag.parity_words(), 13);
    EXPECT_EQ(zigzag.message_words(), 24);
    EXPECT_LE(2 * zigzag.parity_words(), flood.parity_words() + 3);  // the halving
}

TEST(IrLiveness, SegmentedMapAndLayeredFootprints) {
    // Segmented: each of the P=4 FUs keeps one forward word in flight plus
    // one boundary register; the P-1 up-snapshots are extra state.
    const auto seg = ir::analyze_liveness(
        ir::build_schedule_trace(co::Schedule::ZigzagSegmented, canonical()));
    EXPECT_EQ(seg.peak(ir::Space::ZigzagFwd), 5);
    EXPECT_EQ(seg.peak(ir::Space::ZigzagBwd), 11);
    EXPECT_EQ(seg.peak(ir::Space::UpSnapshot), 3);
    EXPECT_EQ(seg.parity_words(), 19);

    // MAP stores the whole forward recursion: no halving.
    const auto map = ir::analyze_liveness(
        ir::build_schedule_trace(co::Schedule::ZigzagMap, canonical()));
    EXPECT_EQ(map.peak(ir::Space::MapFwd), 12);
    EXPECT_EQ(map.peak(ir::Space::ZigzagFwd), 0);
    EXPECT_EQ(map.parity_words(), 23);

    // Layered adds the running parity posteriors on top of flooding storage.
    const auto lay = ir::analyze_liveness(
        ir::build_schedule_trace(co::Schedule::Layered, canonical()));
    EXPECT_EQ(lay.parity_words(), 23);
    EXPECT_EQ(lay.peak(ir::Space::PostParity), 12);
}

TEST(IrLiveness, HalvingHoldsOnRealCodeDimensions) {
    // Rate-1/2 short frame: m = 9000, so flooding needs 17999 parity words
    // and the zigzag sweep 9001.
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2, dc::FrameSize::Short));
    ir::TraceDims dims;
    dims.parallelism = code.params().parallelism;
    dims.q = code.params().q;
    dims.check_in_degree = code.check_in_degree();
    ASSERT_EQ(dims.m(), 9000);
    const auto flood =
        ir::analyze_liveness(ir::build_schedule_trace(co::Schedule::TwoPhase, dims));
    const auto zigzag =
        ir::analyze_liveness(ir::build_schedule_trace(co::Schedule::ZigzagForward, dims));
    EXPECT_EQ(flood.parity_words(), 17999);
    EXPECT_EQ(zigzag.parity_words(), 9001);
}

// ------------------------------------------------------- slot-stream rules --

namespace {
ir::SlotStreamDims tiny_dims() { return ir::SlotStreamDims{/*q=*/2, /*slots_per_cn=*/2, /*ram_words=*/4}; }
}  // namespace

TEST(IrSlotStream, CleanStreamProvesEmpty) {
    const std::vector<ir::SlotOp> ops = {{0, 0}, {1, 0}, {2, 1}, {3, 1}};
    EXPECT_TRUE(ir::verify_slot_stream(ops, tiny_dims()).empty());
}

TEST(IrSlotStream, RangeViolationsAreReported) {
    const std::vector<ir::SlotOp> ops = {{7, 0}, {1, 5}, {2, 1}, {3, 1}};
    const auto issues = ir::verify_slot_stream(ops, tiny_dims());
    ASSERT_GE(issues.size(), 2u);
    EXPECT_EQ(issues[0].kind, ir::SlotIssueKind::AddrRange);
    EXPECT_EQ(issues[0].addr, 7);
    EXPECT_EQ(issues[1].kind, ir::SlotIssueKind::UnitRange);
    EXPECT_EQ(issues[1].unit, 5);
}

TEST(IrSlotStream, DoubleReadTripsReadCount) {
    const std::vector<ir::SlotOp> ops = {{0, 0}, {0, 0}, {2, 1}, {3, 1}};  // 0 twice, 1 never
    const auto issues = ir::verify_slot_stream(ops, tiny_dims());
    ASSERT_EQ(issues.size(), 2u);
    EXPECT_EQ(issues[0].kind, ir::SlotIssueKind::ReadCount);
    EXPECT_EQ(issues[0].addr, 0);
    EXPECT_EQ(issues[0].count, 2);
    EXPECT_EQ(issues[1].kind, ir::SlotIssueKind::ReadCount);
    EXPECT_EQ(issues[1].addr, 1);
    EXPECT_EQ(issues[1].count, 0);
}

TEST(IrSlotStream, SwappedRunsTripUseBeforeDef) {
    // CN 1's run completes before CN 0's: its forward-chain input would be
    // consumed before CN 0 produces it.
    const std::vector<ir::SlotOp> ops = {{2, 1}, {3, 1}, {0, 0}, {1, 0}};
    const auto issues = ir::verify_slot_stream(ops, tiny_dims());
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].kind, ir::SlotIssueKind::UseBeforeDef);
    EXPECT_EQ(issues[0].unit, 1);
    EXPECT_EQ(issues[0].other, 0);
}

TEST(IrSlotStream, InterleavedWindowsTripSerialOverlap) {
    const std::vector<ir::SlotOp> ops = {{0, 0}, {2, 1}, {1, 0}, {3, 1}};
    const auto issues = ir::verify_slot_stream(ops, tiny_dims());
    ASSERT_GE(issues.size(), 1u);
    EXPECT_EQ(issues[0].kind, ir::SlotIssueKind::SerialOverlap);
    EXPECT_EQ(issues[0].unit, 1);
    EXPECT_EQ(issues[0].other, 0);
}

TEST(IrSlotStream, RelabelledSlotTripsRunLength) {
    // Slot 2 moved from CN 1 to CN 0: windows stay contiguous and complete
    // in order, but CN 0 now combines three edges and CN 1 one.
    const std::vector<ir::SlotOp> ops = {{0, 0}, {1, 0}, {2, 0}, {3, 1}};
    const auto issues = ir::verify_slot_stream(ops, tiny_dims());
    ASSERT_EQ(issues.size(), 2u);
    for (int r = 0; r < 2; ++r) {
        EXPECT_EQ(issues[static_cast<std::size_t>(r)].kind, ir::SlotIssueKind::RunLength);
        EXPECT_EQ(issues[static_cast<std::size_t>(r)].unit, r);
    }
    EXPECT_EQ(issues[0].count, 3);
    EXPECT_EQ(issues[1].count, 1);
}

TEST(IrSlotStream, RealMappingsProveClean) {
    for (const auto rate : {dc::CodeRate::R1_2, dc::CodeRate::R3_4}) {
        const dc::Dvbs2Code code(dc::standard_params(rate, dc::FrameSize::Long));
        const dr::HardwareMapping mapping(code);
        const auto model = da::make_schedule_model(mapping);
        std::vector<ir::SlotOp> ops;
        for (const auto& s : model.slots) ops.push_back(ir::SlotOp{s.addr, s.local_cn});
        const ir::SlotStreamDims dims{model.q, model.slots_per_cn, model.ram_words};
        EXPECT_TRUE(ir::verify_slot_stream(ops, dims).empty()) << dc::to_string(rate);
    }
}

// ----------------------------------------------------------- port drain --

TEST(IrPortDrain, PinnedBitEqualToConflictSimulatorAcrossRatesAndMappings) {
    // schedule.dataflow.ports builds both phases from the plain-data lint
    // model (slot list, row layout) rather than from the mapping; drained
    // through arch::simulate_phase, every statistic must equal the mapping's
    // own simulate_iteration, on canonical and annealed addressings.
    const dr::MemoryConfig cfg;
    for (const auto rate : {dc::CodeRate::R1_2, dc::CodeRate::R3_4, dc::CodeRate::R8_9}) {
        const dc::Dvbs2Code code(dc::standard_params(rate, dc::FrameSize::Long));
        dr::HardwareMapping mapping(code);
        for (int pass = 0; pass < 2; ++pass) {
            if (pass == 1) {
                dr::AnnealConfig acfg;
                acfg.iterations = 800;
                dr::anneal_addressing(mapping, acfg);
            }
            const auto model = da::make_schedule_model(mapping);
            const auto chk = dr::simulate_phase(
                dr::make_check_phase_schedule(model.slots, model.slots_per_cn, cfg), cfg);
            const auto var = dr::simulate_phase(
                dr::make_variable_phase_schedule(model.ram_words, model.row_base,
                                                 model.row_degree, cfg),
                cfg);
            const auto dyn = dr::simulate_iteration(mapping, cfg);
            const auto expect_equal = [&](const dr::ConflictStats& st,
                                          const dr::ConflictStats& ref, const char* phase) {
                EXPECT_EQ(st.read_cycles, ref.read_cycles)
                    << dc::to_string(rate) << " pass " << pass << " " << phase;
                EXPECT_EQ(st.total_cycles, ref.total_cycles)
                    << dc::to_string(rate) << " pass " << pass << " " << phase;
                EXPECT_EQ(st.peak_buffer, ref.peak_buffer)
                    << dc::to_string(rate) << " pass " << pass << " " << phase;
                EXPECT_EQ(st.buffer_word_cycles, ref.buffer_word_cycles)
                    << dc::to_string(rate) << " pass " << pass << " " << phase;
                EXPECT_EQ(st.blocked_write_events, ref.blocked_write_events)
                    << dc::to_string(rate) << " pass " << pass << " " << phase;
            };
            expect_equal(chk, dyn.check_phase, "check");
            expect_equal(var, dyn.variable_phase, "variable");
        }
    }
}
