// Tests of the static analyzer (src/analysis): every rule family has
// passing and failing inputs, negative paths assert the exact rule id they
// trip, and the static conflict proof is checked against the dynamic
// conflict simulator on multiple code rates.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/analyzer.hpp"
#include "arch/anneal.hpp"
#include "arch/conflict.hpp"
#include "code/tanner.hpp"

namespace da = dvbs2::analysis;
namespace dc = dvbs2::code;
namespace dr = dvbs2::arch;

namespace {

dc::CodeParams toy() { return dc::toy_params(12, 7, 2, 6, 3); }

/// A 2-group, q=2, P=4 parameter set small enough to hand-author tables.
dc::CodeParams tiny() { return dc::toy_params(4, 2, 0, 4, 2); }

std::vector<std::string> rule_ids(const da::Report& rep) {
    std::vector<std::string> ids;
    for (const auto& d : rep.diagnostics())
        if (d.severity == da::Severity::Error) ids.push_back(d.rule);
    return ids;
}

}  // namespace

// ---------------------------------------------------------------- code.* --

TEST(LintCode, GeneratedTablesAreCleanToy) {
    const auto rep = da::lint_code_structure(toy());
    EXPECT_TRUE(rep.clean()) << rule_ids(rep).size() << " errors";
}

TEST(LintCode, GeneratedTablesAreCleanStandard) {
    const auto rep =
        da::lint_code_structure(dc::standard_params(dc::CodeRate::R1_2, dc::FrameSize::Long));
    EXPECT_TRUE(rep.clean());
}

TEST(LintCode, InconsistentParamsTripParamsRule) {
    auto p = toy();
    p.q = p.q + 1;  // q*P no longer equals N-K
    const auto rep = da::lint_code_structure(p, dc::generate_tables(toy()));
    EXPECT_TRUE(rep.has("code.params"));
    EXPECT_FALSE(rep.clean());
}

TEST(LintCode, DuplicateEntryTripsDuplicateRule) {
    const auto p = toy();
    auto t = dc::generate_tables(p);
    t.rows[0][1] = t.rows[0][0];  // double edge within one group
    const auto rep = da::lint_code_structure(p, t);
    EXPECT_TRUE(rep.has("code.duplicate-entry"));
}

TEST(LintCode, OutOfRangeEntryTripsRangeRule) {
    const auto p = toy();
    auto t = dc::generate_tables(p);
    t.rows[2][0] = static_cast<std::uint32_t>(p.m());  // one past the last CN
    const auto rep = da::lint_code_structure(p, t);
    EXPECT_TRUE(rep.has("code.entry-range"));
}

TEST(LintCode, WrongRowDegreeTripsProfileRule) {
    const auto p = toy();
    auto t = dc::generate_tables(p);
    t.rows[0].pop_back();  // high-degree row one entry short
    const auto rep = da::lint_code_structure(p, t);
    EXPECT_TRUE(rep.has("code.degree-profile"));
}

TEST(LintCode, ResidueImbalanceTripsRegularityRule) {
    const auto p = toy();
    auto t = dc::generate_tables(p);
    // Move one entry to another residue class without leaving [0, N-K).
    const std::uint32_t x = t.rows[3][0];
    t.rows[3][0] = (x + 1) % static_cast<std::uint32_t>(p.m());
    const auto rep = da::lint_code_structure(p, t);
    EXPECT_TRUE(rep.has("code.check-regularity"));
}

TEST(LintCode, HandMadeGirth4TableTripsInfoGirthRuleOnly) {
    // Classes mod q=2 are balanced (3+3), degrees match, no duplicates, no
    // chain-adjacent addresses — but entry pairs (0,2) and (3,5) collide at
    // lane offset 1, closing a 4-cycle in the information part.
    const auto p = tiny();
    dc::IraTables t;
    t.rows = {{0, 3, 6}, {2, 5, 7}};
    const auto rep = da::lint_code_structure(p, t);
    EXPECT_TRUE(rep.has("code.girth4-info"));
    EXPECT_FALSE(rep.has("code.duplicate-entry"));
    EXPECT_FALSE(rep.has("code.check-regularity"));
    EXPECT_FALSE(rep.has("code.girth4-zigzag"));
}

TEST(LintCode, ChainAdjacentAddressesTripZigzagGirthRule) {
    const auto p = tiny();
    dc::IraTables t;
    t.rows = {{0, 3, 6}, {4, 5, 1}};  // 4 and 5 share one parity bit
    const auto rep = da::lint_code_structure(p, t);
    EXPECT_TRUE(rep.has("code.girth4-zigzag"));
}

TEST(LintCode, ChainWrapAroundIsAlsoAdjacent) {
    const auto p = tiny();
    dc::IraTables t;
    t.rows = {{0, 3, 7}, {2, 5, 6}};  // 0 and 7 are adjacent mod N-K=8
    const auto rep = da::lint_code_structure(p, t);
    EXPECT_TRUE(rep.has("code.girth4-zigzag"));
}

// --------------------------------------------------------------- sched.* --

TEST(LintSchedule, CanonicalAndAnnealedMappingsAreLegal) {
    const dc::Dvbs2Code code(toy());
    dr::HardwareMapping mapping(code);
    EXPECT_TRUE(da::lint_schedule(mapping).clean());

    dr::AnnealConfig cfg;
    cfg.iterations = 500;
    dr::anneal_addressing(mapping, cfg);
    const auto rep = da::lint_schedule(mapping);
    EXPECT_TRUE(rep.clean()) << "annealing must preserve schedule legality";
}

TEST(LintSchedule, OutOfRangeShuffleOffsetTripsShuffleRule) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    auto model = da::make_schedule_model(mapping);
    model.slots[5].shift = model.parallelism + 3;
    const auto rep = da::lint_schedule(model);
    EXPECT_TRUE(rep.has("sched.shuffle-range"));
}

TEST(LintSchedule, CorruptAddressTripsConsistencyRule) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    auto model = da::make_schedule_model(mapping);
    model.slots[2].addr = model.slots[7].addr;
    const auto rep = da::lint_schedule(model);
    EXPECT_TRUE(rep.has("sched.addr-consistency"));
    EXPECT_TRUE(rep.has("sched.read-once"));
}

TEST(LintSchedule, RunOrderViolationTripsZigzagRule) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    auto model = da::make_schedule_model(mapping);
    std::swap(model.slots[0], model.slots[static_cast<std::size_t>(model.slots_per_cn)]);
    const auto rep = da::lint_schedule(model);
    EXPECT_TRUE(rep.has("sched.zigzag-order"));
}

TEST(LintSchedule, DuplicateSlotTripsEdgeCoverage) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    auto model = da::make_schedule_model(mapping);
    model.slots[1] = model.slots[0];
    const auto rep = da::lint_schedule(model);
    EXPECT_TRUE(rep.has("sched.edge-coverage"));
    EXPECT_TRUE(rep.has("sched.read-once"));
}

// ----------------------------------------------------------------- mem.* --

TEST(LintMemory, StaticProofMatchesDynamicSimulatorAcrossRatesAndMappings) {
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
            const auto chk = da::prove_plan(da::enumerate_check_phase(model, cfg), cfg);
            const auto var = da::prove_plan(da::enumerate_variable_phase(model, cfg), cfg);
            const auto dyn = dr::simulate_iteration(mapping, cfg);
            EXPECT_EQ(chk.peak_pending, dyn.check_phase.peak_buffer)
                << dc::to_string(rate) << " pass " << pass;
            EXPECT_EQ(var.peak_pending, dyn.variable_phase.peak_buffer)
                << dc::to_string(rate) << " pass " << pass;
            EXPECT_EQ(chk.blocked_events, dyn.check_phase.blocked_write_events);
            EXPECT_EQ(chk.cycles, dyn.check_phase.total_cycles);
        }
    }
}

TEST(LintMemory, SufficientBufferPassesWithProofNotes) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    const auto rep = da::lint_memory(mapping, dr::MemoryConfig{}, /*buffer_depth=*/64);
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(rep.has("mem.conflict-proof"));
}

TEST(LintMemory, UndersizedBufferTripsOverflowRule) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    const auto rep = da::lint_memory(mapping, dr::MemoryConfig{}, /*buffer_depth=*/0);
    EXPECT_TRUE(rep.has("mem.conflict-overflow"));
}

TEST(LintMemory, DegenerateMemoryConfigTripsConfigRule) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    dr::MemoryConfig cfg;
    cfg.num_banks = 1;  // a single single-port bank cannot read and write
    const auto rep = da::lint_memory(mapping, cfg, 8);
    EXPECT_TRUE(rep.has("mem.config"));
}

// --------------------------------------------------------------- range.* --

TEST(LintRange, PaperDesignPointsAreClean) {
    const auto p = dc::standard_params(dc::CodeRate::R9_10, dc::FrameSize::Long);
    const dvbs2::core::DecoderConfig cfg;
    EXPECT_TRUE(da::lint_fixed_point(p, cfg, dvbs2::quant::kQuant6).clean());
    EXPECT_TRUE(da::lint_fixed_point(p, cfg, dvbs2::quant::kQuant5).clean());
}

TEST(LintRange, StageTableCoversTheDatapath) {
    // The certificate's stage table names every wide accumulator of the
    // schedule's datapath: the Eq. 4 variable-node sums and zigzag chain
    // adds of the zigzag schedule, the running posterior totals of the
    // layered one, and the check-node combine of both.
    const struct {
        dvbs2::core::Schedule schedule;
        std::vector<std::string> stages;
    } cases[] = {
        {dvbs2::core::Schedule::ZigzagForward,
         {"channel-quantize", "vn-accumulate", "vn-extrinsic", "zigzag-chain-add",
          "parity-posterior", "cn-combine"}},
        {dvbs2::core::Schedule::Layered,
         {"channel-quantize", "layered-gather", "layered-posterior", "cn-combine"}},
    };
    for (const auto& c : cases) {
        dvbs2::core::DecoderConfig cfg;
        cfg.schedule = c.schedule;
        const auto an = da::analyze_range_ir(toy(), cfg, dvbs2::quant::kQuant6);
        EXPECT_TRUE(an.report.clean());
        ASSERT_TRUE(an.certificate.has_value());
        for (const std::string& want : c.stages) {
            bool seen = false;
            for (const auto& s : an.certificate->stages) seen = seen || s.stage == want;
            EXPECT_TRUE(seen) << dvbs2::core::to_string(c.schedule) << ": " << want;
        }
        for (const auto& s : an.certificate->stages) EXPECT_TRUE(s.fits()) << s.stage;
    }
}

TEST(LintRange, TooWideAccumulationTripsOverflowRule) {
    // 29-bit messages at degree 13: the 32-bit variable-node accumulator
    // statically overflows even though every single message is in range.
    const auto p = dc::standard_params(dc::CodeRate::R1_2, dc::FrameSize::Long);
    dvbs2::core::DecoderConfig cfg;
    cfg.rule = dvbs2::core::CheckRule::MinSum;
    const auto rep = da::lint_range_ir(p, cfg, dvbs2::quant::QuantSpec{29, 2});
    EXPECT_TRUE(rep.has("range.ir.overflow"));
}

TEST(LintRange, NarrowWidthForExactRuleIsRejected) {
    const auto p = toy();
    const dvbs2::core::DecoderConfig cfg;  // Exact rule
    EXPECT_TRUE(da::lint_fixed_point(p, cfg, dvbs2::quant::QuantSpec{18, 2})
                    .has("range.quantizer-degenerate"));
    EXPECT_TRUE(da::lint_fixed_point(p, cfg, dvbs2::quant::QuantSpec{1, 0})
                    .has("range.quantizer-degenerate"));
    EXPECT_TRUE(da::lint_fixed_point(p, cfg, dvbs2::quant::QuantSpec{6, 6})
                    .has("range.quantizer-degenerate"));
}

TEST(LintRange, SaturatingOffsetTripsOffsetRule) {
    const auto p = toy();
    dvbs2::core::DecoderConfig cfg;
    cfg.rule = dvbs2::core::CheckRule::OffsetMinSum;
    cfg.offset = 8.0;  // kQuant6 max_value() is 7.75
    const auto rep = da::lint_fixed_point(p, cfg, dvbs2::quant::kQuant6);
    EXPECT_TRUE(rep.has("range.offset-saturation"));
}

TEST(LintRange, NegativeOffsetOverflowsTheMessageRange) {
    const auto p = toy();
    dvbs2::core::DecoderConfig cfg;
    cfg.rule = dvbs2::core::CheckRule::OffsetMinSum;
    cfg.offset = -2.0;  // grows magnitudes past max_raw without saturation
    const auto rep = da::lint_range_ir(p, cfg, dvbs2::quant::kQuant6);
    EXPECT_TRUE(rep.has("range.ir.overflow"));
}

TEST(LintRange, DegenerateNormalizationTripsNormRule) {
    const auto p = toy();
    dvbs2::core::DecoderConfig cfg;
    cfg.rule = dvbs2::core::CheckRule::NormalizedMinSum;
    cfg.normalization = 0.01;  // quantizes to a zero shift-add factor
    const auto rep = da::lint_fixed_point(p, cfg, dvbs2::quant::kQuant6);
    EXPECT_TRUE(rep.has("range.norm-degenerate"));
}

TEST(LintRange, ExcessiveCheckDegreeTripsCapRule) {
    auto p = toy();
    p.check_deg = 64;  // beyond the decoder's stack buffers
    const auto rep =
        da::lint_fixed_point(p, dvbs2::core::DecoderConfig{}, dvbs2::quant::kQuant6);
    EXPECT_TRUE(rep.has("range.check-degree-cap"));
}

TEST(LintRange, WideQuantizerWarnsAboutClampMismatch) {
    const auto p = toy();
    dvbs2::core::DecoderConfig cfg;
    cfg.rule = dvbs2::core::CheckRule::MinSum;
    const auto rep = da::lint_fixed_point(p, cfg, dvbs2::quant::QuantSpec{16, 0});
    EXPECT_TRUE(rep.has("range.clamp-mismatch"));
    EXPECT_TRUE(rep.clean()) << "a warning must not fail the lint";
}

// ------------------------------------------------------------- analyzer --

TEST(Analyzer, ShippedConfigurationIsCleanEndToEnd) {
    da::LintOptions opts;
    opts.anneal.iterations = 800;
    const auto rep = da::lint_configuration(toy(), opts);
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(rep.has("mem.conflict-proof"));
}

TEST(Analyzer, BrokenTableStopsDependentFamilies) {
    const auto p = toy();
    auto t = dc::generate_tables(p);
    t.rows[0][1] = t.rows[0][0];
    da::LintOptions opts;
    const auto rep = da::lint_configuration(p, t, opts);
    EXPECT_TRUE(rep.has("code.duplicate-entry"));
    EXPECT_FALSE(rep.has("mem.conflict-proof"))
        << "architecture rules must not run on a broken table";
    EXPECT_FALSE(rep.has("analysis.internal"));
}

TEST(Analyzer, UndersizedBufferFailsTheFullLint) {
    da::LintOptions opts;
    opts.buffer_depth = 0;
    opts.run_anneal = false;
    const auto rep = da::lint_configuration(toy(), opts);
    EXPECT_TRUE(rep.has("mem.conflict-overflow"));
}

// ----------------------------------------------------------- diagnostics --

TEST(Diagnostics, ReportAccountingAndLookup) {
    da::Report rep;
    rep.add("x.a", da::Severity::Error, "here", "broken");
    rep.add("x.b", da::Severity::Warning, "", "odd");
    rep.add("x.c", da::Severity::Note, "", "fyi");
    EXPECT_EQ(rep.error_count(), 1u);
    EXPECT_EQ(rep.warning_count(), 1u);
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(rep.has("x.b"));
    EXPECT_FALSE(rep.has("x.d"));
    EXPECT_EQ(rep.by_rule("x.a").size(), 1u);
}

TEST(Diagnostics, TextAndJsonRendering) {
    da::Report rep;
    rep.add("code.girth4-info", da::Severity::Error, "row 1", "cycle \"here\"", "fix\nit");
    std::ostringstream text;
    da::render_text(text, rep);
    EXPECT_NE(text.str().find("error code.girth4-info [row 1]"), std::string::npos);
    std::ostringstream json;
    da::render_json(json, rep);
    EXPECT_NE(json.str().find("\"rule\": \"code.girth4-info\""), std::string::npos);
    EXPECT_NE(json.str().find("\\\"here\\\""), std::string::npos);
    EXPECT_NE(json.str().find("\"errors\": 1"), std::string::npos);
}

TEST(Diagnostics, FamilyPrefixMatchingIsSegmentAware) {
    EXPECT_TRUE(da::rule_in_family("mem.config", "mem"));
    EXPECT_TRUE(da::rule_in_family("schedule.dataflow.ports", "schedule.dataflow"));
    EXPECT_TRUE(da::rule_in_family("schedule.dataflow.ports", "schedule.dataflow.ports"));
    EXPECT_FALSE(da::rule_in_family("schedule.dataflow.ports", "sched"))
        << "a family must match whole segments, not raw prefixes";
    EXPECT_FALSE(da::rule_in_family("memory.config", "mem"));
    EXPECT_FALSE(da::rule_in_family("mem", "mem.config"));
    EXPECT_FALSE(da::rule_in_family("anything", ""));

    da::Report rep;
    rep.add("sched.read-once", da::Severity::Note, "", "a");
    rep.add("schedule.dataflow.ports", da::Severity::Note, "", "b");
    rep.add("schedule.dataflow.liveness", da::Severity::Note, "", "c");
    EXPECT_EQ(rep.by_family("schedule.dataflow").size(), 2u);
    EXPECT_EQ(rep.by_family("sched").size(), 1u);
    EXPECT_EQ(rep.by_family("schedule").size(), 2u);
}

TEST(Diagnostics, RenderingOrderIsDeterministic) {
    // Two reports with the same findings in different insertion order must
    // render byte-identically (stable sort by rule, then location).
    da::Report a;
    a.add("z.rule", da::Severity::Note, "loc 2", "m1");
    a.add("a.rule", da::Severity::Note, "loc 9", "m2");
    a.add("z.rule", da::Severity::Note, "loc 1", "m3");
    da::Report b;
    b.add("z.rule", da::Severity::Note, "loc 1", "m3");
    b.add("z.rule", da::Severity::Note, "loc 2", "m1");
    b.add("a.rule", da::Severity::Note, "loc 9", "m2");
    std::ostringstream ta, tb, ja, jb;
    da::render_text(ta, a);
    da::render_text(tb, b);
    EXPECT_EQ(ta.str(), tb.str());
    da::render_json(ja, a);
    da::render_json(jb, b);
    EXPECT_EQ(ja.str(), jb.str());
    // And the sorted order itself: a.rule first, then z.rule by location.
    EXPECT_LT(ta.str().find("a.rule"), ta.str().find("z.rule [loc 1]"));
    EXPECT_LT(ta.str().find("z.rule [loc 1]"), ta.str().find("z.rule [loc 2]"));
}

TEST(Diagnostics, JsonEscapingOfSpecialCharacters) {
    da::Report rep;
    rep.add("x.esc", da::Severity::Warning, "path\\to\"file\"",
            "line1\nline2\ttabbed\rcarriage", "caf\xc3\xa9 \xe2\x86\x92 fix");
    std::ostringstream os;
    da::render_json(os, rep);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"path\\\\to\\\"file\\\"\""), std::string::npos) << json;
    EXPECT_NE(json.find("line1\\nline2\\ttabbed\\u000dcarriage"), std::string::npos) << json;
    // Non-ASCII UTF-8 passes through byte-for-byte.
    EXPECT_NE(json.find("caf\xc3\xa9 \xe2\x86\x92 fix"), std::string::npos) << json;
    // No raw control characters may survive in the output.
    for (char c : json) EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
}

// ------------------------------------------------- schedule.dataflow.* --

TEST(LintDataflow, ShippedToyConfigurationReportsTheProofNotes) {
    da::LintOptions opts;
    opts.anneal.iterations = 800;
    const auto rep = da::lint_configuration(toy(), opts);
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(rep.has("schedule.dataflow.read-once"));
    EXPECT_TRUE(rep.has("schedule.dataflow.ports"));
    EXPECT_TRUE(rep.has("schedule.dataflow.parallelism"));
    EXPECT_TRUE(rep.has("schedule.dataflow.simd-legal"));
    ASSERT_TRUE(rep.has("schedule.dataflow.liveness"));
    // toy(): P=12, q=7 -> m=84. Zigzag keeps 85 parity words, flooding 167.
    const auto live = rep.by_rule("schedule.dataflow.liveness");
    EXPECT_NE(live[0].message.find("parity 85"), std::string::npos) << live[0].message;
    EXPECT_NE(live[0].message.find("reference 167"), std::string::npos) << live[0].message;
    EXPECT_NE(live[0].message.find("zigzag halving verified (85 vs 167)"), std::string::npos)
        << live[0].message;
}

TEST(LintDataflow, CorruptSlotStreamTripsTheDataflowRules) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    auto model = da::make_schedule_model(mapping);
    da::DataflowOptions opts;

    // Clean model proves clean (plus notes).
    EXPECT_TRUE(da::lint_dataflow(model, opts).clean());

    // Swap the first slot runs of FU-local CN 0 and CN 1: completion order
    // inverts and the serial windows interleave.
    auto swapped = model;
    for (int t = 0; t < model.slots_per_cn; ++t)
        std::swap(swapped.slots[static_cast<std::size_t>(t)],
                  swapped.slots[static_cast<std::size_t>(model.slots_per_cn + t)]);
    const auto rep = da::lint_dataflow(swapped, opts);
    EXPECT_TRUE(rep.has("schedule.dataflow.order"));
    EXPECT_FALSE(rep.clean());

    // Point two slots at one address: read-once breaks both ways.
    auto doubled = model;
    doubled.slots[1].addr = doubled.slots[0].addr;
    const auto rep2 = da::lint_dataflow(doubled, opts);
    EXPECT_TRUE(rep2.has("schedule.dataflow.read-once"));
    EXPECT_EQ(rep2.by_rule("schedule.dataflow.read-once").size(), 2u);

    // Degenerate model is rejected, not crashed on.
    EXPECT_TRUE(da::lint_dataflow(da::ScheduleModel{}, opts).has("schedule.dataflow.config"));
}

TEST(LintDataflow, DataflowPortNumbersAgreeWithMemProof) {
    // The schedule.dataflow.ports numbers come from the same drain recurrence
    // as mem.conflict-proof; both notes must quote the same peak.
    da::LintOptions opts;
    opts.run_anneal = false;
    const auto rep = da::lint_configuration(toy(), opts);
    const auto mem = rep.by_rule("mem.conflict-proof");
    const auto ports = rep.by_rule("schedule.dataflow.ports");
    ASSERT_EQ(mem.size(), 2u);
    ASSERT_EQ(ports.size(), 2u);
    for (const auto& m : mem) {
        const std::string peak = m.message.substr(0, m.message.find(" of "));
        bool matched = false;
        for (const auto& p : ports)
            if (p.location == m.location &&
                p.message.find(peak.substr(peak.find("peak "))) != std::string::npos)
                matched = true;
        EXPECT_TRUE(matched) << m.location << ": " << m.message;
    }
}
