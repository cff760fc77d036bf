// Tests of the static analyzer (src/analysis): every rule family has
// passing and failing inputs, negative paths assert the exact rule id they
// trip, and the RAM-port notes are checked to quote the conflict simulator
// on multiple code rates and mappings.
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

/// The schedule.dataflow.ports message that quotes `st` against a
/// `depth`-word buffer.
std::string port_note(const dr::ConflictStats& st, int depth) {
    return "port drain: peak " + std::to_string(st.peak_buffer) + " of " + std::to_string(depth) +
           " buffer words, " + std::to_string(st.blocked_write_events) + " deferred writes, " +
           std::to_string(st.total_cycles) + " cycles (" + std::to_string(st.read_cycles) +
           " reads)";
}

/// True when one of `notes` at `phase` ("check phase" or "variable phase")
/// reads `message`.
bool quotes(const std::vector<da::Diagnostic>& notes, const std::string& phase,
            const std::string& message) {
    for (const auto& d : notes)
        if (d.location == phase && d.message == message) return true;
    return false;
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
    EXPECT_TRUE(da::lint_dataflow(model, {}).has("schedule.dataflow.read-once"));
}

TEST(LintSchedule, RunOrderViolationTripsZigzagRule) {
    // The strict zigzag run order (slot t serves local CN t/(check_deg-2))
    // is a schedule.dataflow rule.
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    const auto model = da::make_schedule_model(mapping);
    auto swapped = model;
    std::swap(swapped.slots[0], swapped.slots[static_cast<std::size_t>(model.slots_per_cn)]);
    EXPECT_TRUE(da::lint_dataflow(swapped, {}).has("schedule.dataflow.fu-serial"));

    // Relabel the first slot of CN 1 into CN 0: every window stays
    // contiguous and completes in order, but CN 0 gets one edge too many
    // and CN 1 one too few.
    auto relabelled = model;
    relabelled.slots[static_cast<std::size_t>(model.slots_per_cn)].local_cn = 0;
    EXPECT_TRUE(da::lint_schedule(relabelled).clean());
    const auto rep = da::lint_dataflow(relabelled, {});
    EXPECT_EQ(rep.by_rule("schedule.dataflow.order").size(), 2u);
    EXPECT_FALSE(rep.has("schedule.dataflow.read-once"))
        << "the proof note must not claim a relabelled stream";
}

TEST(LintSchedule, DuplicateSlotTripsEdgeCoverage) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    auto model = da::make_schedule_model(mapping);
    model.slots[1] = model.slots[0];
    const auto rep = da::lint_schedule(model);
    EXPECT_TRUE(rep.has("sched.edge-coverage"));
    EXPECT_TRUE(da::lint_dataflow(model, {}).has("schedule.dataflow.read-once"));
}

// ------------------------------------------------------------- RAM ports --
// schedule.dataflow.config / ports / ports-overflow over arch/conflict.

TEST(LintMemory, StaticProofMatchesDynamicSimulatorAcrossRatesAndMappings) {
    // The ports notes carry arch::simulate_iteration's peak buffer words,
    // deferred writes and cycles for both phases, on canonical and annealed
    // addressings of three long-frame rates.
    da::DataflowOptions opts;
    opts.buffer_depth = 64;  // every peak fits, so each phase gets its note
    for (const auto rate : {dc::CodeRate::R1_2, dc::CodeRate::R3_4, dc::CodeRate::R8_9}) {
        const dc::Dvbs2Code code(dc::standard_params(rate, dc::FrameSize::Long));
        dr::HardwareMapping mapping(code);
        for (int pass = 0; pass < 2; ++pass) {
            if (pass == 1) {
                dr::AnnealConfig acfg;
                acfg.iterations = 800;
                dr::anneal_addressing(mapping, acfg);
            }
            const auto sim = dr::simulate_iteration(mapping, opts.memory);
            const auto notes =
                da::lint_dataflow(da::make_schedule_model(mapping), opts).by_rule(
                    "schedule.dataflow.ports");
            ASSERT_EQ(notes.size(), 2u);
            const std::pair<const char*, dr::ConflictStats> phases[] = {
                {"check phase", sim.check_phase}, {"variable phase", sim.variable_phase}};
            for (const auto& [phase, st] : phases) {
                const std::string want = port_note(st, opts.buffer_depth);
                EXPECT_TRUE(quotes(notes, phase, want))
                    << dc::to_string(rate) << " pass " << pass << ": " << want;
            }
        }
    }
}

TEST(LintMemory, SufficientBufferPassesWithProofNotes) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    da::DataflowOptions opts;
    opts.buffer_depth = 64;
    const auto rep = da::lint_dataflow(da::make_schedule_model(mapping), opts);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.by_rule("schedule.dataflow.ports").size(), 2u);
}

TEST(LintMemory, UndersizedBufferTripsOverflowRule) {
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    da::DataflowOptions opts;
    opts.buffer_depth = 0;
    const auto rep = da::lint_dataflow(da::make_schedule_model(mapping), opts);
    EXPECT_TRUE(rep.has("schedule.dataflow.ports-overflow"));
}

TEST(LintMemory, DegenerateMemoryConfigTripsConfigRule) {
    // Through the full analyzer with annealing on: the config is checked
    // before the annealer runs the conflict model, and only the annealer
    // and the port drain are skipped.
    const struct {
        dr::MemoryConfig memory;
        const char* field;
    } cases[] = {{{1, 2, 4}, "num_banks = 1"},
                 {{4, 0, 4}, "max_writes_per_cycle = 0"},
                 {{4, 2, -3}, "pipeline_latency = -3"}};
    for (const auto& c : cases) {
        da::LintOptions opts;
        opts.memory = c.memory;
        const auto rep = da::lint_configuration(toy(), opts);
        ASSERT_EQ(rule_ids(rep), std::vector<std::string>{"schedule.dataflow.config"}) << c.field;
        const std::string message = rep.by_rule("schedule.dataflow.config")[0].message;
        EXPECT_NE(message.find(c.field), std::string::npos) << message;
        EXPECT_TRUE(rep.has("schedule.dataflow.read-once")) << c.field;
        EXPECT_FALSE(rep.has("schedule.dataflow.ports")) << c.field;
    }
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
    EXPECT_TRUE(rep.has("schedule.dataflow.ports"));
}

TEST(Analyzer, BrokenTableStopsDependentFamilies) {
    const auto p = toy();
    auto t = dc::generate_tables(p);
    t.rows[0][1] = t.rows[0][0];
    da::LintOptions opts;
    const auto rep = da::lint_configuration(p, t, opts);
    EXPECT_TRUE(rep.has("code.duplicate-entry"));
    EXPECT_FALSE(rep.has("schedule.dataflow.ports"))
        << "architecture rules must not run on a broken table";
    EXPECT_FALSE(rep.has("analysis.internal"));
}

TEST(Analyzer, UndersizedBufferFailsTheFullLint) {
    da::LintOptions opts;
    opts.buffer_depth = 0;
    opts.run_anneal = false;
    const auto rep = da::lint_configuration(toy(), opts);
    EXPECT_TRUE(rep.has("schedule.dataflow.ports-overflow"));
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
    EXPECT_TRUE(da::rule_in_family("code.params", "code"));
    EXPECT_TRUE(da::rule_in_family("schedule.dataflow.ports", "schedule.dataflow"));
    EXPECT_TRUE(da::rule_in_family("schedule.dataflow.ports", "schedule.dataflow.ports"));
    EXPECT_FALSE(da::rule_in_family("schedule.dataflow.ports", "sched"))
        << "a family must match whole segments, not raw prefixes";
    EXPECT_FALSE(da::rule_in_family("codebook.params", "code"));
    EXPECT_FALSE(da::rule_in_family("code", "code.params"));
    EXPECT_FALSE(da::rule_in_family("anything", ""));

    da::Report rep;
    rep.add("sched.edge-coverage", da::Severity::Note, "", "a");
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
    // Through the full analyzer, the ports notes quote the conflict
    // simulator run with the analyzer's memory config and buffer depth on
    // the mapping it lints (canonical, since annealing is off). One write
    // port and a longer latency change both phases' cycle counts from the
    // default config's, and the depth is quoted, so a drain that dropped
    // either option would quote the wrong numbers.
    da::LintOptions opts;
    opts.run_anneal = false;
    opts.memory = dr::MemoryConfig{4, 1, 6};
    opts.buffer_depth = 32;
    const auto rep = da::lint_configuration(toy(), opts);
    const dc::Dvbs2Code code(toy());
    const dr::HardwareMapping mapping(code);
    const auto sim = dr::simulate_iteration(mapping, opts.memory);
    const auto base = dr::simulate_iteration(mapping, dr::MemoryConfig{});
    EXPECT_NE(sim.check_phase.total_cycles, base.check_phase.total_cycles);
    EXPECT_NE(sim.variable_phase.total_cycles, base.variable_phase.total_cycles);

    const auto ports = rep.by_rule("schedule.dataflow.ports");
    ASSERT_EQ(ports.size(), 2u);
    EXPECT_TRUE(quotes(ports, "check phase", port_note(sim.check_phase, 32)))
        << ports[0].message << " | " << ports[1].message;
    EXPECT_TRUE(quotes(ports, "variable phase", port_note(sim.variable_phase, 32)))
        << ports[0].message << " | " << ports[1].message;
}
