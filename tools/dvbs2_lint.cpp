// dvbs2_lint — static invariant checker for DVB-S2 LDPC code tables,
// decoder configurations, and the hardware architecture model.
//
// Runs the four rule families of src/analysis/ (code structure, schedule
// legality, schedule dataflow with the RAM-port drain, fixed-point range
// analysis) over generated standard tables or an external table file and
// reports machine-readable diagnostics. Exit status: 0 clean, 1 at least
// one error finding, 2 usage or I/O failure. See docs/lint.md for the rule
// catalogue.
//
//   dvbs2_lint --rate=all --frame=both            # lint every shipped code
//   dvbs2_lint --rate=1/2 --format=json           # machine-readable output
//   dvbs2_lint --table=my.tbl --rate=1/2          # external table file
//   dvbs2_lint --rate=3/4 --check-rule=offset --offset=8.0   # bad config demo
//   dvbs2_lint --rate=1/2 --only=schedule.dataflow   # one rule family only
//   dvbs2_lint --rate=1/2 --schedule=layered         # lint a single schedule
//
// Exit-code contract (stable, scripted against by CI and the exit-code
// tests in tools/CMakeLists.txt):
//   0  every selected rule family ran and produced no error finding
//   1  at least one error finding (notes/warnings alone stay 0)
//   2  usage or I/O failure (unknown flag value, unreadable table file);
//      nothing was linted

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "code/table_io.hpp"
#include "util/cli.hpp"

namespace {

using namespace dvbs2;

std::optional<code::CodeRate> parse_rate(const std::string& s) {
    for (code::CodeRate r : code::all_rates())
        if (code::to_string(r) == s) return r;
    return std::nullopt;
}

std::optional<core::CheckRule> parse_rule(const std::string& s) {
    if (s == "exact") return core::CheckRule::Exact;
    if (s == "minsum") return core::CheckRule::MinSum;
    if (s == "normalized") return core::CheckRule::NormalizedMinSum;
    if (s == "offset") return core::CheckRule::OffsetMinSum;
    return std::nullopt;
}

std::optional<core::Schedule> parse_schedule(const std::string& s) {
    if (s == "two-phase") return core::Schedule::TwoPhase;
    if (s == "zigzag") return core::Schedule::ZigzagForward;
    if (s == "zigzag-segmented") return core::Schedule::ZigzagSegmented;
    if (s == "zigzag-map") return core::Schedule::ZigzagMap;
    if (s == "layered") return core::Schedule::Layered;
    return std::nullopt;
}

struct Target {
    std::string name;
    code::CodeParams params;
    std::optional<code::IraTables> tables;  ///< nullopt = generate from seed
};

int usage(const std::string& msg) {
    std::cerr << "dvbs2_lint: " << msg << "\n"
              << "usage: dvbs2_lint [--rate=all|1/4|...|9/10] [--frame=long|short|both]\n"
              << "                  [--table=FILE] [--format=text|json]\n"
              << "                  [--only=FAMILY[,FAMILY...]] (family or family.rule prefix)\n"
              << "                  [--banks=N] [--writes=N] [--latency=N] [--buffer-depth=N]\n"
              << "                  [--no-anneal] [--bits=N --frac=N]\n"
              << "                  [--range-cert-json=FILE] (write range.ir certificates)\n"
              << "                  [--schedule=S] [--check-rule=R] [--normalization=X] "
                 "[--offset=X]\n"
              << "  --schedule=S lints one schedule (two-phase|zigzag|zigzag-segmented|\n"
              << "               zigzag-map|layered); default zigzag\n"
              << "exit status: 0 clean, 1 error findings, 2 usage/IO failure\n";
    return 2;
}

/// Splits the --only= argument at commas; empty segments are dropped.
std::vector<std::string> parse_only(const std::string& arg) {
    std::vector<std::string> families;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
        const std::size_t comma = arg.find(',', pos);
        const std::size_t end = comma == std::string::npos ? arg.size() : comma;
        if (end > pos) families.push_back(arg.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return families;
}

/// Keeps only findings whose rule id falls under one of `families`
/// (segment-aware prefix match, so --only=sched does not pull in
/// schedule.dataflow.*). The filtered report also drives the exit status.
analysis::Report filter_report(const analysis::Report& rep,
                               const std::vector<std::string>& families) {
    if (families.empty()) return rep;
    analysis::Report out;
    for (const analysis::Diagnostic& d : rep.diagnostics())
        for (const std::string& f : families)
            if (analysis::rule_in_family(d.rule, f)) {
                out.add(d);
                break;
            }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        util::CliArgs args(argc, argv,
                           {"rate", "frame", "table", "format", "only", "banks", "writes",
                            "latency", "buffer-depth", "no-anneal", "bits", "frac", "schedule",
                            "check-rule", "normalization", "offset", "quiet", "range-cert-json"});

        analysis::LintOptions opts;
        opts.memory.num_banks = static_cast<int>(args.get_int("banks", 4));
        opts.memory.max_writes_per_cycle = static_cast<int>(args.get_int("writes", 2));
        opts.memory.pipeline_latency = static_cast<int>(args.get_int("latency", 4));
        opts.buffer_depth = static_cast<int>(args.get_int("buffer-depth", 4));
        opts.run_anneal = !args.has("no-anneal");
        opts.decoder.normalization = args.get_double("normalization", opts.decoder.normalization);
        opts.decoder.offset = args.get_double("offset", opts.decoder.offset);
        if (args.has("schedule")) {
            const auto s = parse_schedule(args.get("schedule", ""));
            if (!s) return usage("unknown --schedule");
            opts.decoder.schedule = *s;
        }
        if (args.has("check-rule")) {
            const auto r = parse_rule(args.get("check-rule", ""));
            if (!r) return usage("unknown --check-rule (exact|minsum|normalized|offset)");
            opts.decoder.rule = *r;
        }
        if (args.has("bits") || args.has("frac")) {
            quant::QuantSpec spec;
            spec.total_bits = static_cast<int>(args.get_int("bits", 6));
            spec.frac_bits = static_cast<int>(args.get_int("frac", 2));
            opts.quant_specs = {spec};
        }

        const std::string format = args.get("format", "text");
        if (format != "text" && format != "json") return usage("unknown --format");
        const bool quiet = args.has("quiet");
        const std::vector<std::string> only = parse_only(args.get("only", ""));
        if (args.has("only") && only.empty()) return usage("--only needs at least one family");

        // --- assemble lint targets ---
        const std::string rate_arg = args.get("rate", "all");
        const std::string frame_arg = args.get("frame", "long");
        std::vector<code::FrameSize> frames;
        if (frame_arg == "long") frames = {code::FrameSize::Long};
        else if (frame_arg == "short") frames = {code::FrameSize::Short};
        else if (frame_arg == "both") frames = {code::FrameSize::Long, code::FrameSize::Short};
        else return usage("unknown --frame (long|short|both)");

        std::vector<Target> targets;
        if (args.has("table")) {
            const auto rate = parse_rate(rate_arg);
            if (!rate) return usage("--table needs an explicit --rate for its parameter set");
            const std::string path = args.get("table", "");
            std::ifstream in(path);
            if (!in) {
                std::cerr << "dvbs2_lint: cannot open " << path << "\n";
                return 2;
            }
            Target t;
            t.params = code::standard_params(*rate, frames.front());
            t.name = path + " as " + t.params.name;
            t.tables = code::load_tables(in);
            targets.push_back(std::move(t));
        } else {
            for (code::FrameSize frame : frames) {
                for (code::CodeRate r : code::rates_for(frame)) {
                    if (rate_arg != "all" && code::to_string(r) != rate_arg) continue;
                    Target t;
                    t.params = code::standard_params(r, frame);
                    t.name = t.params.name;
                    targets.push_back(std::move(t));
                }
            }
            if (targets.empty()) return usage("unknown --rate");
        }

        // --- run ---
        std::size_t errors = 0;
        bool first_json = true;
        if (format == "json") std::cout << "[\n";
        for (const Target& t : targets) {
            const analysis::Report rep = filter_report(
                t.tables ? analysis::lint_configuration(t.params, *t.tables, opts)
                         : analysis::lint_configuration(t.params, opts),
                only);
            errors += rep.error_count();
            if (format == "json") {
                if (!first_json) std::cout << ",\n";
                first_json = false;
                std::cout << "{\"target\": \"" << t.name << "\", \"report\": ";
                analysis::render_json(std::cout, rep);
                std::cout << "}";
            } else if (!quiet || !rep.clean()) {
                std::cout << "== " << t.name << " ==\n";
                analysis::render_text(std::cout, rep);
            }
        }
        if (format == "json") std::cout << "\n]\n";
        // machine-readable certificate sidecar (CI `range-certify` artifact)
        if (args.has("range-cert-json")) {
            const std::string path = args.get("range-cert-json", "");
            std::ofstream certs(path);
            if (!certs) {
                std::cerr << "dvbs2_lint: cannot write " << path << "\n";
                return 2;
            }
            certs << "[\n";
            bool first = true;
            for (const Target& t : targets) {
                for (const quant::QuantSpec& spec : opts.quant_specs) {
                    const analysis::RangeIrAnalysis a =
                        analysis::analyze_range_ir(t.params, opts.decoder, spec);
                    if (!first) certs << ",\n";
                    first = false;
                    analysis::render_certificate_json(certs, t.name, opts.decoder, spec, a);
                }
            }
            certs << "\n]\n";
        }
        if (format == "text")
            std::cout << (errors == 0 ? "LINT PASS" : "LINT FAIL") << " (" << targets.size()
                      << " target(s), " << errors << " error(s))\n";
        return errors == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "dvbs2_lint: " << e.what() << "\n";
        return 2;
    }
}
