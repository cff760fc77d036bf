#include "analysis/analyzer.hpp"

#include <exception>

#include "code/tanner.hpp"

namespace dvbs2::analysis {

Report lint_configuration(const code::CodeParams& params, const code::IraTables& tables,
                          const LintOptions& opts) {
    Report rep = lint_code_structure(params, tables);

    // Range analysis depends only on parameters and the decoder config, so
    // it runs even when the table itself is broken: the word-format and
    // rule-parameter gates, then the per-event IR certification.
    for (const quant::QuantSpec& spec : opts.quant_specs) {
        rep.merge(lint_fixed_point(params, opts.decoder, spec));
        rep.merge(lint_range_ir(params, opts.decoder, spec));
    }

    // Schedule and memory rules need the expanded graph; a structurally
    // broken table cannot be expanded, so stop here with the findings.
    if (!rep.clean()) return rep;

    try {
        const code::Dvbs2Code code(params, tables);
        arch::HardwareMapping mapping(code);
        if (opts.run_anneal && arch::memory_config_error(opts.memory).empty()) {
            arch::AnnealConfig acfg = opts.anneal;
            acfg.memory = opts.memory;
            arch::anneal_addressing(mapping, acfg);
        }
        rep.merge(lint_schedule(mapping));
        DataflowOptions dopts;
        dopts.memory = opts.memory;
        dopts.buffer_depth = opts.buffer_depth;
        dopts.schedule = opts.decoder.schedule;
        rep.merge(lint_dataflow(code, mapping, dopts));
    } catch (const std::exception& e) {
        // The lint rules above are meant to pre-empt every constructor
        // requirement; reaching this means a rule gap, so surface it loudly.
        rep.add("analysis.internal", Severity::Error, "expansion",
                std::string("artifact construction failed despite a clean code lint: ") +
                    e.what(),
                "report this as an analyzer rule gap");
    }
    return rep;
}

Report lint_configuration(const code::CodeParams& params, const LintOptions& opts) {
    return lint_configuration(params, code::generate_tables(params), opts);
}

}  // namespace dvbs2::analysis
