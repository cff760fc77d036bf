// Aggregating entry point of the static analyzer: runs the four rule
// families (code structure, schedule legality, schedule dataflow with the
// RAM-port drain, fixed-point range) over one (code table, decoder config,
// architecture config) triple in dependency order and returns one merged
// Report. This is the library API behind the `dvbs2_lint` CLI and the ctest
// lint tier.
#pragma once

#include <optional>
#include <vector>

#include "analysis/diag.hpp"
#include "analysis/lint_code.hpp"
#include "analysis/lint_dataflow.hpp"
#include "analysis/lint_range.hpp"
#include "analysis/lint_range_ir.hpp"
#include "analysis/lint_schedule.hpp"
#include "arch/anneal.hpp"
#include "core/types.hpp"

namespace dvbs2::analysis {

/// What to analyze a code against. Defaults pin the paper's design point:
/// 4-bank single-port RAM with 2 write ports, latency 4, the annealed
/// address assignment, a 4-word conflict buffer, and the 6- and 5-bit
/// message quantizers under the default decoder configuration.
struct LintOptions {
    arch::MemoryConfig memory;
    int buffer_depth = 4;           ///< conflict FIFO words the design provides
    bool run_anneal = true;         ///< lint the annealed addressing (the shipped flow)
    arch::AnnealConfig anneal;      ///< annealer settings when run_anneal
    core::DecoderConfig decoder;    ///< pinned decoder configuration
    std::vector<quant::QuantSpec> quant_specs{quant::kQuant6, quant::kQuant5};
};

/// Runs all four rule families over `params` with explicit `tables`.
/// Code-structure errors stop the dependent families (their inputs would be
/// unconstructible); range analysis always runs (it needs only parameters).
/// A degenerate memory config is one schedule.dataflow.config error: the
/// annealer and the port drain, which need a working conflict model, are
/// skipped, and every other rule still runs.
Report lint_configuration(const code::CodeParams& params, const code::IraTables& tables,
                          const LintOptions& opts);

/// Generates the tables for `params` first (the shipped/generated-table
/// path).
Report lint_configuration(const code::CodeParams& params, const LintOptions& opts);

}  // namespace dvbs2::analysis
