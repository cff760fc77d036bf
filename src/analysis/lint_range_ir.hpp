// Rule family `range.ir.*`: per-event fixed-point range certification over
// the schedule dataflow IR (analysis/ir/absint.hpp), the one range
// authority of the decoder datapath.
//
// The family compiles the configured schedule to its Def/Use/Sink event
// trace, runs the interval-domain abstract interpreter over it, and reports
// the machine-checked RangeCertificate: per-storage-space and per-stage
// proven bounds, verified independently by check_range_certificate before
// any verdict is derived. The trace dims carry the linted code's worst-case
// degrees (its check in-degree and one information node of its deg_hi), so
// the certificate covers the concrete code; the quantizer and decoder knobs
// translate to the AbsintSpec through core::absint_spec_of, the derivation
// core::engine_range_certificate uses, so lint verdicts and
// engine-construction verdicts cannot diverge.
//
// Rules:
//   range.ir.certificate   (note) checker-accepted certificate: the proven
//                          per-space peaks, fixpoint rounds, widenings
//   range.ir.overflow      (error) a proven bound exceeds its capacity; the
//                          message quotes the first offending trace event
//   range.ir.checker       (error) the independent checker rejected the
//                          interpreter's certificate (analyzer defect —
//                          surfaced loudly, never silently trusted)
//   range.ir.quantizer     (note) quantizer outside the certifiable space;
//                          see range.quantizer-degenerate for the error
#pragma once

#include <iosfwd>
#include <optional>

#include "analysis/diag.hpp"
#include "analysis/ir/absint.hpp"
#include "code/params.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"

namespace dvbs2::analysis {

/// Full result: the certificate (when one was produced), the checker
/// verdict, and the derived diagnostics.
struct RangeIrAnalysis {
    std::optional<ir::RangeCertificate> certificate;
    bool checker_ok = false;
    Report report;
};

/// The scaled-model trace dims carrying `params`' worst-case degrees.
ir::TraceDims range_trace_dims(const code::CodeParams& params);

/// Certifies `params` decoded under `cfg` with messages quantized by
/// `spec`. Pure static computation; never throws on overflow (the
/// certificate names the offender), only on malformed inputs the
/// quantizer gate did not cover.
RangeIrAnalysis analyze_range_ir(const code::CodeParams& params, const core::DecoderConfig& cfg,
                                 const quant::QuantSpec& spec);

/// Report-only convenience.
Report lint_range_ir(const code::CodeParams& params, const core::DecoderConfig& cfg,
                     const quant::QuantSpec& spec);

/// Renders one analysis as a JSON object (schedule, rule, quantizer,
/// verdicts, space bounds, stage table, offender) — the payload behind
/// `dvbs2_lint --range-cert-json`.
void render_certificate_json(std::ostream& os, const std::string& target,
                             const core::DecoderConfig& cfg, const quant::QuantSpec& spec,
                             const RangeIrAnalysis& analysis);

}  // namespace dvbs2::analysis
