#include "analysis/lint_range_ir.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "analysis/ir/ir.hpp"
#include "core/engine.hpp"  // absint_spec_of

namespace dvbs2::analysis {

ir::TraceDims range_trace_dims(const code::CodeParams& cp) {
    // This code's worst-case fan-ins: its check in-degree and one
    // information node of its highest degree.
    return ir::fan_in_trace_dims(cp.check_deg > 3 ? cp.check_deg - 2 : 1,
                                 std::max(cp.deg_hi, cp.deg_lo));
}

namespace {

std::string bounds_summary(const ir::RangeCertificate& cert) {
    std::string s;
    for (int sp = 0; sp < ir::kSpaceCount; ++sp) {
        if (cert.space_bound[static_cast<std::size_t>(sp)] == 0) continue;
        if (!s.empty()) s += ", ";
        s += std::string(ir::to_string(static_cast<ir::Space>(sp))) + "<=" +
             std::to_string(cert.space_bound[static_cast<std::size_t>(sp)]);
    }
    return s.empty() ? std::string("all spaces unused") : s;
}

}  // namespace

RangeIrAnalysis analyze_range_ir(const code::CodeParams& cp, const core::DecoderConfig& cfg,
                                 const quant::QuantSpec& spec) {
    RangeIrAnalysis out;
    Report& rep = out.report;
    const std::string loc = "quantizer " + std::to_string(spec.total_bits) + "." +
                            std::to_string(spec.frac_bits) + " schedule=" +
                            core::to_string(cfg.schedule);

    // Outside the certifiable space the step()/max_raw() arithmetic below
    // is meaningless; range.quantizer-degenerate already carries the error.
    if (spec.total_bits < 2 || spec.total_bits > 31 || spec.frac_bits < 0 ||
        spec.frac_bits >= spec.total_bits) {
        rep.add("range.ir.quantizer", Severity::Note, loc,
                "quantizer is outside the certifiable space; no certificate produced",
                "see range.quantizer-degenerate for the hard error");
        return out;
    }

    const ir::AbsintSpec aspec = core::absint_spec_of(cfg, spec);
    const ir::Trace trace = ir::build_schedule_trace(cfg.schedule, range_trace_dims(cp));
    out.certificate = ir::certify_ranges(trace, aspec);
    const ir::RangeCertificate& cert = *out.certificate;
    const ir::RangeCheck chk = ir::check_range_certificate(trace, aspec, cert);
    out.checker_ok = chk.ok;

    if (!chk.ok) {
        // An interpreter/checker disagreement is an analyzer defect: the
        // certificate must never be trusted unchecked.
        std::string what = "independent checker rejected the certificate: " +
                           (chk.rejection ? chk.rejection->reason : std::string("?"));
        if (chk.rejection && chk.rejection->event >= 0)
            what += " at " + ir::describe_event(
                                 trace.events[static_cast<std::size_t>(chk.rejection->event)]);
        rep.add("range.ir.checker", Severity::Error, loc, what,
                "report this as an analyzer defect; the config cannot be certified");
        return out;
    }

    if (!cert.ok) {
        std::string what = "proven bound exceeds capacity: " + cert.offender_stage;
        if (cert.first_offender >= 0)
            what += ", first at " +
                    ir::describe_event(
                        trace.events[static_cast<std::size_t>(cert.first_offender)]);
        rep.add("range.ir.overflow", Severity::Error, loc, what,
                "narrow the message quantizer or lower the maximum node degree");
    } else {
        rep.add("range.ir.certificate", Severity::Note, loc,
                "checker-accepted certificate: " + bounds_summary(cert) + " (fixpoint in " +
                    std::to_string(cert.fixpoint_rounds) + " rounds, " +
                    std::to_string(cert.widenings) + " widenings)",
                "");
    }
    return out;
}

Report lint_range_ir(const code::CodeParams& cp, const core::DecoderConfig& cfg,
                     const quant::QuantSpec& spec) {
    return analyze_range_ir(cp, cfg, spec).report;
}

void render_certificate_json(std::ostream& os, const std::string& target,
                             const core::DecoderConfig& cfg, const quant::QuantSpec& spec,
                             const RangeIrAnalysis& analysis) {
    os << "{\"target\": \"" << target << "\", \"schedule\": \"" << core::to_string(cfg.schedule)
       << "\", \"rule\": \"" << core::to_string(cfg.rule) << "\", \"quant\": \""
       << spec.total_bits << "." << spec.frac_bits << "\"";
    if (!analysis.certificate) {
        os << ", \"certified\": false}";
        return;
    }
    const ir::RangeCertificate& cert = *analysis.certificate;
    os << ", \"certified\": true, \"ok\": " << (cert.ok ? "true" : "false")
       << ", \"checker_ok\": " << (analysis.checker_ok ? "true" : "false")
       << ", \"fixpoint_rounds\": " << cert.fixpoint_rounds
       << ", \"widenings\": " << cert.widenings << ", \"space_bounds\": {";
    for (int sp = 0; sp < ir::kSpaceCount; ++sp) {
        if (sp != 0) os << ", ";
        os << "\"" << ir::to_string(static_cast<ir::Space>(sp))
           << "\": " << cert.space_bound[static_cast<std::size_t>(sp)];
    }
    os << "}, \"stages\": [";
    for (std::size_t i = 0; i < cert.stages.size(); ++i) {
        const ir::StageBound& s = cert.stages[i];
        if (i != 0) os << ", ";
        os << "{\"stage\": \"" << s.stage << "\", \"worst\": " << s.worst
           << ", \"capacity\": " << s.capacity << ", \"fits\": " << (s.fits() ? "true" : "false")
           << "}";
    }
    os << "], \"first_offender\": " << cert.first_offender << ", \"offender_stage\": \""
       << cert.offender_stage << "\"}";
}

}  // namespace dvbs2::analysis
