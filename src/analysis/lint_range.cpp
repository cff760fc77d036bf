#include "analysis/lint_range.hpp"

#include <cmath>

#include "core/mp_decoder.hpp"  // kMaxCheckDegree, the datapath buffer bound
#include "util/math.hpp"

namespace dvbs2::analysis {

Report lint_fixed_point(const code::CodeParams& cp, const core::DecoderConfig& cfg,
                        const quant::QuantSpec& spec) {
    Report rep;
    const std::string qloc = "quantizer " + std::to_string(spec.total_bits) + "." +
                             std::to_string(spec.frac_bits);

    // --- quantizer legality (everything below divides by step or shifts by
    // total_bits, so these are hard gates) ---
    if (spec.total_bits < 2 || spec.total_bits > 31) {
        rep.add("range.quantizer-degenerate", Severity::Error, qloc,
                "total width must be in [2, 31] (sign + magnitude inside a 32-bit lane)",
                "the paper's design points are 6 and 5 bits");
        return rep;
    }
    if (spec.frac_bits < 0 || spec.frac_bits >= spec.total_bits) {
        rep.add("range.quantizer-degenerate", Severity::Error, qloc,
                "fractional bits must be in [0, total_bits)",
                "kQuant6 uses 2 fractional bits");
        return rep;
    }
    if (cfg.rule == core::CheckRule::Exact && spec.total_bits > 16)
        rep.add("range.quantizer-degenerate", Severity::Error, qloc,
                "the correction-LUT boxplus supports at most 16-bit messages "
                "(table of 2^(w+1) entries)",
                "use a min-sum rule for wider messages");
    if (spec.max_value() < 1.0)
        rep.add("range.quantizer-degenerate", Severity::Warning, qloc,
                "largest representable LLR is below 1.0 — every moderately confident "
                "channel value saturates immediately",
                "reserve more integer bits");
    if (spec.max_value() > util::kLlrClamp)
        rep.add("range.clamp-mismatch", Severity::Warning, qloc,
                "representable range exceeds the float reference clamp of ±30: the "
                "fixed-point decoder can hold beliefs the reference cannot",
                "keep max_value() <= 30 for bit-exactness studies against the float model");

    if (cp.check_deg > core::kMaxCheckDegree)
        rep.add("range.check-degree-cap", Severity::Error, "params " + cp.name,
                "check degree " + std::to_string(cp.check_deg) +
                    " exceeds the datapath buffer bound " +
                    std::to_string(core::kMaxCheckDegree),
                "raise core::kMaxCheckDegree with the hardware FU depth");

    const long long norm_num = std::lround(cfg.normalization * 16.0);
    if (cfg.rule == core::CheckRule::NormalizedMinSum) {
        // finalize: (v*norm_num + 8) >> 4, saturated afterwards.
        if (norm_num <= 0)
            rep.add("range.norm-degenerate", Severity::Error, "normalization",
                    "factor " + std::to_string(cfg.normalization) +
                        " quantizes to norm_num=" + std::to_string(norm_num) +
                        ": every check message becomes 0 (or flips sign)",
                    "use a factor in [1/16, 1], e.g. the paper-typical 0.75");
        else if (norm_num > 16)
            rep.add("range.norm-degenerate", Severity::Warning, "normalization",
                    "factor > 1 amplifies messages into permanent saturation",
                    "normalized min-sum uses factors <= 1");
    }
    if (cfg.rule == core::CheckRule::OffsetMinSum) {
        const quant::QLLR off = quant::quantize(cfg.offset, spec);
        if (off >= spec.max_raw())
            rep.add("range.offset-saturation", Severity::Error, "offset",
                    "offset " + std::to_string(cfg.offset) + " quantizes to " +
                        std::to_string(off) + " >= max_raw=" + std::to_string(spec.max_raw()) +
                        ": every check message is zeroed, the decoder cannot correct",
                    "choose an offset well below the representable maximum " +
                        std::to_string(spec.max_value()));
    }

    return rep;
}

}  // namespace dvbs2::analysis
