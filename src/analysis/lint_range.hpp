// Rule family `range.*`: the fixed-point configuration gates of the decoder
// datapath (paper Sec. 2.1, the 5/6-bit message quantization) that the
// per-event IR certifier (lint_range_ir.hpp, rule family `range.ir.*`) does
// not check. They constrain the word format and the rule parameters: a
// quantizer outside the supported space, a range wider than the float
// reference clamp, a check degree beyond the datapath buffers, and rule
// parameters that silently saturate the datapath to zero ("saturation
// ambiguity": a decoder that only ever emits 0 still halts, but corrects
// nothing). Whether a stage can overflow its register is `range.ir.overflow`'s
// verdict alone.
//
// Rules:
//   range.quantizer-degenerate  width/fraction outside the supported space
//   range.offset-saturation     offset-min-sum offset zeroes every message
//   range.norm-degenerate       normalization factor quantizes to 0 (or
//                               amplifies, as a warning)
//   range.check-degree-cap      check degree exceeds the datapath buffers
//   range.clamp-mismatch        (warning) quantizer range exceeds the ±30
//                               reference clamp, fixed/float divergence
#pragma once

#include "analysis/diag.hpp"
#include "code/params.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"

namespace dvbs2::analysis {

/// Checks the quantizer `spec` and the rule parameters of `cfg` for
/// `params`. Pure static computation; never throws.
Report lint_fixed_point(const code::CodeParams& params, const core::DecoderConfig& cfg,
                        const quant::QuantSpec& spec);

}  // namespace dvbs2::analysis
