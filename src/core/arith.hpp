// Arithmetic back-ends for the message-passing decoder.
//
// One schedule implementation (mp_decoder.hpp) is instantiated with either
// floating-point or quantized fixed-point arithmetic. The fixed-point
// back-end performs exactly the operations a hardware functional unit does
// (integer saturating adds, ROM boxplus), which is what makes the
// algorithmic decoder and the cycle-driven architecture model bit-exact.
// Its Exact combine reads quant::BoxplusTable's pair ROM (Eq. 5 stored for
// every pair of stored words of specs up to 8 bits; one inline table read)
// and falls back to the formula for wider words; the min-sum rules compute
// sign·min directly, which measured faster than a table read.
#pragma once

#include <cmath>

#include "core/types.hpp"
#include "quant/fixed.hpp"
#include "util/math.hpp"

namespace dvbs2::core {

/// Observed pre-saturation peaks of a fixed-point decode. A probe attached
/// to FixedArith records the largest magnitudes that actually flowed through
/// the datapath, so the range-certification witness tests can compare a
/// real decode against the abstract interpreter's proven stage bounds
/// (tests/test_absint.cpp): `wide_peak` must never exceed the certified
/// accumulator bound and `word_peak` must never exceed the stored-word
/// bound — and the concretized adversarial witness must drive both to the
/// proven peak exactly. Detached (the default) the hooks cost one branch.
struct RangeProbe {
    long long wide_peak = 0;  ///< largest |w| entering narrow(), pre-saturation
    long long word_peak = 0;  ///< largest |v| leaving narrow()/finalize (stored words)

    void see_wide(long long w) noexcept {
        if (w < 0) w = -w;
        if (w > wide_peak) wide_peak = w;
    }
    void see_word(long long v) noexcept {
        if (v < 0) v = -v;
        if (v > word_peak) word_peak = v;
    }
};

/// Floating-point arithmetic: `Value` is a clamped double LLR.
class FloatArith {
public:
    using Value = double;
    using Wide = double;

    FloatArith(CheckRule rule, double normalization, double offset)
        : rule_(rule), normalization_(normalization), offset_(offset) {}

    Value zero() const noexcept { return 0.0; }
    Value from_llr(double llr) const noexcept { return util::clamp_llr(llr); }
    Wide to_wide(Value v) const noexcept { return v; }
    Value narrow(Wide w) const noexcept { return util::clamp_llr(w); }
    bool is_negative(Wide w) const noexcept { return w < 0.0; }

    /// Pairwise check-node combine (associative core of the rule).
    Value combine(Value a, Value b) const noexcept {
        return rule_ == CheckRule::Exact ? util::boxplus_exact(a, b)
                                         : util::boxplus_minsum(a, b);
    }

    /// Post-processing applied once per produced check-node output.
    Value finalize(Value v) const noexcept {
        switch (rule_) {
            case CheckRule::NormalizedMinSum: return v * normalization_;
            case CheckRule::OffsetMinSum: {
                const double mag = std::fabs(v) - offset_;
                return mag <= 0.0 ? 0.0 : std::copysign(mag, v);
            }
            default: return v;
        }
    }

private:
    CheckRule rule_;
    double normalization_;
    double offset_;
};

/// Fixed-point arithmetic: `Value` is a raw quantized LLR, `Wide` an
/// unsaturated 32-bit accumulator.
class FixedArith {
public:
    using Value = quant::QLLR;
    using Wide = quant::QLLR;

    /// `table` must outlive the arithmetic object; pass nullptr for min-sum
    /// rules (the LUT is only needed for CheckRule::Exact).
    FixedArith(CheckRule rule, const quant::QuantSpec& spec, const quant::BoxplusTable* table,
               double normalization, double offset)
        : rule_(rule),
          spec_(spec),
          table_(table),
          // NormalizedMinSum in hardware is a shift-add: we quantize the
          // factor to a multiple of 1/16 and apply it as (v*num) >> 4.
          norm_num_(static_cast<quant::QLLR>(std::lround(normalization * 16.0))),
          offset_raw_(quant::quantize(offset, spec)) {
        if (rule == CheckRule::Exact) {
            DVBS2_REQUIRE(table != nullptr, "Exact fixed rule needs a BoxplusTable");
            DVBS2_REQUIRE(table->spec() == spec, "BoxplusTable spec mismatch");
        }
    }

    const quant::QuantSpec& spec() const noexcept { return spec_; }

    /// Attaches (or detaches, with nullptr) a peak observer. The probe must
    /// outlive the arithmetic object while attached.
    void attach_probe(RangeProbe* probe) noexcept { probe_ = probe; }

    Value zero() const noexcept { return 0; }
    Value from_llr(double llr) const noexcept { return quant::quantize(llr, spec_); }
    Wide to_wide(Value v) const noexcept { return v; }
    Value narrow(Wide w) const noexcept {
        const Value v = quant::saturate(w, spec_);
        if (probe_) {
            probe_->see_wide(w);
            probe_->see_word(v);
        }
        return v;
    }
    bool is_negative(Wide w) const noexcept { return w < 0; }

    Value combine(Value a, Value b) const noexcept {
        return rule_ == CheckRule::Exact ? table_->boxplus(a, b)
                                         : quant::boxplus_minsum_raw(a, b);
    }

    Value finalize(Value v) const noexcept {
        Value out;
        switch (rule_) {
            case CheckRule::NormalizedMinSum: {
                // Round-to-nearest fixed scale; symmetric for ±v.
                const Wide scaled = v * norm_num_;
                const Wide rounded = scaled >= 0 ? (scaled + 8) >> 4 : -((-scaled + 8) >> 4);
                out = quant::saturate(rounded, spec_);
                break;
            }
            case CheckRule::OffsetMinSum: {
                const Value mag = (v < 0 ? -v : v) - offset_raw_;
                out = mag <= 0 ? Value(0) : (v < 0 ? -mag : mag);
                break;
            }
            default: out = v; break;
        }
        if (probe_) probe_->see_word(out);
        return out;
    }

private:
    CheckRule rule_;
    quant::QuantSpec spec_;
    const quant::BoxplusTable* table_;
    quant::QLLR norm_num_;
    quant::QLLR offset_raw_;
    RangeProbe* probe_ = nullptr;
};

}  // namespace dvbs2::core
