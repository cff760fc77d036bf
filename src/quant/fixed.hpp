// Fixed-point LLR arithmetic for the bit-accurate decoder model.
//
// The paper (Sec. 2.1, citing Zhang/Wang/Parhi) uses a 6-bit quantization of
// channel values and exchanged messages (0.1 dB loss) and mentions the 5-bit
// alternative. We model messages as symmetric two's-complement integers with
// a configurable total width and number of fractional bits; all datapath
// operations (saturating add, boxplus, min-sum) are integer-exact so the
// algorithmic fixed-point decoder and the cycle-driven architecture model
// produce bit-identical results.
//
// The Exact boxplus (Eq. 5) is a table read, as in the paper's functional
// units: BoxplusTable holds the correction ROM corr(x) and, for words of at
// most 8 bits, a pair ROM of the whole operator over every pair of stored
// words, filled once from the formula at construction (in this target-generic
// file). Wider words evaluate the formula per call.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace dvbs2::quant {

/// Raw integer representation of a quantized LLR. 32 bits so that wide
/// variable-node accumulations never overflow before explicit saturation.
using QLLR = std::int32_t;

/// Describes a uniform symmetric quantizer: `total_bits` including sign,
/// `frac_bits` fractional bits. Representable raw range is
/// [-(2^(total-1)-1), +(2^(total-1)-1)] (symmetric, as LLR datapaths use);
/// real value = raw * 2^-frac_bits.
struct QuantSpec {
    int total_bits = 6;
    int frac_bits = 2;

    /// Largest positive raw value.
    constexpr QLLR max_raw() const noexcept { return (QLLR{1} << (total_bits - 1)) - 1; }
    /// Most negative raw value (symmetric saturation).
    constexpr QLLR min_raw() const noexcept { return -max_raw(); }
    /// Quantization step in LLR units.
    constexpr double step() const noexcept { return 1.0 / static_cast<double>(QLLR{1} << frac_bits); }
    /// Largest representable LLR magnitude.
    constexpr double max_value() const noexcept { return static_cast<double>(max_raw()) * step(); }

    friend constexpr bool operator==(const QuantSpec&, const QuantSpec&) = default;
};

/// The paper's default message quantization: 6 bits, 2 fractional → ±7.75.
inline constexpr QuantSpec kQuant6{6, 2};
/// The 5-bit alternative discussed in Sec. 2.1: 5 bits, 1 fractional → ±7.5.
inline constexpr QuantSpec kQuant5{5, 1};

/// Validates a quantizer spec, throwing std::runtime_error with a diagnostic
/// naming the offending field (`total_bits` / `frac_bits`) on violation.
/// BoxplusTable construction and core::validate_engine_spec both route
/// through this, so every fixed-point entry point rejects the same specs.
void validate_spec(const QuantSpec& spec);

/// Saturates a wide intermediate value into the representable raw range.
constexpr QLLR saturate(QLLR wide, const QuantSpec& spec) noexcept {
    const QLLR hi = spec.max_raw();
    if (wide > hi) return hi;
    if (wide < -hi) return -hi;
    return wide;
}

/// Quantizes a real LLR: round-to-nearest then saturate.
QLLR quantize(double llr, const QuantSpec& spec) noexcept;

/// Real value of a raw quantized LLR.
constexpr double dequantize(QLLR raw, const QuantSpec& spec) noexcept {
    return static_cast<double>(raw) * spec.step();
}

/// Saturating addition in the message domain.
constexpr QLLR sat_add(QLLR a, QLLR b, const QuantSpec& spec) noexcept {
    return saturate(a + b, spec);
}

/// Integer-exact pairwise boxplus (Eq. 5):
///   a ⊞ b = sat(sign(a)sign(b)·min(|a|,|b|) + corr(|a+b|) − corr(|a−b|)),
/// where corr(x) = round(log1p(exp(−x·step)) / step) is the correction ROM a
/// hardware functional unit reads. For specs of at most 8 bits the
/// constructor also evaluates the formula for every pair of stored words into
/// a pair ROM of int8 results, (2·max_raw + 1)² entries (3,969 bytes for
/// kQuant6, 65,025 at 8 bits), so boxplus() is one table read; wider specs
/// evaluate the formula per call. A table instance is tied to one QuantSpec.
class BoxplusTable {
public:
    explicit BoxplusTable(const QuantSpec& spec);

    const QuantSpec& spec() const noexcept { return spec_; }

    /// Correction term for a raw magnitude (saturates the index into the
    /// table, correction is 0 beyond it).
    QLLR corr(QLLR raw_magnitude) const noexcept {
        const auto idx = static_cast<std::size_t>(raw_magnitude);
        return idx < table_.size() ? table_[idx] : 0;
    }

    /// Pairwise boxplus of two stored words, each in [−max_raw, max_raw]
    /// (checked in debug builds: a word outside would read past the ROM).
    QLLR boxplus(QLLR a, QLLR b) const noexcept {
        DVBS2_ASSERT(a >= -spec_.max_raw() && a <= spec_.max_raw() &&
                     b >= -spec_.max_raw() && b <= spec_.max_raw());
        if (pairs_.empty()) return formula(a, b);
        return pairs_[static_cast<std::size_t>(center_ + a * stride_ + b)];
    }

    /// Raw table access for vectorized gathers (core/simd): `corr_data()[i]`
    /// equals `corr(i)` for i < corr_size(), and corr is 0 beyond that.
    const QLLR* corr_data() const noexcept { return table_.data(); }
    std::size_t corr_size() const noexcept { return table_.size(); }

private:
    /// Eq. 5 evaluated from corr(): the pair ROM's contents, and boxplus()
    /// for specs wider than 8 bits.
    QLLR formula(QLLR a, QLLR b) const noexcept;

    QuantSpec spec_;
    std::vector<QLLR> table_;         // corr indexed by raw magnitude
    std::vector<std::int8_t> pairs_;  // a ⊞ b at center_ + a·stride_ + b; empty past 8 bits
    QLLR stride_ = 0;                 // 2·max_raw + 1
    QLLR center_ = 0;                 // index of 0 ⊞ 0: max_raw·stride_ + max_raw
};

/// Min-sum pairwise combine on raw messages (no table needed).
constexpr QLLR boxplus_minsum_raw(QLLR a, QLLR b) noexcept {
    const QLLR mag_a = a < 0 ? -a : a;
    const QLLR mag_b = b < 0 ? -b : b;
    const QLLR m = mag_a < mag_b ? mag_a : mag_b;
    return ((a < 0) != (b < 0)) ? -m : m;
}

}  // namespace dvbs2::quant
