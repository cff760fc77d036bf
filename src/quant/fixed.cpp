#include "quant/fixed.hpp"

#include <cmath>

namespace dvbs2::quant {

QLLR quantize(double llr, const QuantSpec& spec) noexcept {
    const double scaled = llr / spec.step();
    const double rounded = std::nearbyint(scaled);
    // Clamp in double first: a huge LLR (e.g. from a noiseless channel) must
    // not overflow the intermediate integer conversion.
    const double hi = static_cast<double>(spec.max_raw());
    const double clamped = scaled > hi ? hi : (rounded < -hi ? -hi : rounded);
    return static_cast<QLLR>(clamped > hi ? hi : clamped);
}

void validate_spec(const QuantSpec& spec) {
    DVBS2_REQUIRE(spec.total_bits >= 2 && spec.total_bits <= 16,
                  "quantizer total_bits must be in [2, 16], got " +
                      std::to_string(spec.total_bits));
    DVBS2_REQUIRE(spec.frac_bits >= 0 && spec.frac_bits < spec.total_bits,
                  "quantizer frac_bits must be in [0, total_bits), got frac_bits=" +
                      std::to_string(spec.frac_bits) + " with total_bits=" +
                      std::to_string(spec.total_bits));
}

BoxplusTable::BoxplusTable(const QuantSpec& spec) : spec_(spec) {
    validate_spec(spec);
    // |a±b| ranges up to 2·max_raw; beyond the point where the correction
    // rounds to zero the table is not needed.
    const QLLR max = spec.max_raw();
    const std::size_t len = static_cast<std::size_t>(2 * max + 1);
    table_.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
        const double x = static_cast<double>(i) * spec.step();
        table_[i] = static_cast<QLLR>(std::nearbyint(std::log1p(std::exp(-x)) / spec.step()));
    }
    if (spec.total_bits > 8) return;
    // Every result is saturated to ±max_raw ≤ 127, so int8 holds it.
    stride_ = 2 * max + 1;
    center_ = max * stride_ + max;
    pairs_.resize(static_cast<std::size_t>(stride_) * static_cast<std::size_t>(stride_));
    for (QLLR a = -max; a <= max; ++a)
        for (QLLR b = -max; b <= max; ++b)
            pairs_[static_cast<std::size_t>(center_ + a * stride_ + b)] =
                static_cast<std::int8_t>(formula(a, b));
}

QLLR BoxplusTable::formula(QLLR a, QLLR b) const noexcept {
    const QLLR mag_a = a < 0 ? -a : a;
    const QLLR mag_b = b < 0 ? -b : b;
    const QLLR m = mag_a < mag_b ? mag_a : mag_b;
    const QLLR signed_m = ((a < 0) != (b < 0)) ? -m : m;
    const QLLR sum_mag = (a + b) < 0 ? -(a + b) : (a + b);
    const QLLR dif_mag = (a - b) < 0 ? -(a - b) : (a - b);
    return saturate(signed_m + corr(sum_mag) - corr(dif_mag), spec_);
}

}  // namespace dvbs2::quant
