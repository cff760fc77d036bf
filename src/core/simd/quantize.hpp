// Vector channel quantizer of the fixed-point SIMD engines' staging routine
// (core::Engine::stage).
//
// Bit-exact with quant::quantize applied value by value, in every rounding
// mode: the LLR is scaled by 2^frac_bits (exact for a power of two), rounded
// in the current rounding mode like std::nearbyint, clamped to
// ±max_raw and converted. Only the AVX2 backend has a vector body; the
// others run quant::quantize itself. quantize.cpp is built with the SIMD
// backend's compiler flags (src/core/CMakeLists.txt), so only engines on
// the SIMD backend call it, and a binary that never selects that backend
// runs on any host of its architecture. This header is intrinsic-free.
#pragma once

#include <span>

#include "quant/fixed.hpp"

namespace dvbs2::core {

/// Writes quant::quantize(llr[i], spec) to dst[i] for every i and returns
/// true, or returns false, with dst partly written, if some llr[i] is NaN or
/// infinite (the caller's scalar loop then names the first such index).
bool quantize_finite(std::span<const double> llr, const quant::QuantSpec& spec,
                     quant::QLLR* dst) noexcept;

}  // namespace dvbs2::core
