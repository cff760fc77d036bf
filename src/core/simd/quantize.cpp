// Vector channel quantizer: see quantize.hpp. On AVX2 the vector body
// handles whole registers of four doubles; the tail, and every other
// backend, go through quant::quantize itself.
#include "core/simd/quantize.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/simd/vec.hpp"  // selects the backend macro and its intrinsics

namespace dvbs2::core {

namespace {

/// The scalar reference on [i, n): quant::quantize, stopping at non-finite
/// input.
bool quantize_tail(const double* llr, std::size_t i, std::size_t n, const quant::QuantSpec& spec,
                   quant::QLLR* dst) noexcept {
    for (; i < n; ++i) {
        if (!std::isfinite(llr[i])) return false;
        dst[i] = quant::quantize(llr[i], spec);
    }
    return true;
}

}  // namespace

bool quantize_finite(std::span<const double> llr, const quant::QuantSpec& spec,
                     quant::QLLR* dst) noexcept {
    const std::size_t n = llr.size();
    const double* src = llr.data();
    std::size_t i = 0;
#if defined(DVBS2_SIMD_AVX2)
    const double scale = static_cast<double>(quant::QLLR{1} << spec.frac_bits);  // 1 / step()
    const double hi = static_cast<double>(spec.max_raw());
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d vhi = _mm256_set1_pd(hi);
    const __m256d vlo = _mm256_set1_pd(-hi);
    const __m256d vmax = _mm256_set1_pd(std::numeric_limits<double>::max());
    const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFF));
    __m256d bad = _mm256_setzero_pd();
    for (; i + 4 <= n; i += 4) {
        const __m256d x = _mm256_loadu_pd(src + i);
        // |x| > DBL_MAX or unordered: infinite or NaN
        bad = _mm256_or_pd(bad, _mm256_cmp_pd(_mm256_and_pd(x, abs_mask), vmax, _CMP_NLE_UQ));
        const __m256d r = _mm256_round_pd(_mm256_mul_pd(x, vscale),
                                          _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
        const __m256d c = _mm256_min_pd(_mm256_max_pd(r, vlo), vhi);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm256_cvtpd_epi32(c));
    }
    if (_mm256_movemask_pd(bad) != 0) return false;
#endif
    return quantize_tail(src, i, n, spec, dst);
}

}  // namespace dvbs2::core
