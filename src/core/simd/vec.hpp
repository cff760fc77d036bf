// Portable fixed-width integer vector layer for the SIMD decoder backend.
//
// Each backend exposes the same static interface over a register of
// `width` lanes of `lane_t` (`bits` wide): loads/stores, saturating-add
// building blocks (add/sub/min/max/abs), sign manipulation
// (xor/and/or/srai/cmpgt, and sign_: a·sgn(b) per lane, SSSE3's psign), a
// multiply for the normalized-min-sum scale, a lane sign mask (sign_bits:
// bit l = lane l's sign, the frame-per-lane decoder's sign plane), and the
// boxplus correction LUT: a gather on 32-bit lanes, and on 16-bit lanes a
// 16-entry byte-shuffle lookup (lut16/lookup_diff). Every backend comes in
// two lane widths: int32 (the raw quantized-LLR type, ActiveVec) and int16
// (ActiveVec16, twice the lanes per register; the frame-per-lane decoder
// runs it when the range certificate proves every value fits). Add/sub/
// mullo wrap modulo the lane width like the intrinsics, so a chain of them
// is exact whenever its result fits.
//
// lookup_diff(t, x, y) returns t[min(x,15)] − t[min(y,15)] per lane for
// x, y >= 0 and entries t[i] in [0, 255]. The shuffles index bytes: a
// clamped index's low byte selects t[idx] and its high byte, 0, selects
// t[0], so each lookup reads t[0]·256 + t[idx] and the two t[0]·256 terms
// cancel in the subtraction.
// The backend is chosen at configure time (CMake option DVBS2_SIMD → one
// DVBS2_SIMD_* macro); only the two SIMD engine TUs (simd_decoder.cpp,
// batch_decoder.cpp) and the staging quantizer (quantize.cpp) include this
// header, so the rest of the tree builds without target-specific compiler
// flags.
//
// Every operation is integer-exact, so any backend produces bit-identical
// messages; the scalar fallback doubles as the reference for platforms
// without intrinsics.
#pragma once

#include <cstdint>

#if !defined(DVBS2_SIMD_AVX2) && !defined(DVBS2_SIMD_SSE4) && !defined(DVBS2_SIMD_NEON) && \
    !defined(DVBS2_SIMD_SCALAR)
#define DVBS2_SIMD_SCALAR
#endif

#if defined(DVBS2_SIMD_AVX2) || defined(DVBS2_SIMD_SSE4)
#include <immintrin.h>
#elif defined(DVBS2_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace dvbs2::core::simd {

/// Reference backend: plain lane loops the compiler may auto-vectorize.
/// `W` is a power of two dividing the group parallelism handled in blocks;
/// `T` is the lane type (int32 or int16). Results are cast back to `T`, so
/// 16-bit lanes wrap exactly like the intrinsics.
template <int W, class T = std::int32_t>
struct VecScalar {
    using lane_t = T;
    static constexpr int width = W;
    static constexpr int bits = 8 * static_cast<int>(sizeof(T));
    struct reg {
        T lane[W];
    };

    static reg load(const T* p) {
        reg r;
        for (int i = 0; i < W; ++i) r.lane[i] = p[i];
        return r;
    }
    static void store(T* p, reg v) {
        for (int i = 0; i < W; ++i) p[i] = v.lane[i];
    }
    static reg broadcast(T x) {
        reg r;
        for (int i = 0; i < W; ++i) r.lane[i] = x;
        return r;
    }
    static reg add(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] = static_cast<T>(a.lane[i] + b.lane[i]);
        return a;
    }
    static reg sub(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] = static_cast<T>(a.lane[i] - b.lane[i]);
        return a;
    }
    static reg min(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
        return a;
    }
    static reg max(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
        return a;
    }
    static reg abs_(reg a) {
        for (int i = 0; i < W; ++i) a.lane[i] = static_cast<T>(a.lane[i] < 0 ? -a.lane[i] : a.lane[i]);
        return a;
    }
    static reg xor_(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] ^= b.lane[i];
        return a;
    }
    static reg and_(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] &= b.lane[i];
        return a;
    }
    static reg or_(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] |= b.lane[i];
        return a;
    }
    static reg mullo(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] = static_cast<T>(a.lane[i] * b.lane[i]);
        return a;
    }
    template <int K>
    static reg srai(reg a) {
        for (int i = 0; i < W; ++i) a.lane[i] = static_cast<T>(a.lane[i] >> K);
        return a;
    }
    /// Per-lane all-ones where a > b, zero elsewhere.
    static reg cmpgt(reg a, reg b) {
        for (int i = 0; i < W; ++i) a.lane[i] = a.lane[i] > b.lane[i] ? T(-1) : T(0);
        return a;
    }
    /// Per lane a·sgn(b): a where b > 0, −a where b < 0, 0 where b = 0.
    static reg sign_(reg a, reg b) {
        for (int i = 0; i < W; ++i) {
            if (b.lane[i] < 0) a.lane[i] = static_cast<T>(-a.lane[i]);
            else if (b.lane[i] == 0) a.lane[i] = 0;
        }
        return a;
    }
    static reg gather(const T* base, reg idx) {
        reg r;
        for (int i = 0; i < W; ++i) r.lane[i] = base[idx.lane[i]];
        return r;
    }
    /// The 16-entry table of lookup_diff, entry i in lane i.
    static reg lut16(const std::uint8_t* t) {
        static_assert(W >= 16, "lut16 keeps one entry per lane");
        reg r = broadcast(0);
        for (int i = 0; i < 16; ++i) r.lane[i] = static_cast<T>(t[i]);
        return r;
    }
    /// Per lane t[min(x,15)] − t[min(y,15)], for x, y >= 0.
    static reg lookup_diff(reg t, reg x, reg y) {
        for (int i = 0; i < W; ++i)
            x.lane[i] = static_cast<T>(t.lane[x.lane[i] < 15 ? x.lane[i] : 15] -
                                       t.lane[y.lane[i] < 15 ? y.lane[i] : 15]);
        return x;
    }
    /// Bit l set iff lane l is negative.
    static std::uint32_t sign_bits(reg a) {
        std::uint32_t m = 0;
        for (int i = 0; i < W; ++i) m |= static_cast<std::uint32_t>(a.lane[i] < 0) << i;
        return m;
    }
};

#if defined(DVBS2_SIMD_AVX2)

struct VecAvx2 {
    using lane_t = std::int32_t;
    static constexpr int width = 8;
    static constexpr int bits = 32;
    using reg = __m256i;

    static reg load(const std::int32_t* p) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static void store(std::int32_t* p, reg v) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    static reg broadcast(std::int32_t x) { return _mm256_set1_epi32(x); }
    static reg add(reg a, reg b) { return _mm256_add_epi32(a, b); }
    static reg sub(reg a, reg b) { return _mm256_sub_epi32(a, b); }
    static reg min(reg a, reg b) { return _mm256_min_epi32(a, b); }
    static reg max(reg a, reg b) { return _mm256_max_epi32(a, b); }
    static reg abs_(reg a) { return _mm256_abs_epi32(a); }
    static reg xor_(reg a, reg b) { return _mm256_xor_si256(a, b); }
    static reg and_(reg a, reg b) { return _mm256_and_si256(a, b); }
    static reg or_(reg a, reg b) { return _mm256_or_si256(a, b); }
    static reg mullo(reg a, reg b) { return _mm256_mullo_epi32(a, b); }
    template <int K>
    static reg srai(reg a) {
        return _mm256_srai_epi32(a, K);
    }
    static reg cmpgt(reg a, reg b) { return _mm256_cmpgt_epi32(a, b); }
    static reg sign_(reg a, reg b) { return _mm256_sign_epi32(a, b); }
    static reg gather(const std::int32_t* base, reg idx) {
        return _mm256_i32gather_epi32(base, idx, 4);
    }
    static std::uint32_t sign_bits(reg a) {
        return static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(a)));
    }
};

/// 16 lanes of int16. AVX2 has no 16-bit gather; the Exact-rule
/// correction is a byte shuffle of a 16-entry table on these lanes instead.
struct VecAvx2I16 {
    using lane_t = std::int16_t;
    static constexpr int width = 16;
    static constexpr int bits = 16;
    using reg = __m256i;

    static reg load(const std::int16_t* p) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static void store(std::int16_t* p, reg v) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    static reg broadcast(std::int16_t x) { return _mm256_set1_epi16(x); }
    static reg add(reg a, reg b) { return _mm256_add_epi16(a, b); }
    static reg sub(reg a, reg b) { return _mm256_sub_epi16(a, b); }
    static reg min(reg a, reg b) { return _mm256_min_epi16(a, b); }
    static reg max(reg a, reg b) { return _mm256_max_epi16(a, b); }
    static reg abs_(reg a) { return _mm256_abs_epi16(a); }
    static reg xor_(reg a, reg b) { return _mm256_xor_si256(a, b); }
    static reg and_(reg a, reg b) { return _mm256_and_si256(a, b); }
    static reg or_(reg a, reg b) { return _mm256_or_si256(a, b); }
    static reg mullo(reg a, reg b) { return _mm256_mullo_epi16(a, b); }
    template <int K>
    static reg srai(reg a) {
        return _mm256_srai_epi16(a, K);
    }
    static reg cmpgt(reg a, reg b) { return _mm256_cmpgt_epi16(a, b); }
    static reg sign_(reg a, reg b) { return _mm256_sign_epi16(a, b); }
    /// The table in both 128-bit halves: vpshufb looks up within each half.
    static reg lut16(const std::uint8_t* t) {
        return _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
    }
    static reg lookup_diff(reg t, reg x, reg y) {
        const reg top = _mm256_set1_epi16(15);
        return _mm256_sub_epi16(_mm256_shuffle_epi8(t, _mm256_min_epi16(x, top)),
                                _mm256_shuffle_epi8(t, _mm256_min_epi16(y, top)));
    }
    /// The saturating pack keeps each lane's sign in one byte, in lane order.
    static std::uint32_t sign_bits(reg a) {
        const __m128i packed =
            _mm_packs_epi16(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
        return static_cast<std::uint32_t>(_mm_movemask_epi8(packed));
    }
};

using ActiveVec = VecAvx2;
using ActiveVec16 = VecAvx2I16;
inline constexpr const char* kBackendName = "avx2";

#elif defined(DVBS2_SIMD_SSE4)

struct VecSse41 {
    using lane_t = std::int32_t;
    static constexpr int width = 4;
    static constexpr int bits = 32;
    using reg = __m128i;

    static reg load(const std::int32_t* p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    }
    static void store(std::int32_t* p, reg v) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }
    static reg broadcast(std::int32_t x) { return _mm_set1_epi32(x); }
    static reg add(reg a, reg b) { return _mm_add_epi32(a, b); }
    static reg sub(reg a, reg b) { return _mm_sub_epi32(a, b); }
    static reg min(reg a, reg b) { return _mm_min_epi32(a, b); }
    static reg max(reg a, reg b) { return _mm_max_epi32(a, b); }
    static reg abs_(reg a) { return _mm_abs_epi32(a); }
    static reg xor_(reg a, reg b) { return _mm_xor_si128(a, b); }
    static reg and_(reg a, reg b) { return _mm_and_si128(a, b); }
    static reg or_(reg a, reg b) { return _mm_or_si128(a, b); }
    static reg mullo(reg a, reg b) { return _mm_mullo_epi32(a, b); }
    template <int K>
    static reg srai(reg a) {
        return _mm_srai_epi32(a, K);
    }
    static reg cmpgt(reg a, reg b) { return _mm_cmpgt_epi32(a, b); }
    static reg sign_(reg a, reg b) { return _mm_sign_epi32(a, b); }
    /// SSE4.1 has no gather instruction; emulate with lane loads.
    static reg gather(const std::int32_t* base, reg idx) {
        alignas(16) std::int32_t i[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(i), idx);
        return _mm_setr_epi32(base[i[0]], base[i[1]], base[i[2]], base[i[3]]);
    }
    static std::uint32_t sign_bits(reg a) {
        return static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(a)));
    }
};

/// 8 lanes of int16 (SSE2/SSSE3 instructions, all within SSE4.1).
struct VecSse41I16 {
    using lane_t = std::int16_t;
    static constexpr int width = 8;
    static constexpr int bits = 16;
    using reg = __m128i;

    static reg load(const std::int16_t* p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    }
    static void store(std::int16_t* p, reg v) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }
    static reg broadcast(std::int16_t x) { return _mm_set1_epi16(x); }
    static reg add(reg a, reg b) { return _mm_add_epi16(a, b); }
    static reg sub(reg a, reg b) { return _mm_sub_epi16(a, b); }
    static reg min(reg a, reg b) { return _mm_min_epi16(a, b); }
    static reg max(reg a, reg b) { return _mm_max_epi16(a, b); }
    static reg abs_(reg a) { return _mm_abs_epi16(a); }
    static reg xor_(reg a, reg b) { return _mm_xor_si128(a, b); }
    static reg and_(reg a, reg b) { return _mm_and_si128(a, b); }
    static reg or_(reg a, reg b) { return _mm_or_si128(a, b); }
    static reg mullo(reg a, reg b) { return _mm_mullo_epi16(a, b); }
    template <int K>
    static reg srai(reg a) {
        return _mm_srai_epi16(a, K);
    }
    static reg cmpgt(reg a, reg b) { return _mm_cmpgt_epi16(a, b); }
    static reg sign_(reg a, reg b) { return _mm_sign_epi16(a, b); }
    static reg lut16(const std::uint8_t* t) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(t));
    }
    static reg lookup_diff(reg t, reg x, reg y) {
        const reg top = _mm_set1_epi16(15);
        return _mm_sub_epi16(_mm_shuffle_epi8(t, _mm_min_epi16(x, top)),
                             _mm_shuffle_epi8(t, _mm_min_epi16(y, top)));
    }
    static std::uint32_t sign_bits(reg a) {
        return static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_packs_epi16(a, a))) & 0xFFu;
    }
};

using ActiveVec = VecSse41;
using ActiveVec16 = VecSse41I16;
inline constexpr const char* kBackendName = "sse4";

#elif defined(DVBS2_SIMD_NEON)

struct VecNeon {
    using lane_t = std::int32_t;
    static constexpr int width = 4;
    static constexpr int bits = 32;
    using reg = int32x4_t;

    static reg load(const std::int32_t* p) { return vld1q_s32(p); }
    static void store(std::int32_t* p, reg v) { vst1q_s32(p, v); }
    static reg broadcast(std::int32_t x) { return vdupq_n_s32(x); }
    static reg add(reg a, reg b) { return vaddq_s32(a, b); }
    static reg sub(reg a, reg b) { return vsubq_s32(a, b); }
    static reg min(reg a, reg b) { return vminq_s32(a, b); }
    static reg max(reg a, reg b) { return vmaxq_s32(a, b); }
    static reg abs_(reg a) { return vabsq_s32(a); }
    static reg xor_(reg a, reg b) { return veorq_s32(a, b); }
    static reg and_(reg a, reg b) { return vandq_s32(a, b); }
    static reg or_(reg a, reg b) { return vorrq_s32(a, b); }
    static reg mullo(reg a, reg b) { return vmulq_s32(a, b); }
    template <int K>
    static reg srai(reg a) {
        return vshrq_n_s32(a, K);
    }
    static reg cmpgt(reg a, reg b) {
        return vreinterpretq_s32_u32(vcgtq_s32(a, b));
    }
    /// NEON has no psign: multiply by sgn(b) = (b < 0 mask) − (b > 0 mask),
    /// each mask −1 where it holds.
    static reg sign_(reg a, reg b) {
        return vmulq_s32(a, vsubq_s32(vreinterpretq_s32_u32(vcltzq_s32(b)),
                                      vreinterpretq_s32_u32(vcgtzq_s32(b))));
    }
    /// NEON has no gather; emulate with lane loads.
    static reg gather(const std::int32_t* base, reg idx) {
        alignas(16) std::int32_t i[4];
        vst1q_s32(i, idx);
        const std::int32_t v[4] = {base[i[0]], base[i[1]], base[i[2]], base[i[3]]};
        return vld1q_s32(v);
    }
    /// Shift each sign down to bit 0, then to bit l, and add across lanes.
    static std::uint32_t sign_bits(reg a) {
        static constexpr std::int32_t kPos[4] = {0, 1, 2, 3};
        const uint32x4_t sign = vshrq_n_u32(vreinterpretq_u32_s32(a), 31);
        return vaddvq_u32(vshlq_u32(sign, vld1q_s32(kPos)));
    }
};

/// 8 lanes of int16.
struct VecNeonI16 {
    using lane_t = std::int16_t;
    static constexpr int width = 8;
    static constexpr int bits = 16;
    using reg = int16x8_t;

    static reg load(const std::int16_t* p) { return vld1q_s16(p); }
    static void store(std::int16_t* p, reg v) { vst1q_s16(p, v); }
    static reg broadcast(std::int16_t x) { return vdupq_n_s16(x); }
    static reg add(reg a, reg b) { return vaddq_s16(a, b); }
    static reg sub(reg a, reg b) { return vsubq_s16(a, b); }
    static reg min(reg a, reg b) { return vminq_s16(a, b); }
    static reg max(reg a, reg b) { return vmaxq_s16(a, b); }
    static reg abs_(reg a) { return vabsq_s16(a); }
    static reg xor_(reg a, reg b) { return veorq_s16(a, b); }
    static reg and_(reg a, reg b) { return vandq_s16(a, b); }
    static reg or_(reg a, reg b) { return vorrq_s16(a, b); }
    static reg mullo(reg a, reg b) { return vmulq_s16(a, b); }
    template <int K>
    static reg srai(reg a) {
        return vshrq_n_s16(a, K);
    }
    static reg cmpgt(reg a, reg b) {
        return vreinterpretq_s16_u16(vcgtq_s16(a, b));
    }
    static reg sign_(reg a, reg b) {
        return vmulq_s16(a, vsubq_s16(vreinterpretq_s16_u16(vcltzq_s16(b)),
                                      vreinterpretq_s16_u16(vcgtzq_s16(b))));
    }
    static reg lut16(const std::uint8_t* t) { return vreinterpretq_s16_u8(vld1q_u8(t)); }
    /// tbl returns the byte of each index, like pshufb.
    static reg lookup_diff(reg t, reg x, reg y) {
        const uint8x16_t table = vreinterpretq_u8_s16(t);
        const reg top = vdupq_n_s16(15);
        const uint8x16_t lx = vqtbl1q_u8(table, vreinterpretq_u8_s16(vminq_s16(x, top)));
        const uint8x16_t ly = vqtbl1q_u8(table, vreinterpretq_u8_s16(vminq_s16(y, top)));
        return vsubq_s16(vreinterpretq_s16_u8(lx), vreinterpretq_s16_u8(ly));
    }
    static std::uint32_t sign_bits(reg a) {
        static constexpr std::int16_t kPos[8] = {0, 1, 2, 3, 4, 5, 6, 7};
        const uint16x8_t sign = vshrq_n_u16(vreinterpretq_u16_s16(a), 15);
        return vaddvq_u16(vshlq_u16(sign, vld1q_s16(kPos)));
    }
};

using ActiveVec = VecNeon;
using ActiveVec16 = VecNeonI16;
inline constexpr const char* kBackendName = "neon";

#else

using ActiveVec = VecScalar<8>;
using ActiveVec16 = VecScalar<16, std::int16_t>;
inline constexpr const char* kBackendName = "scalar";

#endif

}  // namespace dvbs2::core::simd
