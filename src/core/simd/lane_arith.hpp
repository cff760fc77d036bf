// Lane-parallel fixed-point check-node arithmetic.
//
// `LaneFixedArith<V>` performs, in every vector lane, exactly the integer
// operations of core/arith.hpp's FixedArith — same saturation bounds, same
// correction-LUT boxplus, same rounding in the min-sum finalizers — so a
// lane's message stream is bit-identical to the scalar decoder's. The class
// satisfies the `Arith` concept of core/kernels.hpp (Value + combine), which
// lets the SIMD decoder reuse compute_extrinsics verbatim: the per-check-node
// serial prefix/suffix recursion is unchanged, only the independent check
// nodes of a group are spread across lanes.
//
// Sign tricks used throughout (two's complement, lanes of B = V::bits
// bits, int32 or int16):
//   sign mask   m = v >> (B−1)         (all-ones iff v < 0)
//   negate-if   (x ^ m) - m            (x if m == 0, -x if m == all-ones)
//   sign copy   sign_(x, v) = x·sgn(v) (psign; 0 where v = 0)
//
// The Exact rule's correction corr(|a+b|) − corr(|a−b|) is a table gather
// on 32-bit lanes. 16-bit lanes have no gather (AVX2 has none), so there it
// is two 16-entry byte-shuffle lookups of the same table, indices clamped
// to 15 (V::lookup_diff): exact whenever corr is 0 from index 15 on, which
// frame_lane_bits (batch_decoder.cpp) requires before it picks 16 bits.
#pragma once

#include "core/simd/vec.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"
#include "util/error.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace dvbs2::core::simd {

/// Entries of the 16-bit lanes' correction lookup (one byte shuffle).
inline constexpr int kLookupEntries = 16;

/// True when corr is 0 from index kLookupEntries − 1 on, so clamping a
/// correction index to 15 leaves corr unchanged: the 16-bit lanes' Exact
/// rule needs this. It holds for every quantizer with at most 2 fractional
/// bits and for {4, 3}, whose table ends at index 14.
inline bool lookup_covers(const quant::BoxplusTable& table) {
    for (std::size_t x = kLookupEntries - 1; x < table.corr_size(); ++x)
        if (table.corr(static_cast<quant::QLLR>(x)) != 0) return false;
    return true;
}

template <class V>
class LaneFixedArith {
public:
    using Value = typename V::reg;
    using Lane = typename V::lane_t;
    static constexpr int kSignShift = V::bits - 1;

    /// Mirrors FixedArith's constructor; `table` must outlive the object and
    /// is only required for CheckRule::Exact. On 16-bit lanes the caller
    /// must have proven every value fits (see SimdBatchFixedDecoder), and
    /// an Exact table must be covered by the lookup (lookup_covers).
    LaneFixedArith(CheckRule rule, const quant::QuantSpec& spec, const quant::BoxplusTable* table,
                   double normalization, double offset)
        : rule_(rule),
          hi_(V::broadcast(static_cast<Lane>(spec.max_raw()))),
          lo_(V::broadcast(static_cast<Lane>(-spec.max_raw()))),
          norm_num_(static_cast<Lane>(std::lround(normalization * 16.0))),
          offset_raw_(static_cast<Lane>(quant::quantize(offset, spec))),
          corr_data_(table != nullptr ? table->corr_data() : nullptr),
          corr_len_(table != nullptr ? static_cast<std::int32_t>(table->corr_size()) : 0) {
        if (rule == CheckRule::Exact) {
            DVBS2_REQUIRE(table != nullptr, "Exact fixed rule needs a BoxplusTable");
            DVBS2_REQUIRE(table->spec() == spec, "BoxplusTable spec mismatch");
            if constexpr (V::bits == 16) {
                DVBS2_REQUIRE(lookup_covers(*table),
                              "correction table not zero from index 15 on (16-bit lanes)");
                std::uint8_t t[kLookupEntries];
                for (int x = 0; x < kLookupEntries; ++x)
                    t[x] = static_cast<std::uint8_t>(table->corr(x));
                lut_ = V::lut16(t);
            }
        }
    }

    /// Lane-wise symmetric saturation into [-max_raw, +max_raw].
    Value saturate(Value w) const { return V::min(V::max(w, lo_), hi_); }
    Value narrow(Value w) const { return saturate(w); }

    /// Lane-wise pairwise combine of two words in [−max_raw, max_raw];
    /// bit-exact with FixedArith::combine. The signed minimum takes two sign
    /// copies (where a or b is 0 they give 0, and so does the minimum). The
    /// Exact result needs no saturation: corr never rises and corr(0) <=
    /// max_raw for every valid spec, so with equal signs the correction
    /// difference lies in [−corr(0), 0] and the result in [m − corr(0), m],
    /// and with opposite signs it mirrors that. 15 operations on 16-bit
    /// lanes (5 for the signed minimum, 4 for |a ± b|, 5 for the lookups,
    /// 1 to add), against 5 for a min-sum combine.
    Value combine(Value a, Value b) const {
        const Value m = V::min(V::abs_(a), V::abs_(b));
        const Value signed_m = V::sign_(V::sign_(m, a), b);
        if (rule_ != CheckRule::Exact) return signed_m;
        const Value sum_mag = V::abs_(V::add(a, b));
        const Value dif_mag = V::abs_(V::sub(a, b));
        return V::add(signed_m, corr_difference(sum_mag, dif_mag));
    }

    /// Lane-wise output post-processing; bit-exact with FixedArith::finalize.
    Value finalize(Value v) const {
        switch (rule_) {
            case CheckRule::NormalizedMinSum: {
                // rounded = scaled >= 0 ? (scaled+8)>>4 : -((-scaled+8)>>4)
                const Value scaled = V::mullo(v, V::broadcast(norm_num_));
                const Value m = V::template srai<kSignShift>(scaled);
                const Value mag = V::template srai<4>(V::add(negate_if(scaled, m), V::broadcast(8)));
                return saturate(negate_if(mag, m));
            }
            case CheckRule::OffsetMinSum: {
                // mag = |v| - offset; mag <= 0 ? 0 : copysign(mag, v)
                const Value mag = V::sub(V::abs_(v), V::broadcast(offset_raw_));
                const Value res = negate_if(mag, V::template srai<kSignShift>(v));
                return V::and_(res, V::cmpgt(mag, V::broadcast(0)));
            }
            default: return v;
        }
    }

private:
    static Value negate_if(Value x, Value mask) { return V::sub(V::xor_(x, mask), mask); }

    /// corr(x) − corr(y), lane-wise.
    Value corr_difference(Value x, Value y) const {
        if constexpr (V::bits == 16)
            return V::lookup_diff(lut_, x, y);
        else
            return V::sub(corr(x), corr(y));
    }

    /// Lane-wise correction lookup: table[idx] for idx < len, else 0. The
    /// gather index is clamped into bounds; out-of-range lanes are masked to
    /// zero afterwards (corr is identically 0 beyond the table).
    Value corr(Value idx) const {
        const Value len = V::broadcast(corr_len_);
        const Value safe = V::min(idx, V::broadcast(corr_len_ - 1));
        const Value val = V::gather(corr_data_, safe);
        return V::and_(val, V::cmpgt(len, idx));
    }

    CheckRule rule_;
    Value hi_, lo_;  // the saturation rails ±max_raw
    Lane norm_num_;
    Lane offset_raw_;
    const std::int32_t* corr_data_;  // 32-bit lanes: the gathered table
    std::int32_t corr_len_;
    Value lut_{};  // 16-bit lanes: corr(0..15) in V::lut16's layout
};

}  // namespace dvbs2::core::simd
