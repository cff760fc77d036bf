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
//   product sign  (a ^ b) >> (B−1)     (all-ones iff signs differ)
//
// The Exact rule's correction corr(|a±b|) is a table gather on 32-bit lanes.
// 16-bit lanes have no gather (AVX2 has none), so there it is a compare
// staircase derived from the same table (BoxplusTable::corr_thresholds):
// corr(x) = Σ_k [x < t_k], e.g. [x<1]+[x<4]+[x<9] for kQuant6.
#pragma once

#include "core/simd/vec.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"
#include "util/error.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

namespace dvbs2::core::simd {

/// Longest correction staircase (corr(0) = round(ln 2 / step) steps) the
/// 16-bit lanes evaluate. Each step costs two compares and two adds in
/// every Exact combine, on top of its 14 other operations (7 for the signed
/// minimum, 4 for |a ± b|, 3 to add the correction and saturate): 26
/// operations at kQuant6's 3 steps, 18 at kQuant5's one, against 7 for a
/// min-sum combine. Eight covers every quantizer with at most 3 fractional
/// bits (3 fractional bits take six steps); a finer quantizer runs 32-bit
/// lanes, whose table gather costs the same at any table length. The
/// length is read at run time: compiling the shipped lengths (1 and 3)
/// unrolled measured within noise on engine_waterfall and the service.
inline constexpr int kMaxCorrSteps = 8;

template <class V>
class LaneFixedArith {
public:
    using Value = typename V::reg;
    using Lane = typename V::lane_t;
    static constexpr int kSignShift = V::bits - 1;

    /// Mirrors FixedArith's constructor; `table` must outlive the object and
    /// is only required for CheckRule::Exact. On 16-bit lanes the caller
    /// must have proven every value fits (see SimdBatchFixedDecoder), and
    /// an Exact table's staircase must be at most kMaxCorrSteps long.
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
                const std::vector<quant::QLLR> t = table->corr_thresholds();
                DVBS2_REQUIRE(t.size() <= static_cast<std::size_t>(kMaxCorrSteps),
                              "correction staircase longer than kMaxCorrSteps");
                steps_ = static_cast<int>(t.size());
                for (int k = 0; k < steps_; ++k)
                    thresholds_[k] = V::broadcast(static_cast<Lane>(t[static_cast<std::size_t>(k)]));
            }
        }
    }

    /// Lane-wise symmetric saturation into [-max_raw, +max_raw].
    Value saturate(Value w) const { return V::min(V::max(w, lo_), hi_); }
    Value narrow(Value w) const { return saturate(w); }

    /// Lane-wise pairwise combine; bit-exact with FixedArith::combine.
    Value combine(Value a, Value b) const {
        const Value prod_sign = V::template srai<kSignShift>(V::xor_(a, b));
        const Value m = V::min(V::abs_(a), V::abs_(b));
        const Value signed_m = negate_if(m, prod_sign);
        if (rule_ != CheckRule::Exact) return signed_m;
        const Value sum_mag = V::abs_(V::add(a, b));
        const Value dif_mag = V::abs_(V::sub(a, b));
        return saturate(V::add(signed_m, corr_difference(sum_mag, dif_mag)));
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
        if constexpr (V::bits == 16) {
            // cmpgt(t, x) is −[x < t] per lane, so each step adds
            // [x < t] − [y < t] = cmpgt(t, y) − cmpgt(t, x).
            Value d = V::broadcast(0);
            for (int k = 0; k < steps_; ++k)
                d = V::add(d, V::sub(V::cmpgt(thresholds_[k], y), V::cmpgt(thresholds_[k], x)));
            return d;
        } else {
            return V::sub(corr(x), corr(y));
        }
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
    int steps_ = 0;                     // 16-bit lanes: the staircase
    Value thresholds_[kMaxCorrSteps]{};
};

}  // namespace dvbs2::core::simd
