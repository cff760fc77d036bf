// Frame-parallel SIMD fixed-point decoder (lane = frame).
//
// Strategy: instantiate the scalar reference schedule implementation
// (core/mp_decoder.hpp) with an arithmetic whose Value is a whole vector
// register — lane l carries frame l's message. The schedule's control flow
// (loop bounds, edge indices, boundary snapshots) depends only on the code
// structure, never on message values, so W frames advance through the exact
// scalar instruction sequence in lockstep and each lane reproduces the
// scalar decoder bit for bit. Because the message arrays are lane-major
// (vector<VecVal> indexed by edge), every message access the scalar
// schedule makes becomes a contiguous vector load/store: unlike the
// group-parallel engine, this mode needs no gather instructions for
// messages (32-bit lanes still gather the Exact rule's correction table;
// 16-bit lanes look it up with byte shuffles instead). The lane arithmetic
// asks MpDecoder for the fused variable phase, so no v2c array exists.
//
// Lane width: LaneBlock<V> is instantiated twice, on the backend's 16-bit
// and 32-bit vectors. The constructor picks one from the range certificate
// and, for the Exact rule, the correction table (frame_lane_bits); 16-bit
// lanes are exact because every value a lane ever holds is proven to fit,
// add/sub chains wrap modulo 2^16, so only their results need to, and the
// table is zero past the 16 entries their lookup holds.
//
// Early stopping is per lane. After each step in which some lane is due
// for its syndrome check, one sign mask per variable node (a movemask on
// x86) packs the W posterior signs into the sign plane, one 32-bit word per
// node. The lane-parallel syndrome (unsatisfied_lanes, the counterpart of
// core/syndrome.hpp) then XORs plane words along the check-major edge
// list, W lanes per 4-byte load, and a retiring lane's codeword is cut out
// of the plane 64 bits at a time. A converging lane freezes its result
// (codeword, iteration count) at its own stopping iteration while the
// remaining lanes keep iterating.
//
// Lane filling: each call splices its first frames straight into the
// decoder's lane columns of ch_in/ch_p (MpDecoder::state_view()) and then
// zeroes the message state once (MpDecoder::begin_in_place()); no
// lane-major copy of the channel is kept.
//
// Lane compaction (decode_stream): a retired lane is reset in place —
// zero its column of the cross-iteration message arrays, splice the next
// pending frame's channel into its column of ch_in/ch_p and of the
// posterior totals (post_prev of the fused reads, Layered's running
// totals). That reproduces exactly the per-lane state begin() builds for a
// fresh frame, so a frame decoded by a recycled lane is still bit-identical
// to its scalar decode; each lane carries its own iteration counter and
// result slot, so results land in input order.
#include "core/simd/batch_decoder.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/engine.hpp"
#include "core/mp_decoder.hpp"
#include "core/simd/lane_arith.hpp"
#include "core/simd/vec.hpp"
#include "util/error.hpp"

namespace dvbs2::core {

namespace detail {

/// The lane-width-independent face of the decoder; LaneBlock<V> implements
/// it once per lane width.
class BatchLanes {
public:
    virtual ~BatchLanes() = default;
    virtual int lanes() const noexcept = 0;
    virtual int lane_bits() const noexcept = 0;
    virtual void decode_into(std::span<const quant::QLLR> qllr, std::size_t frames,
                             DecodeResult* out) = 0;
    virtual void decode_stream(std::size_t frames, SimdBatchFixedDecoder::FrameSource source,
                               void* ctx, DecodeResult* out) = 0;
    virtual void run_iterations(std::span<const quant::QLLR> qllr, std::size_t frames,
                                int iters) = 0;
    virtual std::vector<quant::QLLR> c2v_messages(std::size_t frame) const = 0;
};

}  // namespace detail

namespace {

namespace sv = dvbs2::core::simd;
using quant::QLLR;

/// One vector register of W per-frame messages, with just enough operator
/// surface for MpDecoder's accumulations. The default constructor is
/// defaulted (not user-provided), so vector<VecVal>::resize value-
/// initializes to all-zero lanes like the scalar arrays, while stack arrays
/// stay default-initialized (no per-element zeroing in the hot loop).
template <class V>
struct VecVal {
    using Reg = typename V::reg;
    Reg r;
    VecVal() = default;
    VecVal(Reg x) : r(x) {}  // implicit: lane ops return raw registers
    friend VecVal operator+(VecVal a, VecVal b) { return V::add(a.r, b.r); }
    friend VecVal operator-(VecVal a, VecVal b) { return V::sub(a.r, b.r); }
    VecVal& operator+=(VecVal o) {
        r = V::add(r, o.r);
        return *this;
    }
};

/// Arith concept adapter: per-lane FixedArith semantics on VecVal. Only the
/// members the begin()/step() path instantiates exist meaningfully;
/// is_negative/from_llr are never instantiated on this arithmetic because
/// the batch engine hardens lanes itself.
template <class V>
class BatchLaneArith {
public:
    using Value = VecVal<V>;
    using Wide = VecVal<V>;
    /// MpDecoder fuses the variable phase into the check phase (no v2c
    /// array, no strided variable pass).
    static constexpr bool kFusedVariablePhase = true;

    BatchLaneArith(CheckRule rule, const quant::QuantSpec& spec,
                   const quant::BoxplusTable* table, double normalization, double offset)
        : lanes_(rule, spec, table, normalization, offset) {}

    Value zero() const { return Value(V::broadcast(0)); }
    Wide to_wide(Value v) const { return v; }
    Value narrow(Wide w) const { return lanes_.narrow(w.r); }
    Value combine(Value a, Value b) const { return lanes_.combine(a.r, b.r); }
    Value finalize(Value v) const { return lanes_.finalize(v.r); }

private:
    sv::LaneFixedArith<V> lanes_;
};

constexpr long long kLane16Max = std::numeric_limits<std::int16_t>::max();

/// The lane-width rule of SimdBatchFixedDecoder's constructor: 16 when the
/// certificate proves every value a lane computes fits int16 and an Exact
/// rule's correction table fits the 16-entry lookup, else 32.
int frame_lane_bits(const code::Dvbs2Code& code, const DecoderConfig& cfg,
                    const quant::QuantSpec& spec) {
    const analysis::ir::RangeCertificate cert =
        engine_range_certificate(EngineSpec{Arithmetic::Fixed, cfg, spec});
    if (!cert.ok || !range_certificate_covers(code)) return 32;
    for (const analysis::ir::StageBound& st : cert.stages)
        if (st.worst > kLane16Max) return 32;
    for (const long long b : cert.space_bound)
        if (b > kLane16Max) return 32;
    // the combine's correction index |a ± b| of two stored words
    if (2LL * spec.max_raw() > kLane16Max) return 32;
    // the Exact correction's 16-entry byte-shuffle lookup
    if (cfg.rule == CheckRule::Exact && !sv::lookup_covers(quant::BoxplusTable(spec))) return 32;
    return 16;
}

template <class V>
class LaneBlock final : public detail::BatchLanes {
public:
    using Val = VecVal<V>;
    using Reg = typename V::reg;
    using Lane = typename V::lane_t;
    static constexpr int W = V::width;
    static_assert(W <= 32, "a sign-plane word holds one bit per lane");

    LaneBlock(const code::Dvbs2Code& code, const DecoderConfig& cfg, const quant::QuantSpec& spec)
        : code_(&code),
          cfg_(cfg),
          table_(spec),
          mp_(code, cfg,
              BatchLaneArith<V>(cfg.rule, spec, cfg.rule == CheckRule::Exact ? &table_ : nullptr,
                                cfg.normalization, cfg.offset)) {
        const auto n = static_cast<std::size_t>(code.params().n);
        stage_.resize(n);
        plane_.resize(n);
    }

    int lanes() const noexcept override { return W; }
    int lane_bits() const noexcept override { return V::bits; }

    /// One lane's selector: all-ones in lane l (`one`), and its complement.
    /// Splicing through masks keeps every register in vector form; a
    /// store/patch/reload per word would stall on store forwarding.
    struct LaneMask {
        Reg one, rest;
    };
    static LaneMask lane_mask(std::size_t l) {
        Lane sel[W] = {};
        sel[l] = static_cast<Lane>(-1);
        const Reg one = V::load(sel);
        return {one, V::xor_(one, V::broadcast(static_cast<Lane>(-1)))};
    }

    /// Overwrites lane l of one vector value.
    static void set_lane(Val& v, const LaneMask& lm, QLLR x) {
        v.r = V::or_(V::and_(v.r, lm.rest), V::and_(V::broadcast(static_cast<Lane>(x)), lm.one));
    }

    static void zero_lane(std::span<Val> vals, const LaneMask& lm) {
        for (Val& v : vals) v.r = V::and_(v.r, lm.rest);
    }

    /// Splices `frame` into one lane's column of the channel (ch_in/ch_p)
    /// and, with `totals`, of the posterior totals (post_in/post_p) too.
    void splice_frame(const LaneMask& lm, const QLLR* frame, bool totals) {
        auto st = mp_.state_view();
        const std::size_t k = st.ch_in.size();
        for (std::size_t v = 0; v < k; ++v) {
            set_lane(st.ch_in[v], lm, frame[v]);
            if (totals) set_lane(st.post_in[v], lm, frame[v]);
        }
        for (std::size_t j = 0; j < st.ch_p.size(); ++j) {
            set_lane(st.ch_p[j], lm, frame[k + j]);
            if (totals) set_lane(st.post_p[j], lm, frame[k + j]);
        }
    }

    /// Splices frames 0..count of `source` into lanes 0..count and restarts
    /// the decoder from the channel: message state zero, posterior totals
    /// equal to the channel. Surplus lanes keep the channel a previous call
    /// left behind (always in-range quantized values, or the zeros of
    /// construction); they compute in lockstep but are never read out.
    void fill_lanes(std::size_t count, SimdBatchFixedDecoder::FrameSource source, void* ctx) {
        for (std::size_t l = 0; l < count; ++l) {
            source(ctx, l, stage_.data());
            splice_frame(lane_mask(l), stage_.data(), /*totals=*/false);
        }
        mp_.begin_in_place();
    }

    /// Resets lane `l` in place for a fresh frame (lane compaction): zero
    /// its column of every cross-iteration message array and splice the new
    /// channel into its column of ch_in/ch_p and of the posterior totals —
    /// exactly the per-lane state begin() builds. See
    /// MpDecoder::state_view() for why the scratch arrays need no reset.
    void reset_lane(std::size_t l, const QLLR* frame) {
        const LaneMask lm = lane_mask(l);
        auto st = mp_.state_view();
        zero_lane(st.c2v, lm);
        zero_lane(st.down, lm);
        zero_lane(st.up, lm);
        splice_frame(lm, frame, /*totals=*/true);
    }

    /// Packs the posterior signs into the sign plane: bit l of plane_[v] is
    /// set iff lane l's posterior of variable v (information nodes, then
    /// parity nodes) is negative — lane l's hardened bit v.
    void build_sign_plane() {
        const std::vector<Val>& post_in = mp_.posterior_in();
        const std::vector<Val>& post_p = mp_.posterior_p();
        std::uint32_t* out = plane_.data();
        for (const Val& x : post_in) *out++ = V::sign_bits(x.r);
        for (const Val& x : post_p) *out++ = V::sign_bits(x.r);
    }

    /// Lane-parallel syndrome over the sign plane: bit l of the result is
    /// set iff lane l's hardened codeword leaves some check unsatisfied —
    /// the counterpart of the shared scalar routine (core/syndrome.hpp),
    /// pinned to it per lane by tests/test_convergence.cpp. The per-check
    /// parities are OR-accumulated, not counted: only "none unsatisfied" is
    /// ever read. One 4-byte load and xor per edge, from a plane of 4 bytes
    /// per variable node, where the posteriors hold W words each.
    std::uint32_t unsatisfied_lanes() const {
        const auto& cp = code_->params();
        const int m = cp.m();
        const int d = code_->check_in_degree();
        const std::uint32_t* info = plane_.data();
        const std::uint32_t* parity = plane_.data() + cp.k;
        std::uint32_t any = 0;
        std::uint32_t prev = 0;  // p_{c-1}; CN 0 has no predecessor
        long long e = 0;
        for (int c = 0; c < m; ++c) {
            std::uint32_t acc = prev ^ parity[c];
            for (int i = 0; i < d; ++i, ++e) acc ^= info[code_->edge_variable(e)];
            prev = parity[c];
            any |= acc;
        }
        return any;
    }

    /// Cuts lane l's hardened codeword out of the sign plane, 64 bits per
    /// word store, into the caller-owned result.
    void harden_lane(int l, DecodeResult& r) const {
        const std::size_t n = plane_.size();
        if (r.codeword.size() != n) r.codeword = util::BitVec(n);
        const std::uint32_t* plane = plane_.data();
        r.codeword.assign([plane, l](std::size_t v) { return (plane[v] >> l) & 1u; });
    }

    /// Zero-iteration budget: decide one frame straight from its channel
    /// (mirrors the scalar reference's harden-from-channel path).
    void harden_channel_frame(const QLLR* ch, DecodeResult& r) const {
        const auto n = static_cast<std::size_t>(code_->params().n);
        if (r.codeword.size() != n) r.codeword = util::BitVec(n);
        r.codeword.assign([ch](std::size_t i) { return ch[i] < 0; });
    }

    /// Freezes a lane's result (same info-bit extraction as the scalar
    /// reference, reusing the caller's storage).
    void finish_lane(DecodeResult& r, int iterations, bool converged) const {
        r.iterations = iterations;
        r.converged = converged;
        const auto k = static_cast<std::size_t>(code_->params().k);
        if (r.info_bits.size() != k) r.info_bits = util::BitVec(k);
        r.info_bits.assign_prefix(r.codeword);
    }

    /// A frame source over a frame-major span of one lane block.
    struct SpanSource {
        const QLLR* data;
        std::size_t n;
        static void copy(void* ctx, std::size_t f, QLLR* dst) {
            const auto* s = static_cast<const SpanSource*>(ctx);
            std::copy(s->data + f * s->n, s->data + (f + 1) * s->n, dst);
        }
    };
    SpanSource block_source(std::span<const QLLR> qllr, std::size_t frames) const {
        const auto n = static_cast<std::size_t>(code_->params().n);
        DVBS2_REQUIRE(frames >= 1 && frames <= static_cast<std::size_t>(W),
                      "batch frames must be in [1, lanes()]");
        DVBS2_REQUIRE(qllr.size() == frames * n, "batch channel length mismatch");
        return {qllr.data(), n};
    }

    /// Single lane block: decode_stream over a frame-major span.
    void decode_into(std::span<const QLLR> qllr, std::size_t frames, DecodeResult* out) override {
        SpanSource src = block_source(qllr, frames);
        decode_stream(frames, &SpanSource::copy, &src, out);
    }

    void decode_stream(std::size_t frames, SimdBatchFixedDecoder::FrameSource source, void* ctx,
                       DecodeResult* out) override {
        DVBS2_REQUIRE(frames >= 1, "decode_stream needs at least one frame");
        DVBS2_REQUIRE(source != nullptr && out != nullptr,
                      "decode_stream needs a frame source and result storage");
        if (cfg_.max_iterations == 0) {
            // Mirror the scalar reference: decide straight from the channel
            // (no vector work; no lane is ever occupied).
            for (std::size_t f = 0; f < frames; ++f) {
                source(ctx, f, stage_.data());
                harden_channel_frame(stage_.data(), out[f]);
                finish_lane(out[f], /*iterations=*/0, /*converged=*/false);
            }
            return;
        }

        // Fill the lanes with the first min(W, frames) frames.
        const std::size_t first = std::min(frames, static_cast<std::size_t>(W));
        fill_lanes(first, source, ctx);

        // Per-lane bookkeeping: the result slot a lane writes (null = idle)
        // and how many iterations its current frame has run. Lanes drift
        // apart as compaction refills them, so the iteration counter is per
        // lane, never global.
        DecodeResult* slot[W] = {};
        int lane_it[W] = {};
        for (std::size_t l = 0; l < first; ++l) slot[l] = &out[l];
        std::size_t next = first;   // next pending frame index
        std::size_t active = first; // lanes holding an unfinished frame

        while (active > 0) {
            mp_.step();
            bool due[W] = {};  // lanes whose frame is syndrome-checked now
            bool any_due = false;
            for (int l = 0; l < W; ++l) {
                if (slot[l] == nullptr) continue;
                ++lane_it[l];
                // Same cadence as the scalar reference: check every
                // iteration under early stopping, else only at the budget.
                if (cfg_.early_stop || lane_it[l] == cfg_.max_iterations) {
                    due[l] = true;
                    any_due = true;
                }
            }
            if (!any_due) continue;
            build_sign_plane();
            const std::uint32_t unsat = unsatisfied_lanes();
            bool fin[W] = {};   // lanes retiring this iteration
            bool conv[W] = {};  // their converged flags
            bool any_fin = false;
            for (int l = 0; l < W; ++l) {
                if (!due[l]) continue;
                const bool ok = ((unsat >> l) & 1u) == 0;
                const bool last = lane_it[l] == cfg_.max_iterations;
                if (cfg_.early_stop && ok) {
                    fin[l] = conv[l] = true;
                    any_fin = true;
                } else if (last) {
                    // early_stop semantics: converged only via the per-
                    // iteration check above; without early stopping the
                    // final syndrome decides (same as the scalar engine).
                    fin[l] = true;
                    conv[l] = cfg_.early_stop ? false : ok;
                    any_fin = true;
                }
            }
            if (!any_fin) continue;
            // Harden only the retiring lanes: on a typical early-stop
            // iteration that is zero or one lane, not all W.
            for (int l = 0; l < W; ++l) {
                if (!fin[l]) continue;
                harden_lane(l, *slot[l]);
                finish_lane(*slot[l], lane_it[l], conv[l]);
                // Lane retired. Compaction: splice the next pending frame
                // into it so it never idles while frames wait.
                if (next < frames) {
                    source(ctx, next, stage_.data());
                    reset_lane(static_cast<std::size_t>(l), stage_.data());
                    slot[l] = &out[next];
                    lane_it[l] = 0;
                    ++next;
                } else {
                    slot[l] = nullptr;
                    --active;
                }
            }
        }
    }

    void run_iterations(std::span<const QLLR> qllr, std::size_t frames, int iters) override {
        SpanSource src = block_source(qllr, frames);
        fill_lanes(frames, &SpanSource::copy, &src);
        for (int i = 0; i < iters; ++i) mp_.step();
    }

    std::vector<QLLR> c2v_messages(std::size_t frame) const override {
        DVBS2_REQUIRE(frame < static_cast<std::size_t>(W), "lane index out of range");
        const auto& c2v = mp_.c2v_messages();
        std::vector<QLLR> out(c2v.size());
        Lane tmp[W];
        for (std::size_t e = 0; e < c2v.size(); ++e) {
            V::store(tmp, c2v[e].r);
            out[e] = tmp[frame];
        }
        return out;
    }

private:
    const code::Dvbs2Code* code_;
    DecoderConfig cfg_;
    quant::BoxplusTable table_;
    MpDecoder<BatchLaneArith<V>> mp_;
    std::vector<QLLR> stage_;  // one frame's channel, staging area for lane splices
    std::vector<std::uint32_t> plane_;  // sign plane: one lane-sign word per variable node
};

std::unique_ptr<detail::BatchLanes> make_lanes(const code::Dvbs2Code& code,
                                               const DecoderConfig& cfg,
                                               const quant::QuantSpec& spec) {
    if (frame_lane_bits(code, cfg, spec) == 16)
        return std::make_unique<LaneBlock<sv::ActiveVec16>>(code, cfg, spec);
    return std::make_unique<LaneBlock<sv::ActiveVec>>(code, cfg, spec);
}

}  // namespace

SimdBatchFixedDecoder::SimdBatchFixedDecoder(const code::Dvbs2Code& code,
                                             const DecoderConfig& cfg,
                                             const quant::QuantSpec& spec)
    : impl_(make_lanes(code, cfg, spec)) {}
SimdBatchFixedDecoder::~SimdBatchFixedDecoder() = default;
SimdBatchFixedDecoder::SimdBatchFixedDecoder(SimdBatchFixedDecoder&&) noexcept = default;
SimdBatchFixedDecoder& SimdBatchFixedDecoder::operator=(SimdBatchFixedDecoder&&) noexcept =
    default;

int SimdBatchFixedDecoder::lanes() const noexcept { return impl_->lanes(); }
int SimdBatchFixedDecoder::lane_bits() const noexcept { return impl_->lane_bits(); }

void SimdBatchFixedDecoder::decode_into(std::span<const quant::QLLR> qllr, std::size_t frames,
                                        DecodeResult* out) {
    impl_->decode_into(qllr, frames, out);
}

void SimdBatchFixedDecoder::decode_stream(std::size_t frames, FrameSource source, void* ctx,
                                          DecodeResult* out) {
    impl_->decode_stream(frames, source, ctx, out);
}

void SimdBatchFixedDecoder::run_iterations(std::span<const quant::QLLR> qllr,
                                           std::size_t frames, int iters) {
    impl_->run_iterations(qllr, frames, iters);
}

std::vector<quant::QLLR> SimdBatchFixedDecoder::c2v_messages(std::size_t frame) const {
    return impl_->c2v_messages(frame);
}

}  // namespace dvbs2::core
