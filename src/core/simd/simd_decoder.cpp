// SIMD group-parallel fixed-point decoder engine.
//
// This is the only TU compiled with target-specific SIMD flags; everything
// vector lives here behind the intrinsic-free interface of
// simd_decoder.hpp.
//
// Bit-exactness strategy: all state arrays (c2v_, v2c_, down_, up_, pn_a_,
// pn_c_, posteriors) keep exactly the scalar MpDecoder<FixedArith> layout
// and contents; only the *computation* of independent check/variable nodes
// is spread across lanes. The per-check-node combine order (prefix/suffix
// recursion of core/kernels.hpp) is identical per lane, posterior
// accumulation is exact integer addition (order-free), and the few
// remainder nodes that do not fill a vector block run through the very same
// scalar FixedArith code path as the reference engine.
//
// Lane ↔ functional-unit mapping (paper Sec. 3): DVB-S2's Eq. 2 structure
// gives P=360 independent functional units; FU f handles check nodes
// f·q .. (f+1)·q−1. A vector block assigns W consecutive FUs to the W lanes
// and advances them in lockstep through the local step r, so lane l works
// on CN (f0+l)·q + r — a stride-q gather in CN index, stride q·kc in edge
// index. Two snapshots preserve the sequential sweep's read-before-write
// semantics at segment boundaries:
//  * boundary_snapshot_ (same as the scalar reference): FU f's first left
//    input is last iteration's down_[f·q−1].
//  * a per-block up-boundary snapshot: lane l reads up_[(f0+l+1)·q−1] at its
//    last step r = q−1, but lane l+1 overwrites that entry at its step 0;
//    the snapshot keeps the previous-iteration value the sequential order
//    would have read. Cross-block reads are safe because blocks (and the
//    scalar head/tail) are processed in ascending FU order.
//
// Only the two lockstep-legal schedules run here (the dataflow IR's
// classify_schedule verdict): zigzag-forward, zigzag-map and layered carry
// an m-length serial dependence chain through the check phase, so the SIMD
// engine decodes their single frames on the scalar reference and their
// batches frame-per-lane (core/engine.cpp).
#include "core/simd/simd_decoder.hpp"

#include "analysis/ir/analyses.hpp"

#include <cstdint>
#include <limits>
#include <utility>

#include "core/arith.hpp"
#include "core/kernels.hpp"
#include "core/mp_decoder.hpp"  // kMaxCheckDegree
#include "core/simd/lane_arith.hpp"
#include "core/syndrome.hpp"
#include "core/simd/vec.hpp"
#include "util/error.hpp"

namespace dvbs2::core {

namespace {

namespace sv = dvbs2::core::simd;
using V = sv::ActiveVec;
using Reg = V::reg;
inline constexpr int W = V::width;
using quant::QLLR;

/// Maximum information-node degree we support (DVB-S2 max is 13 for R=1/4).
inline constexpr int kMaxInfoDegree = 16;

}  // namespace

const char* simd_backend_name() noexcept { return sv::kBackendName; }
int simd_backend_width() noexcept { return W; }

struct SimdFixedDecoder::Impl {
    Impl(const code::Dvbs2Code& code, const DecoderConfig& cfg, const quant::QuantSpec& spec)
        : code_(&code),
          cfg_(cfg),
          table_(spec),
          arith_(cfg.rule, spec, cfg.rule == CheckRule::Exact ? &table_ : nullptr,
                 cfg.normalization, cfg.offset),
          lanes_(cfg.rule, spec, cfg.rule == CheckRule::Exact ? &table_ : nullptr,
                 cfg.normalization, cfg.offset) {
        const auto& cp = code.params();
        const auto& cls = analysis::ir::classify_schedule(cfg.schedule);
        DVBS2_REQUIRE(cls.group_parallel_legal,
                      std::string("SIMD group-parallel backend cannot run schedule=") +
                          to_string(cfg.schedule) + ": " + cls.group_parallel_obstruction);
        DVBS2_REQUIRE(cp.check_deg <= kMaxCheckDegree, "check degree exceeds kMaxCheckDegree");
        DVBS2_REQUIRE(cp.deg_hi <= kMaxInfoDegree && cp.deg_lo <= kMaxInfoDegree,
                      "information degree exceeds kMaxInfoDegree");
        DVBS2_REQUIRE(cfg.max_iterations >= 0, "max_iterations must be non-negative");
        DVBS2_REQUIRE(cp.e_in() < std::numeric_limits<std::int32_t>::max(),
                      "edge count exceeds 32-bit gather indices");
        const auto e = static_cast<std::size_t>(cp.e_in());
        c2v_.resize(e);
        v2c_.resize(e);
        const auto m = static_cast<std::size_t>(cp.m());
        down_.resize(m);
        up_.resize(m);  // up_[M-1] stays zero (p_{M-1} has degree 1)
        ch_in_.resize(static_cast<std::size_t>(cp.k));
        ch_p_.resize(m);
        post_in_.resize(static_cast<std::size_t>(cp.k));
        post_p_.resize(m);
        if (cfg.schedule == Schedule::TwoPhase) {
            pn_a_.resize(m);
            pn_c_.resize(m);
        }
        if (cfg.schedule == Schedule::ZigzagSegmented) {
            DVBS2_REQUIRE(cp.q >= 1, "segmented schedule needs q >= 1");
            boundary_snapshot_.resize(static_cast<std::size_t>(cp.parallelism));
        }
        build_transposed_edges();
    }

    /// Transposed variable-major edge ids: for group g (degree deg), lane i,
    /// slot d, einfoT_[base_[g] + d·P + i] is the edge id of information bit
    /// g·P+i's d-th edge — contiguous across lanes for vector loads. The
    /// group-aligned degree boundary is a CodeParams::validate invariant.
    void build_transposed_edges() {
        const auto& cp = code_->params();
        const int P = cp.parallelism;
        const int G = cp.groups();
        einfoT_base_.resize(static_cast<std::size_t>(G));
        std::size_t off = 0;
        for (int g = 0; g < G; ++g) {
            const int deg = code_->info_degree(g * P);
            einfoT_base_[static_cast<std::size_t>(g)] = off;
            off += static_cast<std::size_t>(deg) * static_cast<std::size_t>(P);
        }
        einfoT_.resize(off);
        for (int g = 0; g < G; ++g) {
            const int deg = code_->info_degree(g * P);
            const std::size_t base = einfoT_base_[static_cast<std::size_t>(g)];
            for (int i = 0; i < P; ++i) {
                const long long* edges = code_->info_edges(g * P + i);
                for (int d = 0; d < deg; ++d)
                    einfoT_[base + static_cast<std::size_t>(d) * P + static_cast<std::size_t>(i)] =
                        static_cast<std::int32_t>(edges[d]);
            }
        }
    }

    // ----------------------------------------------------------- iteration

    void decode_into(std::span<const QLLR> ch, DecodeResult& out) {
        const auto& cp = code_->params();
        DVBS2_REQUIRE(ch.size() == static_cast<std::size_t>(cp.n), "channel length mismatch");
        load_channel(ch);
        reset_state();

        int it = 0;
        bool converged = false;
        for (; it < cfg_.max_iterations && !converged;) {
            iterate();
            ++it;
            const bool need_harden =
                cfg_.early_stop || it == cfg_.max_iterations || static_cast<bool>(observer_);
            if (need_harden) {
                harden(out.codeword);
                // Shared syndrome routine (core/syndrome.hpp): counting mode
                // only under an observer, exactly like the scalar reference.
                const SyndromeOutcome syn =
                    check_syndrome(*code_, out.codeword, static_cast<bool>(observer_));
                if (observer_) {
                    IterationTrace trace;
                    trace.iteration = it;
                    trace.unsatisfied_checks = syn.unsatisfied;
                    trace.mean_abs_posterior = mean_abs_posterior();
                    observer_(trace);
                }
                converged = cfg_.early_stop && syn.satisfied;
            }
        }
        if (cfg_.max_iterations == 0) harden(out.codeword);
        if (!cfg_.early_stop && cfg_.max_iterations > 0)
            converged = check_syndrome(*code_, out.codeword).satisfied;
        out.iterations = it;
        out.converged = converged;
        const auto k = static_cast<std::size_t>(cp.k);
        if (out.info_bits.size() != k)
            out.info_bits = util::BitVec(k);
        else
            out.info_bits.clear();
        for (std::size_t v = 0; v < k; ++v)
            if (out.codeword.get(v)) out.info_bits.set(v, true);
    }

    void run_iterations(std::span<const QLLR> ch, int iters) {
        const auto& cp = code_->params();
        DVBS2_REQUIRE(ch.size() == static_cast<std::size_t>(cp.n), "channel length mismatch");
        load_channel(ch);
        reset_state();
        for (int it = 0; it < iters; ++it) iterate();
    }

    void iterate() {
        variable_phase();
        begin_posterior();
        if (cfg_.schedule == Schedule::TwoPhase)
            check_phase_two_phase();
        else
            check_phase_zigzag_segmented();
        finish_parity_posterior();
    }

    void load_channel(std::span<const QLLR> ch) {
        const auto& cp = code_->params();
        for (int v = 0; v < cp.k; ++v)
            ch_in_[static_cast<std::size_t>(v)] = ch[static_cast<std::size_t>(v)];
        for (int j = 0; j < cp.m(); ++j)
            ch_p_[static_cast<std::size_t>(j)] = ch[static_cast<std::size_t>(cp.k + j)];
    }

    void reset_state() {
        std::fill(c2v_.begin(), c2v_.end(), 0);
        std::fill(v2c_.begin(), v2c_.end(), 0);
        std::fill(down_.begin(), down_.end(), 0);
        std::fill(up_.begin(), up_.end(), 0);
    }

    // ------------------------------------------------------ variable phase

    /// Information-node update vectorized across the lanes of each group
    /// (lane = information bit g·P+i, W bits in lockstep): wide totals with
    /// one saturation per produced message, exactly Eq. 4.
    void variable_phase() {
        const auto& cp = code_->params();
        const int P = cp.parallelism;
        const int G = cp.groups();
        for (int g = 0; g < G; ++g) {
            const int v0 = g * P;
            const int deg = code_->info_degree(v0);
            const std::int32_t* et = einfoT_.data() + einfoT_base_[static_cast<std::size_t>(g)];
            int i = 0;
            for (; i + W <= P; i += W) {
                Reg msgs[kMaxInfoDegree];
                Reg total = V::load(ch_in_.data() + v0 + i);
                for (int d = 0; d < deg; ++d) {
                    msgs[d] = V::gather(c2v_.data(), V::load(et + d * P + i));
                    total = V::add(total, msgs[d]);
                }
                for (int d = 0; d < deg; ++d) {
                    QLLR tmp[W];
                    V::store(tmp, lanes_.narrow(V::sub(total, msgs[d])));
                    const std::int32_t* ep = et + d * P + i;
                    for (int l = 0; l < W; ++l) v2c_[static_cast<std::size_t>(ep[l])] = tmp[l];
                }
            }
            for (; i < P; ++i) {  // remainder lanes: scalar reference path
                const int v = v0 + i;
                const long long* edges = code_->info_edges(v);
                QLLR total = ch_in_[static_cast<std::size_t>(v)];
                for (int d = 0; d < deg; ++d) total += c2v_[static_cast<std::size_t>(edges[d])];
                for (int d = 0; d < deg; ++d) {
                    const auto e = static_cast<std::size_t>(edges[d]);
                    v2c_[e] = arith_.narrow(total - c2v_[e]);
                }
            }
        }
        if (cfg_.schedule == Schedule::TwoPhase) {
            // Parity nodes are degree-2 variable nodes. up_[m−1] is
            // invariantly zero and pn_c_[m−1] is never read, so full blocks
            // need no last-node special case.
            const int m = cp.m();
            int j = 0;
            for (; j + W <= m; j += W) {
                const Reg chp = V::load(ch_p_.data() + j);
                V::store(pn_a_.data() + j, lanes_.narrow(V::add(chp, V::load(up_.data() + j))));
                V::store(pn_c_.data() + j, lanes_.narrow(V::add(chp, V::load(down_.data() + j))));
            }
            for (; j < m; ++j) {
                const QLLR chp = ch_p_[static_cast<std::size_t>(j)];
                const QLLR up = j < m - 1 ? up_[static_cast<std::size_t>(j)] : 0;
                pn_a_[static_cast<std::size_t>(j)] = arith_.narrow(chp + up);
                if (j < m - 1)
                    pn_c_[static_cast<std::size_t>(j)] =
                        arith_.narrow(chp + down_[static_cast<std::size_t>(j)]);
            }
        }
    }

    // --------------------------------------------------------- check phase

    /// Finalizes and scatters a block's information-edge outputs: lane l's
    /// edge for slot t is e_base + l·e_stride + t. Scalar stores (the write
    /// pattern is strided) on top of vectorized finalize; the posterior
    /// accumulation is exact integer addition, so order does not matter.
    void scatter_block(const Reg* outs, int kc, long long e_base, long long e_stride) {
        for (int t = 0; t < kc; ++t) {
            QLLR tmp[W];
            V::store(tmp, lanes_.finalize(outs[t]));
            for (int l = 0; l < W; ++l) {
                const long long e = e_base + static_cast<long long>(l) * e_stride + t;
                c2v_[static_cast<std::size_t>(e)] = tmp[l];
                post_in_[static_cast<std::size_t>(code_->edge_variable(e))] += tmp[l];
            }
        }
    }

    /// Two-phase flooding: every check node reads only variable-phase
    /// outputs, so all m CNs are independent — vector blocks of W
    /// consecutive CNs, with CN 0 (no left parity input, degree kc+1) and
    /// the remainder on the scalar reference path.
    void check_phase_two_phase() {
        const auto& cp = code_->params();
        const int m = cp.m();
        const int kc = code_->check_in_degree();
        scalar_cn_two_phase(0);
        QLLR iota_kc[W];
        for (int l = 0; l < W; ++l) iota_kc[l] = l * kc;
        const Reg stride_kc = V::load(iota_kc);
        int j0 = 1;
        for (; j0 + W <= m; j0 += W) {
            Reg ins[kMaxCheckDegree];
            Reg outs[kMaxCheckDegree];
            Reg pre[kMaxCheckDegree];
            for (int t = 0; t < kc; ++t)
                ins[t] = V::gather(v2c_.data(), V::add(V::broadcast(j0 * kc + t), stride_kc));
            ins[kc] = V::load(pn_c_.data() + j0 - 1);      // left zigzag input
            ins[kc + 1] = V::load(pn_a_.data() + j0);      // right zigzag input
            compute_extrinsics(lanes_, ins, kc + 2, outs, pre);
            scatter_block(outs, kc, static_cast<long long>(j0) * kc, kc);
            V::store(down_.data() + j0, lanes_.finalize(outs[kc + 1]));
            V::store(up_.data() + j0 - 1, lanes_.finalize(outs[kc]));
        }
        for (; j0 < m; ++j0) scalar_cn_two_phase(j0);
    }

    /// Segmented zigzag: FU f sweeps CNs f·q..(f+1)·q−1; lanes are W
    /// consecutive FUs in lockstep at common step r (see file header for the
    /// boundary snapshots). FU 0 (contains CN 0's short input list) and the
    /// remainder FUs run the scalar reference path in ascending order.
    void check_phase_zigzag_segmented() {
        const auto& cp = code_->params();
        const int P = cp.parallelism;
        const int q = cp.q;
        const int m = cp.m();
        const int kc = code_->check_in_degree();
        for (int f = 1; f < P; ++f)
            boundary_snapshot_[static_cast<std::size_t>(f)] =
                down_[static_cast<std::size_t>(f * q - 1)];
        for (int j = 0; j < q; ++j) scalar_cn_segmented(j);

        QLLR iota[W];
        for (int l = 0; l < W; ++l) iota[l] = l * q;
        const Reg stride_q = V::load(iota);
        for (int l = 0; l < W; ++l) iota[l] = l * q * kc;
        const Reg stride_qkc = V::load(iota);

        int f0 = 1;
        for (; f0 + W <= P; f0 += W) {
            QLLR upsnap[W];
            for (int l = 0; l < W; ++l)
                upsnap[l] = up_[static_cast<std::size_t>((f0 + l + 1) * q - 1)];
            const Reg up_boundary = V::load(upsnap);
            for (int r = 0; r < q; ++r) {
                const int jb = f0 * q + r;  // lane l works on CN jb + l·q
                Reg ins[kMaxCheckDegree];
                Reg outs[kMaxCheckDegree];
                Reg pre[kMaxCheckDegree];
                for (int t = 0; t < kc; ++t)
                    ins[t] =
                        V::gather(v2c_.data(), V::add(V::broadcast(jb * kc + t), stride_qkc));
                const Reg chp_prev =
                    V::gather(ch_p_.data(), V::add(V::broadcast(jb - 1), stride_q));
                const Reg d_prev =
                    r == 0 ? V::load(boundary_snapshot_.data() + f0)
                           : V::gather(down_.data(), V::add(V::broadcast(jb - 1), stride_q));
                ins[kc] = lanes_.narrow(V::add(chp_prev, d_prev));
                const Reg chp = V::gather(ch_p_.data(), V::add(V::broadcast(jb), stride_q));
                const Reg up =
                    r == q - 1 ? up_boundary
                               : V::gather(up_.data(), V::add(V::broadcast(jb), stride_q));
                ins[kc + 1] = lanes_.narrow(V::add(chp, up));
                compute_extrinsics(lanes_, ins, kc + 2, outs, pre);
                scatter_block(outs, kc, static_cast<long long>(jb) * kc,
                              static_cast<long long>(q) * kc);
                QLLR dtmp[W];
                QLLR utmp[W];
                V::store(dtmp, lanes_.finalize(outs[kc + 1]));
                V::store(utmp, lanes_.finalize(outs[kc]));
                for (int l = 0; l < W; ++l) {
                    down_[static_cast<std::size_t>(jb + l * q)] = dtmp[l];
                    up_[static_cast<std::size_t>(jb + l * q - 1)] = utmp[l];
                }
            }
        }
        for (int j = f0 * q; j < m; ++j) scalar_cn_segmented(j);
    }

    // Scalar reference paths: byte-for-byte the MpDecoder<FixedArith> loop
    // bodies, used for CN 0 / FU 0 and block remainders.

    void scalar_cn_two_phase(int j) {
        const int kc = code_->check_in_degree();
        QLLR ins[kMaxCheckDegree];
        QLLR outs[kMaxCheckDegree];
        QLLR pre[kMaxCheckDegree];
        const long long base = static_cast<long long>(j) * kc;
        int d = 0;
        for (int t = 0; t < kc; ++t) ins[d++] = v2c_[static_cast<std::size_t>(base + t)];
        const int left_pos = j > 0 ? d : -1;
        if (j > 0) ins[d++] = pn_c_[static_cast<std::size_t>(j - 1)];
        const int right_pos = d;
        ins[d++] = pn_a_[static_cast<std::size_t>(j)];
        compute_extrinsics(arith_, ins, d, outs, pre);
        scatter_scalar(base, outs, kc);
        down_[static_cast<std::size_t>(j)] = arith_.finalize(outs[right_pos]);
        if (j > 0) up_[static_cast<std::size_t>(j - 1)] = arith_.finalize(outs[left_pos]);
    }

    void scalar_cn_segmented(int j) {
        const auto& cp = code_->params();
        const int m = cp.m();
        const int q = cp.q;
        const int kc = code_->check_in_degree();
        QLLR ins[kMaxCheckDegree];
        QLLR outs[kMaxCheckDegree];
        QLLR pre[kMaxCheckDegree];
        const long long base = static_cast<long long>(j) * kc;
        int d = 0;
        for (int t = 0; t < kc; ++t) ins[d++] = v2c_[static_cast<std::size_t>(base + t)];
        int left_pos = -1;
        if (j > 0) {
            const bool at_boundary = j % q == 0;
            const QLLR d_prev = at_boundary ? boundary_snapshot_[static_cast<std::size_t>(j / q)]
                                            : down_[static_cast<std::size_t>(j - 1)];
            left_pos = d;
            ins[d++] = arith_.narrow(ch_p_[static_cast<std::size_t>(j - 1)] + d_prev);
        }
        const int right_pos = d;
        const QLLR chp = ch_p_[static_cast<std::size_t>(j)];
        ins[d++] = j < m - 1 ? arith_.narrow(chp + up_[static_cast<std::size_t>(j)])
                             : arith_.narrow(chp);
        compute_extrinsics(arith_, ins, d, outs, pre);
        scatter_scalar(base, outs, kc);
        down_[static_cast<std::size_t>(j)] = arith_.finalize(outs[right_pos]);
        if (j > 0) up_[static_cast<std::size_t>(j - 1)] = arith_.finalize(outs[left_pos]);
    }

    void scatter_scalar(long long e_base, const QLLR* outs, int kc) {
        for (int t = 0; t < kc; ++t) {
            const auto e = static_cast<std::size_t>(e_base + t);
            const QLLR msg = arith_.finalize(outs[t]);
            c2v_[e] = msg;
            post_in_[static_cast<std::size_t>(code_->edge_variable(static_cast<long long>(e)))] +=
                msg;
        }
    }

    // ------------------------------------------------- posterior / harden

    void begin_posterior() {
        const auto& cp = code_->params();
        for (int v = 0; v < cp.k; ++v)
            post_in_[static_cast<std::size_t>(v)] = ch_in_[static_cast<std::size_t>(v)];
    }

    void finish_parity_posterior() {
        const auto& cp = code_->params();
        const int m = cp.m();
        for (int j = 0; j < m; ++j) {
            QLLR t = ch_p_[static_cast<std::size_t>(j)] + down_[static_cast<std::size_t>(j)];
            if (j < m - 1) t += up_[static_cast<std::size_t>(j)];
            post_p_[static_cast<std::size_t>(j)] = t;
        }
    }

    void harden(util::BitVec& codeword) const {
        const auto& cp = code_->params();
        if (codeword.size() != static_cast<std::size_t>(cp.n))
            codeword = util::BitVec(static_cast<std::size_t>(cp.n));
        else
            codeword.clear();
        if (cfg_.max_iterations == 0) {
            for (int v = 0; v < cp.k; ++v)
                if (ch_in_[static_cast<std::size_t>(v)] < 0)
                    codeword.set(static_cast<std::size_t>(v), true);
            for (int j = 0; j < cp.m(); ++j)
                if (ch_p_[static_cast<std::size_t>(j)] < 0)
                    codeword.set(static_cast<std::size_t>(cp.k + j), true);
            return;
        }
        for (int v = 0; v < cp.k; ++v)
            if (post_in_[static_cast<std::size_t>(v)] < 0)
                codeword.set(static_cast<std::size_t>(v), true);
        for (int j = 0; j < cp.m(); ++j)
            if (post_p_[static_cast<std::size_t>(j)] < 0)
                codeword.set(static_cast<std::size_t>(cp.k + j), true);
    }

    double mean_abs_posterior() const {
        double sum = 0.0;
        for (const QLLR w : post_in_) sum += w < 0 ? -static_cast<double>(w) : w;
        for (const QLLR w : post_p_) sum += w < 0 ? -static_cast<double>(w) : w;
        return sum / static_cast<double>(post_in_.size() + post_p_.size());
    }

    const code::Dvbs2Code* code_;
    DecoderConfig cfg_;
    quant::BoxplusTable table_;
    FixedArith arith_;
    sv::LaneFixedArith<V> lanes_;

    std::vector<QLLR> c2v_, v2c_;
    std::vector<QLLR> down_, up_;
    std::vector<QLLR> pn_a_, pn_c_;
    std::vector<QLLR> boundary_snapshot_;
    std::vector<QLLR> ch_in_, ch_p_;
    std::vector<QLLR> post_in_, post_p_;
    std::vector<std::int32_t> einfoT_;
    std::vector<std::size_t> einfoT_base_;
    std::function<void(const IterationTrace&)> observer_;
};

SimdFixedDecoder::SimdFixedDecoder(const code::Dvbs2Code& code, const DecoderConfig& cfg,
                                   const quant::QuantSpec& spec)
    : impl_(std::make_unique<Impl>(code, cfg, spec)) {}
SimdFixedDecoder::~SimdFixedDecoder() = default;
SimdFixedDecoder::SimdFixedDecoder(SimdFixedDecoder&&) noexcept = default;
SimdFixedDecoder& SimdFixedDecoder::operator=(SimdFixedDecoder&&) noexcept = default;

DecodeResult SimdFixedDecoder::decode_values(const std::vector<quant::QLLR>& ch) {
    DecodeResult result;
    impl_->decode_into(ch, result);
    return result;
}

void SimdFixedDecoder::decode_into(std::span<const quant::QLLR> ch, DecodeResult& out) {
    impl_->decode_into(ch, out);
}

void SimdFixedDecoder::run_iterations(std::span<const quant::QLLR> ch, int iters) {
    impl_->run_iterations(ch, iters);
}

const std::vector<quant::QLLR>& SimdFixedDecoder::c2v_messages() const noexcept {
    return impl_->c2v_;
}
const std::vector<quant::QLLR>& SimdFixedDecoder::v2c_messages() const noexcept {
    return impl_->v2c_;
}
const std::vector<quant::QLLR>& SimdFixedDecoder::backward_messages() const noexcept {
    return impl_->up_;
}

void SimdFixedDecoder::set_observer(std::function<void(const IterationTrace&)> observer) {
    impl_->observer_ = std::move(observer);
}

}  // namespace dvbs2::core
