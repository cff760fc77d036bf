// SIMD group-parallel fixed-point decoder engine.
//
// Built with the backend's target flags, like the other two TUs of
// src/core/simd that hold vector code (batch_decoder.cpp, quantize.cpp;
// see src/core/CMakeLists.txt), behind the intrinsic-free interface of
// simd_decoder.hpp.
//
// The decoder is MpDecoder (core/mp_decoder.hpp) with its own iteration:
// the state arrays, channel load and reset, decode loop, posterior passes,
// hardening, traces and info bits are MpDecoder's, so the state layout and
// contents are exactly MpDecoder<FixedArith>'s. This file adds only the
// transposed edge table and the vector blocks of the variable and check
// phases; the nodes no block covers (CN 0, FU 0, block remainders) run
// through MpDecoder's node-range loops, the scalar reference's own loop
// bodies. The per-check-node combine order (prefix/suffix recursion of
// core/kernels.hpp) is identical per lane, and posterior accumulation is
// exact integer addition (order-free).
//
// MpDecoder is instantiated over GroupArith, a FixedArith of this file's
// own: an MpDecoder<FixedArith> instantiated here, built with vector flags,
// would be a comdat copy the linker may pick for the target-generic scalar
// engines (the isa_guard ctest checks the shared copies, tests/CMakeLists.txt).
//
// Lane ↔ functional-unit mapping (paper Sec. 3): DVB-S2's Eq. 2 structure
// gives P=360 independent functional units; FU f handles check nodes
// f·q .. (f+1)·q−1. A vector block assigns W consecutive FUs to the W lanes
// and advances them in lockstep through the local step r, so lane l works
// on CN (f0+l)·q + r — a stride-q gather in CN index, stride q·kc in edge
// index. Two snapshots preserve the sequential sweep's read-before-write
// semantics at segment boundaries:
//  * MpDecoder's segment-boundary snapshot: FU f's first left input is last
//    iteration's down[f·q−1].
//  * a per-block up-boundary snapshot: lane l reads up[(f0+l+1)·q−1] at its
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
#include <string>
#include <utility>

#include "core/arith.hpp"
#include "core/kernels.hpp"
#include "core/mp_decoder.hpp"
#include "core/simd/lane_arith.hpp"
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

/// FixedArith under a type of this TU: MpDecoder<GroupArith> and the
/// kernels it instantiates have internal linkage, so no copy built with
/// this file's vector flags can stand in for the scalar engines' code.
struct GroupArith : FixedArith {
    using FixedArith::FixedArith;
};

using Mp = MpDecoder<GroupArith>;

/// The group decoder's own contract, checked before any state is sized.
const code::Dvbs2Code& require_group_parallel(const code::Dvbs2Code& code,
                                              const DecoderConfig& cfg) {
    const auto& cp = code.params();
    const auto& cls = analysis::ir::classify_schedule(cfg.schedule);
    DVBS2_REQUIRE(cls.group_parallel_legal,
                  std::string("SIMD group-parallel backend cannot run schedule=") +
                      to_string(cfg.schedule) + ": " + cls.group_parallel_obstruction);
    DVBS2_REQUIRE(cp.deg_hi <= kMaxInfoDegree && cp.deg_lo <= kMaxInfoDegree,
                  "information degree exceeds kMaxInfoDegree");
    DVBS2_REQUIRE(cp.e_in() < std::numeric_limits<std::int32_t>::max(),
                  "edge count exceeds 32-bit gather indices");
    return code;
}

}  // namespace

const char* simd_backend_name() noexcept { return sv::kBackendName; }
int simd_backend_width() noexcept { return W; }

struct SimdFixedDecoder::Impl {
    Impl(const code::Dvbs2Code& code, const DecoderConfig& cfg, const quant::QuantSpec& spec)
        : code_(&require_group_parallel(code, cfg)),
          schedule_(cfg.schedule),
          table_(spec),
          mp_(code, cfg,
              GroupArith(cfg.rule, spec, cfg.rule == CheckRule::Exact ? &table_ : nullptr,
                         cfg.normalization, cfg.offset)),
          lanes_(cfg.rule, spec, cfg.rule == CheckRule::Exact ? &table_ : nullptr,
                 cfg.normalization, cfg.offset) {
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

    /// One iteration, leaving the state exactly as MpDecoder::step() would:
    /// vector blocks here, every other node through MpDecoder's ranges.
    /// Each phase takes the state view itself: a parameter of this TU's
    /// MpDecoder type would give the phase internal linkage, and GCC then
    /// folds it into step() as a function called once, which measured up
    /// to 10% slower on two-phase.
    void step() {
        variable_phase();
        mp_.begin_check_phase();
        if (schedule_ == Schedule::TwoPhase)
            check_phase_two_phase();
        else
            check_phase_zigzag_segmented();
        mp_.end_check_phase();
    }

    // ------------------------------------------------------ variable phase

    /// Information-node update vectorized across the lanes of each group
    /// (lane = information bit g·P+i, W bits in lockstep): wide totals with
    /// one saturation per produced message, exactly Eq. 4.
    void variable_phase() {
        const Mp::StateView st = mp_.state_view();
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
                Reg total = V::load(st.ch_in.data() + v0 + i);
                for (int d = 0; d < deg; ++d) {
                    msgs[d] = V::gather(st.c2v.data(), V::load(et + d * P + i));
                    total = V::add(total, msgs[d]);
                }
                for (int d = 0; d < deg; ++d) {
                    QLLR tmp[W];
                    V::store(tmp, lanes_.narrow(V::sub(total, msgs[d])));
                    const std::int32_t* ep = et + d * P + i;
                    for (int l = 0; l < W; ++l) st.v2c[static_cast<std::size_t>(ep[l])] = tmp[l];
                }
            }
            mp_.variable_nodes(v0 + i, v0 + P);
        }
        if (schedule_ == Schedule::TwoPhase) {
            // Parity nodes are degree-2 variable nodes. up[m−1] is
            // invariantly zero and pn_c[m−1] is never read, so full blocks
            // need no last-node special case.
            const int m = cp.m();
            int j = 0;
            for (; j + W <= m; j += W) {
                const Reg chp = V::load(st.ch_p.data() + j);
                V::store(st.pn_a.data() + j, lanes_.narrow(V::add(chp, V::load(st.up.data() + j))));
                V::store(st.pn_c.data() + j,
                         lanes_.narrow(V::add(chp, V::load(st.down.data() + j))));
            }
            mp_.parity_nodes(j, m);
        }
    }

    // --------------------------------------------------------- check phase

    /// Finalizes and scatters a block's information-edge outputs: lane l's
    /// edge for slot t is e_base + l·e_stride + t. Scalar stores (the write
    /// pattern is strided) on top of vectorized finalize; the posterior
    /// accumulation is exact integer addition, so order does not matter.
    void scatter_block(const Mp::StateView& st, const Reg* outs, int kc, long long e_base,
                       long long e_stride) {
        for (int t = 0; t < kc; ++t) {
            QLLR tmp[W];
            V::store(tmp, lanes_.finalize(outs[t]));
            for (int l = 0; l < W; ++l) {
                const long long e = e_base + static_cast<long long>(l) * e_stride + t;
                st.c2v[static_cast<std::size_t>(e)] = tmp[l];
                st.post_in[static_cast<std::size_t>(code_->edge_variable(e))] += tmp[l];
            }
        }
    }

    /// Two-phase flooding: every check node reads only variable-phase
    /// outputs, so all m CNs are independent — vector blocks of W
    /// consecutive CNs, with CN 0 (no left parity input, degree kc+1) and
    /// the remainder on MpDecoder's loop.
    void check_phase_two_phase() {
        const Mp::StateView st = mp_.state_view();
        const int m = code_->params().m();
        const int kc = code_->check_in_degree();
        mp_.check_nodes(0, 1);
        QLLR iota_kc[W];
        for (int l = 0; l < W; ++l) iota_kc[l] = l * kc;
        const Reg stride_kc = V::load(iota_kc);
        int j0 = 1;
        for (; j0 + W <= m; j0 += W) {
            Reg ins[kMaxCheckDegree];
            Reg outs[kMaxCheckDegree];
            Reg pre[kMaxCheckDegree];
            for (int t = 0; t < kc; ++t)
                ins[t] = V::gather(st.v2c.data(), V::add(V::broadcast(j0 * kc + t), stride_kc));
            ins[kc] = V::load(st.pn_c.data() + j0 - 1);  // left zigzag input
            ins[kc + 1] = V::load(st.pn_a.data() + j0);  // right zigzag input
            compute_extrinsics(lanes_, ins, kc + 2, outs, pre);
            scatter_block(st, outs, kc, static_cast<long long>(j0) * kc, kc);
            V::store(st.down.data() + j0, lanes_.finalize(outs[kc + 1]));
            V::store(st.up.data() + j0 - 1, lanes_.finalize(outs[kc]));
        }
        mp_.check_nodes(j0, m);
    }

    /// Segmented zigzag: FU f sweeps CNs f·q..(f+1)·q−1; lanes are W
    /// consecutive FUs in lockstep at common step r (see file header for the
    /// boundary snapshots). FU 0 (contains CN 0's short input list) and the
    /// remainder FUs run on MpDecoder's loop in ascending order.
    void check_phase_zigzag_segmented() {
        const Mp::StateView st = mp_.state_view();
        const auto& cp = code_->params();
        const int P = cp.parallelism;
        const int q = cp.q;
        const int kc = code_->check_in_degree();
        mp_.check_nodes(0, q);

        QLLR iota[W];
        for (int l = 0; l < W; ++l) iota[l] = l * q;
        const Reg stride_q = V::load(iota);
        for (int l = 0; l < W; ++l) iota[l] = l * q * kc;
        const Reg stride_qkc = V::load(iota);

        int f0 = 1;
        for (; f0 + W <= P; f0 += W) {
            QLLR upsnap[W];
            for (int l = 0; l < W; ++l)
                upsnap[l] = st.up[static_cast<std::size_t>((f0 + l + 1) * q - 1)];
            const Reg up_boundary = V::load(upsnap);
            for (int r = 0; r < q; ++r) {
                const int jb = f0 * q + r;  // lane l works on CN jb + l·q
                Reg ins[kMaxCheckDegree];
                Reg outs[kMaxCheckDegree];
                Reg pre[kMaxCheckDegree];
                for (int t = 0; t < kc; ++t)
                    ins[t] =
                        V::gather(st.v2c.data(), V::add(V::broadcast(jb * kc + t), stride_qkc));
                const Reg chp_prev =
                    V::gather(st.ch_p.data(), V::add(V::broadcast(jb - 1), stride_q));
                const Reg d_prev =
                    r == 0 ? V::load(st.boundary.data() + f0)
                           : V::gather(st.down.data(), V::add(V::broadcast(jb - 1), stride_q));
                ins[kc] = lanes_.narrow(V::add(chp_prev, d_prev));
                const Reg chp = V::gather(st.ch_p.data(), V::add(V::broadcast(jb), stride_q));
                const Reg up =
                    r == q - 1 ? up_boundary
                               : V::gather(st.up.data(), V::add(V::broadcast(jb), stride_q));
                ins[kc + 1] = lanes_.narrow(V::add(chp, up));
                compute_extrinsics(lanes_, ins, kc + 2, outs, pre);
                scatter_block(st, outs, kc, static_cast<long long>(jb) * kc,
                              static_cast<long long>(q) * kc);
                QLLR dtmp[W];
                QLLR utmp[W];
                V::store(dtmp, lanes_.finalize(outs[kc + 1]));
                V::store(utmp, lanes_.finalize(outs[kc]));
                for (int l = 0; l < W; ++l) {
                    st.down[static_cast<std::size_t>(jb + l * q)] = dtmp[l];
                    st.up[static_cast<std::size_t>(jb + l * q - 1)] = utmp[l];
                }
            }
        }
        mp_.check_nodes(f0 * q, cp.m());
    }

    const code::Dvbs2Code* code_;
    Schedule schedule_;
    quant::BoxplusTable table_;
    Mp mp_;
    sv::LaneFixedArith<V> lanes_;
    std::vector<std::int32_t> einfoT_;
    std::vector<std::size_t> einfoT_base_;
};

SimdFixedDecoder::SimdFixedDecoder(const code::Dvbs2Code& code, const DecoderConfig& cfg,
                                   const quant::QuantSpec& spec)
    : impl_(std::make_unique<Impl>(code, cfg, spec)) {}
SimdFixedDecoder::~SimdFixedDecoder() = default;
SimdFixedDecoder::SimdFixedDecoder(SimdFixedDecoder&&) noexcept = default;
SimdFixedDecoder& SimdFixedDecoder::operator=(SimdFixedDecoder&&) noexcept = default;

DecodeResult SimdFixedDecoder::decode_values(const std::vector<quant::QLLR>& ch) {
    DecodeResult result;
    decode_into(ch, result);
    return result;
}

void SimdFixedDecoder::decode_into(std::span<const quant::QLLR> ch, DecodeResult& out) {
    impl_->mp_.decode_into(ch, out, [this] { impl_->step(); });
}

void SimdFixedDecoder::run_iterations(std::span<const quant::QLLR> ch, int iters) {
    impl_->mp_.run_iterations(ch, iters, [this] { impl_->step(); });
}

const std::vector<quant::QLLR>& SimdFixedDecoder::c2v_messages() const noexcept {
    return impl_->mp_.c2v_messages();
}
const std::vector<quant::QLLR>& SimdFixedDecoder::v2c_messages() const noexcept {
    return impl_->mp_.v2c_messages();
}
const std::vector<quant::QLLR>& SimdFixedDecoder::backward_messages() const noexcept {
    return impl_->mp_.backward_messages();
}

void SimdFixedDecoder::set_observer(std::function<void(const IterationTrace&)> observer) {
    impl_->mp_.set_observer(std::move(observer));
}

}  // namespace dvbs2::core
