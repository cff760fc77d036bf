// Message-passing decoder engine, templated over the arithmetic back-end.
//
// Implements the four schedules of core/types.hpp on the IRA Tanner graph.
// The check-node input sequence convention is fixed and shared with the
// architecture model (arch/rtl_model): first the information-edge messages
// in slot order (optionally permuted by set_cn_order — the order in which
// the hardware schedule delivers them), then the left (forward zigzag)
// parity input, then the right (backward zigzag) parity input. Extrinsic
// outputs are computed with prefix/suffix combines over exactly this
// sequence, so a functional-unit model that consumes messages serially in
// the same order is bit-exact with this reference.
//
// Fused variable phase: an arithmetic that sets
// `static constexpr bool kFusedVariablePhase = true` (the frame-per-lane
// SIMD lanes, core/simd/batch_decoder.cpp) gets the same schedules without
// a v2c array and without the separate variable pass: the check phase reads
// each v2c_e = narrow(post_prev[v] − c2v_e) as it gathers, exactly as the
// layered sweep already does. post_prev is last iteration's information
// posterior, ch_v + Σ c2v — the very total the variable pass would have
// formed — so every message is unchanged; the posterior is double-buffered
// (the check phase accumulates the new one beside the one it reads). The
// scalar FixedArith/FloatArith instantiations stay unfused: they are the
// references, and their v2c_messages() feed the message-level tests.
//
// Node ranges: the two-phase and zigzag phases also run over a range of
// nodes (variable_nodes, parity_nodes, and check_nodes between
// begin_check_phase and end_check_phase), and decode_into/run_iterations
// take the iteration as a parameter. The group-parallel SIMD decoder
// (core/simd/simd_decoder.cpp) is built that way: its iteration runs vector
// blocks of independent nodes on the arrays of state_view() and hands every
// other node to these loops, while the decode loop, channel load,
// posteriors, hardening and traces stay this class's. A TU built with
// vector flags instantiates this template only over an arithmetic type of
// its own, so that no vector-flagged copy of a target-generic
// instantiation exists for the linker to pick.
//
// Internal header: include via core/decoder.hpp unless you are the
// architecture model or a test that needs the template directly.
#pragma once

#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "code/tanner.hpp"
#include "core/kernels.hpp"
#include "core/syndrome.hpp"
#include "core/types.hpp"
#include "util/error.hpp"

namespace dvbs2::core {

/// Maximum check-node total degree we support (DVB-S2 max is 30 for R=9/10).
inline constexpr int kMaxCheckDegree = 40;

/// Arithmetics that ask MpDecoder for the fused variable phase (see above).
template <class Arith>
concept FusesVariablePhase = Arith::kFusedVariablePhase;

template <class Arith>
class MpDecoder {
public:
    using Value = typename Arith::Value;
    using Wide = typename Arith::Wide;
    static constexpr bool kFused = FusesVariablePhase<Arith>;

    MpDecoder(const code::Dvbs2Code& code, const DecoderConfig& cfg, Arith arith)
        : code_(&code), cfg_(cfg), arith_(std::move(arith)) {
        const auto& cp = code.params();
        DVBS2_REQUIRE(cp.check_deg <= kMaxCheckDegree, "check degree exceeds kMaxCheckDegree");
        DVBS2_REQUIRE(cfg.max_iterations >= 0, "max_iterations must be non-negative");
        const auto e = static_cast<std::size_t>(cp.e_in());
        c2v_.resize(e);
        if constexpr (!kFused) v2c_.resize(e);
        const auto m = static_cast<std::size_t>(cp.m());
        down_.resize(m);
        up_.resize(m);  // up_[M-1] unused (p_{M-1} has degree 1), kept zero
        ch_in_.resize(static_cast<std::size_t>(cp.k));
        ch_p_.resize(m);
        post_in_.resize(static_cast<std::size_t>(cp.k));
        post_p_.resize(m);
        if (kFused && cfg.schedule != Schedule::Layered)
            post_acc_.resize(static_cast<std::size_t>(cp.k));
        if (cfg.schedule == Schedule::TwoPhase) {
            pn_a_.resize(m);
            pn_c_.resize(m);
        }
        if (cfg.schedule == Schedule::ZigzagMap) fwd_d_.resize(m);
        if (cfg.schedule == Schedule::ZigzagSegmented) {
            DVBS2_REQUIRE(cp.q >= 1, "segmented schedule needs q >= 1");
            boundary_snapshot_.resize(static_cast<std::size_t>(cp.parallelism));
        }
    }

    /// Sets the per-check-node processing order of the information edges:
    /// `order` has E_IN entries; for CN c, positions [c·kc, (c+1)·kc) hold a
    /// permutation of {0..kc−1} giving the slot processed at each position.
    /// An empty vector restores the canonical (slot) order.
    void set_cn_order(std::vector<int> order) {
        if (!order.empty())
            DVBS2_REQUIRE(order.size() == c2v_.size(), "cn order must cover all E_IN slots");
        cn_order_ = std::move(order);
    }

    /// Installs a per-iteration observer (empty function disables tracing).
    /// Convergence checks go through the shared core/syndrome.hpp routine:
    /// without an observer it runs the allocation-free early-exit walk, and
    /// only when early stopping or the final iteration needs a verdict; with
    /// an observer it hardens every iteration and switches the routine to
    /// counting mode (full O(E) syndrome weight, allocates the syndrome
    /// vector) because traces report the exact unsatisfied-check count.
    void set_observer(std::function<void(const IterationTrace&)> observer) {
        observer_ = std::move(observer);
    }

    /// Decodes from already-converted channel values (size N, decoder domain).
    DecodeResult decode_values(const std::vector<Value>& ch) {
        DecodeResult result;
        decode_into(ch, result);
        return result;
    }

    /// Non-allocating variant: decodes into caller-owned result storage.
    /// Once `out`'s BitVecs have been sized by a first call, steady-state
    /// calls perform no heap allocation (unless an observer is installed —
    /// tracing materializes a syndrome vector per iteration).
    void decode_into(std::span<const Value> ch, DecodeResult& out) {
        decode_into(ch, out, [this] { step(); });
    }

    /// decode_into with the caller's iteration in place of step(): `iterate`
    /// must leave the state exactly as step() would (the group-parallel SIMD
    /// decoder's vector-block iteration does).
    template <class Iterate>
    void decode_into(std::span<const Value> ch, DecodeResult& out, Iterate&& iterate) {
        begin(ch);
        int it = 0;
        bool converged = false;
        for (; it < cfg_.max_iterations && !converged; ) {
            iterate();
            ++it;
            const bool need_harden =
                cfg_.early_stop || it == cfg_.max_iterations || static_cast<bool>(observer_);
            if (need_harden) {
                harden(out.codeword);
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
        copy_info_bits(out);
    }

    // --- stepping API (used by the frame-per-lane batch engine, which needs
    // --- to interleave iterations with its own per-lane harden/early-stop) ---

    /// Loads the channel and resets all message state; pairs with step().
    void begin(std::span<const Value> ch) {
        const auto& cp = code_->params();
        DVBS2_REQUIRE(ch.size() == static_cast<std::size_t>(cp.n), "channel length mismatch");
        load_channel(ch);
        reset_state();
        if (kFused || cfg_.schedule == Schedule::Layered) init_posterior_totals();
    }

    /// begin() over the channel already held: zeroes all message state and
    /// sets the posterior totals to the channel. The frame-per-lane batch
    /// engine splices each lane's channel into ch_in/ch_p through
    /// state_view() first, so no lane-major copy of the channel exists.
    void begin_in_place()
        requires kFused
    {
        reset_state();
        init_posterior_totals();
    }

    /// Runs one full iteration (variable phase + check phase); posteriors
    /// are valid afterwards via posterior_in()/posterior_p(). Fused, only
    /// the two-phase schedule's O(m) parity-node pass runs before the check
    /// phase.
    void step() {
        const auto& cp = code_->params();
        if constexpr (!kFused) {
            if (cfg_.schedule != Schedule::Layered) variable_nodes(0, cp.k);
        }
        if (cfg_.schedule == Schedule::TwoPhase) parity_nodes(0, cp.m());
        check_phase();
    }

    /// Posterior totals after step(): information nodes, then parity nodes.
    const std::vector<Wide>& posterior_in() const noexcept { return post_in_; }
    const std::vector<Wide>& posterior_p() const noexcept { return post_p_; }

    /// Mutable access to the arithmetic back-end, so a test can attach a
    /// core::RangeProbe to the fixed arithmetic and read the real decode's
    /// pre-saturation peaks (the range-certification witness tier).
    Arith& arith() noexcept { return arith_; }
    /// Loaded channel values (begin() must have run): information / parity.
    const std::vector<Value>& channel_in() const noexcept { return ch_in_; }
    const std::vector<Value>& channel_p() const noexcept { return ch_p_; }

    /// Read-only access to the message state (used by the bit-exactness
    /// experiments to compare against the architecture model). A fused
    /// decoder keeps no v2c array.
    const std::vector<Value>& c2v_messages() const noexcept { return c2v_; }
    const std::vector<Value>& v2c_messages() const noexcept
        requires(!kFused)
    {
        return v2c_;
    }
    const std::vector<Value>& backward_messages() const noexcept { return up_; }

    /// Runs exactly `iters` iterations without early stopping and without
    /// hardening (for message-level comparisons).
    void run_iterations(std::span<const Value> ch, int iters) {
        run_iterations(ch, iters, [this] { step(); });
    }
    template <class Iterate>
    void run_iterations(std::span<const Value> ch, int iters, Iterate&& iterate) {
        begin(ch);
        for (int it = 0; it < iters; ++it) iterate();
    }

    /// Mutable views over the decoder state; arrays an instantiation or
    /// schedule does not keep are empty (v2c when fused, pn_a/pn_c outside
    /// two-phase, boundary outside segmented).
    ///
    /// The frame-per-lane batch engine (fused) retires one SIMD lane in
    /// place and splices a fresh frame into it between step() calls (lane
    /// compaction): zeroing lane l of c2v/down/up and rewriting lane l of
    /// ch_in/ch_p and of the posterior totals with the new channel
    /// re-creates exactly the per-lane state begin() builds for a fresh
    /// frame. The totals carry cross-iteration state on every schedule —
    /// the fused reads take post_prev from post_in, and the Layered sweep
    /// keeps running totals in both. The per-schedule scratch arrays
    /// (pn_a_/pn_c_, fwd_d_, the segment-boundary snapshots, the posterior
    /// accumulation buffer) are recomputed from this state each iteration
    /// before being read, so they need no reset.
    ///
    /// The group-parallel SIMD decoder (unfused) runs its vector blocks on
    /// these arrays between the node-range calls below.
    struct StateView {
        std::span<Value> c2v, v2c, down, up;
        std::span<Value> pn_a, pn_c, boundary;
        std::span<Value> ch_in, ch_p;
        std::span<Wide> post_in, post_p;
    };
    StateView state_view() {
        return {c2v_, v2c_, down_, up_, pn_a_, pn_c_, boundary_snapshot_,
                ch_in_, ch_p_, post_in_, post_p_};
    }

    // --- one iteration over node ranges: step() is variable_nodes over all
    // --- K (unfused), parity_nodes over all m (two-phase), then
    // --- begin_check_phase, check_nodes over all m and end_check_phase
    // --- (Layered and MAP sweep their check phase whole).

    /// Information-node update (Eq. 4) of nodes [v_begin, v_end): extrinsic
    /// sum with wide accumulation and a single saturation per produced
    /// message — exactly the serial functional-unit datapath.
    void variable_nodes(int v_begin, int v_end)
        requires(!kFused)
    {
        for (int v = v_begin; v < v_end; ++v) {
            const int deg = code_->info_degree(v);
            const long long* edges = code_->info_edges(v);
            Wide total = arith_.to_wide(ch_in_[static_cast<std::size_t>(v)]);
            for (int d = 0; d < deg; ++d)
                total += arith_.to_wide(c2v_[static_cast<std::size_t>(edges[d])]);
            for (int d = 0; d < deg; ++d) {
                const auto e = static_cast<std::size_t>(edges[d]);
                v2c_[e] = arith_.narrow(total - arith_.to_wide(c2v_[e]));
            }
        }
    }

    /// Two-phase parity nodes [j_begin, j_end), updated like any degree-2
    /// variable node.
    void parity_nodes(int j_begin, int j_end) {
        const int m = code_->params().m();
        for (int j = j_begin; j < j_end; ++j) {
            const Wide chp = arith_.to_wide(ch_p_[static_cast<std::size_t>(j)]);
            const Wide up = j < m - 1 ? arith_.to_wide(up_[static_cast<std::size_t>(j)])
                                      : Wide(arith_.zero());
            pn_a_[static_cast<std::size_t>(j)] = arith_.narrow(chp + up);
            if (j < m - 1)
                pn_c_[static_cast<std::size_t>(j)] =
                    arith_.narrow(chp + arith_.to_wide(down_[static_cast<std::size_t>(j)]));
        }
    }

    /// Opens a two-phase or zigzag check phase: seeds the information
    /// posterior with the channel and, segmented, snapshots the segment
    /// boundaries (in the hardware, FU f starts its local chain at CN f·q
    /// with last iteration's forward value) before the sweep overwrites
    /// down_.
    void begin_check_phase() {
        const auto& cp = code_->params();
        std::vector<Wide>& acc = posterior_acc();
        for (int v = 0; v < cp.k; ++v)
            acc[static_cast<std::size_t>(v)] = arith_.to_wide(ch_in_[static_cast<std::size_t>(v)]);
        if (cfg_.schedule == Schedule::ZigzagSegmented) {
            for (int f = 1; f < cp.parallelism; ++f)
                boundary_snapshot_[static_cast<std::size_t>(f)] =
                    down_[static_cast<std::size_t>(f * cp.q - 1)];
        }
    }

    /// Check nodes [j_begin, j_end) of the two-phase or zigzag (forward or
    /// segmented) sweep; ranges of one phase are run in ascending order.
    void check_nodes(int j_begin, int j_end) {
        switch (cfg_.schedule) {
            case Schedule::TwoPhase: two_phase_nodes(j_begin, j_end); break;
            case Schedule::ZigzagForward: zigzag_nodes(j_begin, j_end, /*segmented=*/false); break;
            case Schedule::ZigzagSegmented: zigzag_nodes(j_begin, j_end, /*segmented=*/true); break;
            case Schedule::ZigzagMap:
            case Schedule::Layered: DVBS2_ASSERT(!"check_nodes: no node ranges on this schedule");
        }
    }

    /// Closes a check phase: the parity posteriors, and the fused decoder's
    /// new information posterior.
    void end_check_phase() {
        const auto& cp = code_->params();
        const int m = cp.m();
        for (int j = 0; j < m; ++j) {
            Wide t = arith_.to_wide(ch_p_[static_cast<std::size_t>(j)]) +
                     arith_.to_wide(down_[static_cast<std::size_t>(j)]);
            if (j < m - 1) t += arith_.to_wide(up_[static_cast<std::size_t>(j)]);
            post_p_[static_cast<std::size_t>(j)] = t;
        }
        if constexpr (kFused) post_in_.swap(post_acc_);
    }

private:
    void load_channel(std::span<const Value> ch) {
        const auto& cp = code_->params();
        for (int v = 0; v < cp.k; ++v) ch_in_[static_cast<std::size_t>(v)] = ch[static_cast<std::size_t>(v)];
        for (int j = 0; j < cp.m(); ++j)
            ch_p_[static_cast<std::size_t>(j)] = ch[static_cast<std::size_t>(cp.k + j)];
    }

    void reset_state() {
        const Value z = arith_.zero();
        std::fill(c2v_.begin(), c2v_.end(), z);
        std::fill(v2c_.begin(), v2c_.end(), z);  // empty when fused
        std::fill(down_.begin(), down_.end(), z);
        std::fill(up_.begin(), up_.end(), z);
    }

    void check_phase() {
        if (cfg_.schedule == Schedule::Layered) {
            check_phase_layered();
            return;
        }
        begin_check_phase();
        if (cfg_.schedule == Schedule::ZigzagMap)
            check_phase_map();
        else
            check_nodes(0, code_->params().m());
        end_check_phase();
    }

    /// Prefix/suffix extrinsic computation over the canonical input sequence
    /// (delegates to the kernel shared with the architecture model).
    void extrinsics(const Value* ins, int d, Value* outs) const {
        DVBS2_ASSERT(d >= 2 && d <= kMaxCheckDegree);
        Value pre[kMaxCheckDegree];
        compute_extrinsics(arith_, ins, d, outs, pre);
    }

    /// Gathers CN c's information-edge inputs (respecting cn_order_) into
    /// ins[0..kc); returns the slot index processed at each position.
    /// Fused, each input is formed here from last iteration's posterior and
    /// the edge's own c2v, which this iteration has not overwritten yet.
    int gather_in_edges(int c, Value* ins, int* slots) const {
        const int kc = code_->check_in_degree();
        const long long base = static_cast<long long>(c) * kc;
        for (int t = 0; t < kc; ++t) {
            const int slot =
                cn_order_.empty() ? t : cn_order_[static_cast<std::size_t>(base + t)];
            slots[t] = slot;
            const long long e = base + slot;
            if constexpr (kFused)
                ins[t] = arith_.narrow(
                    post_in_[static_cast<std::size_t>(code_->edge_variable(e))] -
                    arith_.to_wide(c2v_[static_cast<std::size_t>(e)]));
            else
                ins[t] = v2c_[static_cast<std::size_t>(e)];
        }
        return kc;
    }

    /// The information posterior the check phase accumulates into: the
    /// second buffer when fused (post_in_ still holds post_prev), else
    /// post_in_ itself.
    std::vector<Wide>& posterior_acc() noexcept {
        if constexpr (kFused)
            return post_acc_;
        else
            return post_in_;
    }

    void scatter_outputs(int c, const Value* outs, const int* slots, int kc) {
        const long long base = static_cast<long long>(c) * kc;
        std::vector<Wide>& acc = posterior_acc();
        for (int t = 0; t < kc; ++t) {
            const auto e = static_cast<std::size_t>(base + slots[t]);
            const Value msg = arith_.finalize(outs[t]);
            c2v_[e] = msg;
            acc[static_cast<std::size_t>(code_->edge_variable(static_cast<long long>(e)))] +=
                arith_.to_wide(msg);
        }
    }

    void two_phase_nodes(int j_begin, int j_end) {
        const int kc = code_->check_in_degree();
        Value ins[kMaxCheckDegree];
        Value outs[kMaxCheckDegree];
        int slots[kMaxCheckDegree];
        for (int j = j_begin; j < j_end; ++j) {
            int d = gather_in_edges(j, ins, slots);
            const int left_pos = j > 0 ? d : -1;
            if (j > 0) ins[d++] = pn_c_[static_cast<std::size_t>(j - 1)];
            const int right_pos = d;
            ins[d++] = pn_a_[static_cast<std::size_t>(j)];
            extrinsics(ins, d, outs);
            scatter_outputs(j, outs, slots, kc);
            down_[static_cast<std::size_t>(j)] = arith_.finalize(outs[right_pos]);
            if (j > 0) up_[static_cast<std::size_t>(j - 1)] = arith_.finalize(outs[left_pos]);
        }
    }

    /// Segmented, CN f·q reads FU f's boundary snapshot (begin_check_phase)
    /// in place of down_[f·q − 1].
    void zigzag_nodes(int j_begin, int j_end, bool segmented) {
        const auto& cp = code_->params();
        const int m = cp.m();
        const int q = cp.q;
        const int kc = code_->check_in_degree();
        Value ins[kMaxCheckDegree];
        Value outs[kMaxCheckDegree];
        int slots[kMaxCheckDegree];
        for (int j = j_begin; j < j_end; ++j) {
            int d = gather_in_edges(j, ins, slots);
            int left_pos = -1;
            if (j > 0) {
                const bool at_boundary = segmented && (j % q == 0);
                const Value d_prev = at_boundary
                                         ? boundary_snapshot_[static_cast<std::size_t>(j / q)]
                                         : down_[static_cast<std::size_t>(j - 1)];
                left_pos = d;
                ins[d++] = arith_.narrow(arith_.to_wide(ch_p_[static_cast<std::size_t>(j - 1)]) +
                                         arith_.to_wide(d_prev));
            }
            const int right_pos = d;
            const Wide chp = arith_.to_wide(ch_p_[static_cast<std::size_t>(j)]);
            ins[d++] = j < m - 1
                           ? arith_.narrow(chp + arith_.to_wide(up_[static_cast<std::size_t>(j)]))
                           : arith_.narrow(chp);
            extrinsics(ins, d, outs);
            scatter_outputs(j, outs, slots, kc);
            down_[static_cast<std::size_t>(j)] = arith_.finalize(outs[right_pos]);
            if (j > 0) up_[static_cast<std::size_t>(j - 1)] = arith_.finalize(outs[left_pos]);
        }
    }

    void check_phase_map() {
        const auto& cp = code_->params();
        const int m = cp.m();
        const int kc = code_->check_in_degree();
        Value ins[kMaxCheckDegree];
        Value outs[kMaxCheckDegree];
        int slots[kMaxCheckDegree];

        // Forward sweep: fresh d_j along the chain (right input from the
        // previous iteration's backward messages).
        for (int j = 0; j < m; ++j) {
            int d = gather_in_edges(j, ins, slots);
            if (j > 0)
                ins[d++] = arith_.narrow(arith_.to_wide(ch_p_[static_cast<std::size_t>(j - 1)]) +
                                         arith_.to_wide(fwd_d_[static_cast<std::size_t>(j - 1)]));
            const int right_pos = d;
            const Wide chp = arith_.to_wide(ch_p_[static_cast<std::size_t>(j)]);
            ins[d++] = j < m - 1
                           ? arith_.narrow(chp + arith_.to_wide(up_[static_cast<std::size_t>(j)]))
                           : arith_.narrow(chp);
            extrinsics(ins, d, outs);
            fwd_d_[static_cast<std::size_t>(j)] = arith_.finalize(outs[right_pos]);
        }
        // Backward sweep: fresh u_j, fresh outputs to the information nodes.
        for (int j = m - 1; j >= 0; --j) {
            int d = gather_in_edges(j, ins, slots);
            int left_pos = -1;
            if (j > 0) {
                left_pos = d;
                ins[d++] = arith_.narrow(arith_.to_wide(ch_p_[static_cast<std::size_t>(j - 1)]) +
                                         arith_.to_wide(fwd_d_[static_cast<std::size_t>(j - 1)]));
            }
            const Wide chp = arith_.to_wide(ch_p_[static_cast<std::size_t>(j)]);
            ins[d++] = j < m - 1
                           ? arith_.narrow(chp + arith_.to_wide(up_[static_cast<std::size_t>(j)]))
                           : arith_.narrow(chp);
            extrinsics(ins, d, outs);
            scatter_outputs(j, outs, slots, kc);
            if (j > 0) up_[static_cast<std::size_t>(j - 1)] = arith_.finalize(outs[left_pos]);
        }
        for (int j = 0; j < m; ++j) down_[static_cast<std::size_t>(j)] = fwd_d_[static_cast<std::size_t>(j)];
    }

    /// Mean |posterior| over all N variable nodes, in decoder units
    /// (raw integer steps for the fixed back-end).
    double mean_abs_posterior() const {
        double sum = 0.0;
        for (const Wide& w : post_in_) sum += std::fabs(static_cast<double>(w));
        for (const Wide& w : post_p_) sum += std::fabs(static_cast<double>(w));
        return sum / static_cast<double>(post_in_.size() + post_p_.size());
    }

    /// Seeds the posterior totals with the channel: Layered's running
    /// totals, and the fused reads' post_prev for the first iteration (no
    /// c2v has arrived yet).
    void init_posterior_totals() {
        const auto& cp = code_->params();
        for (int v = 0; v < cp.k; ++v)
            post_in_[static_cast<std::size_t>(v)] =
                arith_.to_wide(ch_in_[static_cast<std::size_t>(v)]);
        for (int j = 0; j < cp.m(); ++j)
            post_p_[static_cast<std::size_t>(j)] =
                arith_.to_wide(ch_p_[static_cast<std::size_t>(j)]);
    }

    /// Row-layered sweep: each check node reads fresh variable-to-check
    /// messages as (running total − its own previous contribution), then
    /// folds the new extrinsics back into the totals immediately.
    void check_phase_layered() {
        const auto& cp = code_->params();
        const int m = cp.m();
        const int kc = code_->check_in_degree();
        Value ins[kMaxCheckDegree];
        Value outs[kMaxCheckDegree];
        int slots[kMaxCheckDegree];
        for (int j = 0; j < m; ++j) {
            const long long base = static_cast<long long>(j) * kc;
            int d = 0;
            for (int t = 0; t < kc; ++t) {
                const int slot =
                    cn_order_.empty() ? t : cn_order_[static_cast<std::size_t>(base + t)];
                slots[t] = slot;
                const auto e = static_cast<std::size_t>(base + slot);
                const int v = code_->edge_variable(static_cast<long long>(e));
                ins[d++] = arith_.narrow(post_in_[static_cast<std::size_t>(v)] -
                                         arith_.to_wide(c2v_[e]));
            }
            int left_pos = -1;
            if (j > 0) {
                left_pos = d;
                ins[d++] = arith_.narrow(post_p_[static_cast<std::size_t>(j - 1)] -
                                         arith_.to_wide(up_[static_cast<std::size_t>(j - 1)]));
            }
            const int right_pos = d;
            ins[d++] = arith_.narrow(post_p_[static_cast<std::size_t>(j)] -
                                     arith_.to_wide(down_[static_cast<std::size_t>(j)]));
            extrinsics(ins, d, outs);
            for (int t = 0; t < kc; ++t) {
                const auto e = static_cast<std::size_t>(base + slots[t]);
                const int v = code_->edge_variable(static_cast<long long>(e));
                const Value fresh = arith_.finalize(outs[t]);
                post_in_[static_cast<std::size_t>(v)] +=
                    arith_.to_wide(fresh) - arith_.to_wide(c2v_[e]);
                c2v_[e] = fresh;
            }
            if (j > 0) {
                const Value fresh = arith_.finalize(outs[left_pos]);
                post_p_[static_cast<std::size_t>(j - 1)] +=
                    arith_.to_wide(fresh) - arith_.to_wide(up_[static_cast<std::size_t>(j - 1)]);
                up_[static_cast<std::size_t>(j - 1)] = fresh;
            }
            const Value fresh_d = arith_.finalize(outs[right_pos]);
            post_p_[static_cast<std::size_t>(j)] +=
                arith_.to_wide(fresh_d) - arith_.to_wide(down_[static_cast<std::size_t>(j)]);
            down_[static_cast<std::size_t>(j)] = fresh_d;
        }
    }

    /// Bit v of the codeword is set iff variable v's posterior is negative
    /// (its channel value when no iteration ran), 64 bits per word store.
    void harden(util::BitVec& codeword) const {
        const auto& cp = code_->params();
        const auto n = static_cast<std::size_t>(cp.n);
        const auto k = static_cast<std::size_t>(cp.k);
        if (codeword.size() != n) codeword = util::BitVec(n);
        if (cfg_.max_iterations == 0) {
            codeword.assign([&](std::size_t i) {
                return arith_.is_negative(arith_.to_wide(i < k ? ch_in_[i] : ch_p_[i - k]));
            });
            return;
        }
        codeword.assign([&](std::size_t i) {
            return arith_.is_negative(i < k ? post_in_[i] : post_p_[i - k]);
        });
    }

    /// Copies the K information bits out of the hardened codeword, reusing
    /// `out.info_bits` storage when already correctly sized.
    void copy_info_bits(DecodeResult& out) const {
        const auto k = static_cast<std::size_t>(code_->params().k);
        if (out.info_bits.size() != k) out.info_bits = util::BitVec(k);
        out.info_bits.assign_prefix(out.codeword);
    }

    const code::Dvbs2Code* code_;
    DecoderConfig cfg_;
    Arith arith_;

    std::vector<Value> c2v_, v2c_;          // information-edge messages (no v2c_ when fused)
    std::vector<Value> down_, up_;          // zigzag messages (CN_j→p_j, CN_{j+1}→p_j)
    std::vector<Value> pn_a_, pn_c_;        // two-phase parity v2c messages
    std::vector<Value> fwd_d_;              // MAP forward storage
    std::vector<Value> boundary_snapshot_;  // segmented-schedule FU boundaries
    std::vector<Value> ch_in_, ch_p_;
    std::vector<Wide> post_in_, post_p_;
    std::vector<Wide> post_acc_;            // fused: the posterior being accumulated
    std::vector<int> cn_order_;
    std::function<void(const IterationTrace&)> observer_;
};

}  // namespace dvbs2::core
