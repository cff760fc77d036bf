#include "arch/rtl_model.hpp"

#include "core/arith.hpp"
#include "core/kernels.hpp"
#include "core/mp_decoder.hpp"
#include "util/error.hpp"

namespace dvbs2::arch {

using quant::QLLR;

struct RtlDecoder::Impl {
    Impl(const code::Dvbs2Code& code_in, const HardwareMapping& mapping_in, const RtlConfig& cfg_in)
        : code(&code_in),
          mapping(&mapping_in),
          cfg(cfg_in),
          table(cfg_in.spec),
          arith(cfg_in.decoder.rule, cfg_in.spec,
                cfg_in.decoder.rule == core::CheckRule::Exact ? &table : nullptr,
                cfg_in.decoder.normalization, cfg_in.decoder.offset) {
        const auto& cp = code->params();
        DVBS2_REQUIRE(&mapping->code() == code, "mapping belongs to a different code");
        const auto words = static_cast<std::size_t>(mapping->ram_words());
        const auto p = static_cast<std::size_t>(cp.parallelism);
        ram.assign(words, std::vector<QLLR>(p, 0));
        ch_in.assign(static_cast<std::size_t>(cp.k), 0);
        ch_p.assign(static_cast<std::size_t>(cp.m()), 0);
        up.assign(static_cast<std::size_t>(cp.m()), 0);
        down.assign(static_cast<std::size_t>(cp.m()), 0);
        boundary.assign(p, 0);
        post_in.assign(static_cast<std::size_t>(cp.k), 0);
        post_p.assign(static_cast<std::size_t>(cp.m()), 0);
        fu_inputs.assign(p, std::vector<QLLR>(static_cast<std::size_t>(cp.check_deg), 0));
    }

    void load_channel(const std::vector<QLLR>& ch) {
        const auto& cp = code->params();
        DVBS2_REQUIRE(ch.size() == static_cast<std::size_t>(cp.n), "channel length mismatch");
        for (int v = 0; v < cp.k; ++v) ch_in[static_cast<std::size_t>(v)] = ch[static_cast<std::size_t>(v)];
        for (int j = 0; j < cp.m(); ++j)
            ch_p[static_cast<std::size_t>(j)] = ch[static_cast<std::size_t>(cp.k + j)];
    }

    void reset() {
        for (auto& word : ram) std::fill(word.begin(), word.end(), 0);
        std::fill(up.begin(), up.end(), 0);
        std::fill(down.begin(), down.end(), 0);
        std::fill(boundary.begin(), boundary.end(), 0);
    }

    /// Variable-node phase: sequential address sweep; FU i serially
    /// accumulates the messages of node (g, i) and writes the extrinsic sums
    /// back to the same addresses (no shuffle needed in this phase — the
    /// storage is information-node aligned).
    void variable_phase() {
        const auto& cp = code->params();
        const int p = cp.parallelism;
        for (int g = 0; g < cp.groups(); ++g) {
            const int base = mapping->row_base(g);
            const int deg = g < cp.groups_hi() ? cp.deg_hi : cp.deg_lo;
            for (int lane = 0; lane < p; ++lane) {
                const int v = g * p + lane;
                QLLR total = ch_in[static_cast<std::size_t>(v)];
                for (int l = 0; l < deg; ++l)
                    total += ram[static_cast<std::size_t>(base + l)][static_cast<std::size_t>(lane)];
                for (int l = 0; l < deg; ++l) {
                    auto& cell = ram[static_cast<std::size_t>(base + l)][static_cast<std::size_t>(lane)];
                    cell = quant::saturate(total - cell, cfg.spec);
                }
            }
        }
    }

    /// Check-node phase: the ROM slot sweep. Runs of kc slots feed each FU's
    /// current local check node; at the end of a run, every FU combines its
    /// serial inputs with the forward register and the stored backward
    /// message, then the outputs are written back through the inverse
    /// shuffle. The forward value crosses into the next local CN inside the
    /// FU; the backward output to the previous CN crosses FU boundaries for
    /// local index 0 (neighbour link, one message per FU).
    void check_phase() {
        const auto& cp = code->params();
        const int p = cp.parallelism;
        const int q = cp.q;
        const int m = cp.m();
        const int kc = mapping->slots_per_cn();
        const auto& slots = mapping->slots();

        // Posterior accumulators restart each check phase.
        for (int v = 0; v < cp.k; ++v)
            post_in[static_cast<std::size_t>(v)] = ch_in[static_cast<std::size_t>(v)];

        // Per-FU forward registers: at local CN 0 they hold the boundary
        // value handed over from the previous iteration.
        std::vector<QLLR> fwd(boundary);

        // Backward boundary latch: FU f's last local CN (c = f·q+q−1) reads
        // up[c], which FU f+1 *rewrites* in its first run of this very
        // phase. The hardware (and the sequential reference schedule) uses
        // the previous iteration's value, so latch it before the sweep.
        std::vector<QLLR> up_boundary_old(static_cast<std::size_t>(p), 0);
        for (int f = 0; f + 1 < p; ++f)
            up_boundary_old[static_cast<std::size_t>(f)] =
                up[static_cast<std::size_t>(q * f + q - 1)];

        QLLR ins[core::kMaxCheckDegree];
        QLLR outs[core::kMaxCheckDegree];
        QLLR pre[core::kMaxCheckDegree];

        for (int r = 0; r < q; ++r) {
            // kc read cycles: shuffle-aligned words accumulate in the FUs.
            for (int t = 0; t < kc; ++t) {
                const RomSlot& s = slots[static_cast<std::size_t>(r * kc + t)];
                const auto& word = ram[static_cast<std::size_t>(s.addr)];
                for (int f = 0; f < p; ++f) {
                    const int lane = ((f - s.shift) % p + p) % p;
                    fu_inputs[static_cast<std::size_t>(f)][static_cast<std::size_t>(t)] =
                        word[static_cast<std::size_t>(lane)];
                }
            }
            // Output stage per FU.
            for (int f = 0; f < p; ++f) {
                const int c = q * f + r;
                int d = 0;
                for (int t = 0; t < kc; ++t)
                    ins[d++] = fu_inputs[static_cast<std::size_t>(f)][static_cast<std::size_t>(t)];
                int left_pos = -1;
                if (c > 0) {
                    left_pos = d;
                    ins[d++] = quant::saturate(
                        ch_p[static_cast<std::size_t>(c - 1)] + fwd[static_cast<std::size_t>(f)],
                        cfg.spec);
                }
                const int right_pos = d;
                const QLLR up_in = (r == q - 1 && c < m - 1)
                                       ? up_boundary_old[static_cast<std::size_t>(f)]
                                       : up[static_cast<std::size_t>(c)];
                ins[d++] = c < m - 1
                               ? quant::saturate(ch_p[static_cast<std::size_t>(c)] + up_in,
                                                 cfg.spec)
                               : quant::saturate(ch_p[static_cast<std::size_t>(c)], cfg.spec);
                core::compute_extrinsics(arith, ins, d, outs, pre);
                for (int t = 0; t < kc; ++t)
                    fu_inputs[static_cast<std::size_t>(f)][static_cast<std::size_t>(t)] =
                        arith.finalize(outs[t]);
                const QLLR d_out = arith.finalize(outs[right_pos]);
                down[static_cast<std::size_t>(c)] = d_out;
                fwd[static_cast<std::size_t>(f)] = d_out;
                if (c > 0) up[static_cast<std::size_t>(c - 1)] = arith.finalize(outs[left_pos]);
            }
            // Write-back cycles: inverse shuffle to the original lanes.
            for (int t = 0; t < kc; ++t) {
                const RomSlot& s = slots[static_cast<std::size_t>(r * kc + t)];
                auto& word = ram[static_cast<std::size_t>(s.addr)];
                for (int f = 0; f < p; ++f) {
                    const int lane = ((f - s.shift) % p + p) % p;
                    const QLLR msg =
                        fu_inputs[static_cast<std::size_t>(f)][static_cast<std::size_t>(t)];
                    word[static_cast<std::size_t>(lane)] = msg;
                    post_in[static_cast<std::size_t>(mapping->variable_of(s, f))] += msg;
                }
            }
        }

        // Boundary hand-off for the next iteration: FU f starts at CN f·q,
        // whose forward input is the last forward output of FU f−1.
        for (int f = p - 1; f >= 1; --f) boundary[static_cast<std::size_t>(f)] = fwd[static_cast<std::size_t>(f - 1)];
        boundary[0] = 0;  // CN 0 has no left parity input

        // Parity posteriors.
        for (int j = 0; j < m; ++j) {
            QLLR t = ch_p[static_cast<std::size_t>(j)] + down[static_cast<std::size_t>(j)];
            if (j < m - 1) t += up[static_cast<std::size_t>(j)];
            post_p[static_cast<std::size_t>(j)] = t;
        }
    }

    void harden(util::BitVec& cw) const {
        const auto& cp = code->params();
        cw = util::BitVec(static_cast<std::size_t>(cp.n));
        for (int v = 0; v < cp.k; ++v)
            if (post_in[static_cast<std::size_t>(v)] < 0) cw.set(static_cast<std::size_t>(v), true);
        for (int j = 0; j < cp.m(); ++j)
            if (post_p[static_cast<std::size_t>(j)] < 0)
                cw.set(static_cast<std::size_t>(cp.k + j), true);
    }

    const code::Dvbs2Code* code;
    const HardwareMapping* mapping;
    RtlConfig cfg;
    quant::BoxplusTable table;
    core::FixedArith arith;

    std::vector<std::vector<QLLR>> ram;  // [address][lane]
    std::vector<QLLR> ch_in, ch_p;       // channel RAMs
    std::vector<QLLR> up, down;          // PN message RAM + posterior support
    std::vector<QLLR> boundary;          // per-FU forward boundary registers
    std::vector<QLLR> post_in, post_p;
    std::vector<std::vector<QLLR>> fu_inputs;
};

RtlDecoder::RtlDecoder(const code::Dvbs2Code& code, const HardwareMapping& mapping,
                       const RtlConfig& cfg)
    : impl_(std::make_unique<Impl>(code, mapping, cfg)) {}
RtlDecoder::~RtlDecoder() = default;
RtlDecoder::RtlDecoder(RtlDecoder&&) noexcept = default;
RtlDecoder& RtlDecoder::operator=(RtlDecoder&&) noexcept = default;

core::DecodeResult RtlDecoder::decode_raw(const std::vector<QLLR>& ch) {
    auto& im = *impl_;
    const auto& cp = im.code->params();
    im.load_channel(ch);
    im.reset();

    core::DecodeResult result;
    int it = 0;
    bool converged = false;
    const auto& dc = im.cfg.decoder;
    while (it < dc.max_iterations && !converged) {
        im.variable_phase();
        im.check_phase();
        ++it;
        if (dc.early_stop || it == dc.max_iterations) {
            im.harden(result.codeword);
            converged = dc.early_stop && im.code->is_codeword(result.codeword);
        }
    }
    if (dc.max_iterations == 0) im.harden(result.codeword);
    if (!dc.early_stop && dc.max_iterations > 0)
        converged = im.code->is_codeword(result.codeword);
    result.iterations = it;
    result.converged = converged;
    result.info_bits = util::BitVec(static_cast<std::size_t>(cp.k));
    for (int v = 0; v < cp.k; ++v)
        if (result.codeword.get(static_cast<std::size_t>(v)))
            result.info_bits.set(static_cast<std::size_t>(v), true);
    return result;
}

core::DecodeResult RtlDecoder::decode(const std::vector<double>& llr) {
    std::vector<QLLR> q(llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i) q[i] = quant::quantize(llr[i], impl_->cfg.spec);
    return decode_raw(q);
}

void RtlDecoder::run_iterations(const std::vector<QLLR>& ch, int iters) {
    auto& im = *impl_;
    im.load_channel(ch);
    im.reset();
    for (int i = 0; i < iters; ++i) {
        im.variable_phase();
        im.check_phase();
    }
}

std::vector<QLLR> RtlDecoder::dump_c2v_canonical() const {
    const auto& im = *impl_;
    const auto& cp = im.code->params();
    const int p = cp.parallelism;
    std::vector<QLLR> c2v(static_cast<std::size_t>(cp.e_in()), 0);
    for (const auto& s : im.mapping->slots()) {
        const auto& word = im.ram[static_cast<std::size_t>(s.addr)];
        for (int f = 0; f < p; ++f) {
            const int lane = ((f - s.shift) % p + p) % p;
            c2v[static_cast<std::size_t>(im.mapping->edge_of(s, f))] =
                word[static_cast<std::size_t>(lane)];
        }
    }
    return c2v;
}

IterationStats RtlDecoder::iteration_stats() const {
    return simulate_iteration(*impl_->mapping, impl_->cfg.memory);
}

long long RtlDecoder::total_cycles(int iterations, int io_parallelism) const {
    const auto st = iteration_stats();
    const auto& cp = impl_->code->params();
    const long long io = (cp.n + io_parallelism - 1) / io_parallelism;
    return io + static_cast<long long>(iterations) * st.cycles_per_iteration();
}

}  // namespace dvbs2::arch
