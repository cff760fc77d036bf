// SIMD decoder bench — single-thread throughput of the two SIMD fixed-point
// lane mappings vs the scalar MpDecoder<FixedArith> reference, per schedule,
// on the full-size code:
//
//   * group-parallel (lane = functional unit): single-frame decoding,
//     TwoPhase and ZigzagSegmented schedules only;
//   * frame-per-lane (lane = frame): batched decoding of W frames in
//     lockstep, every schedule; each row reports the lane count W and lane
//     width (16 or 32 bits) the decoder picked from the range certificate.
//
// Every timed channel vector is also used for a message-level bit-exactness
// check (c2v / v2c / backward state for the group engine, per-lane c2v
// extraction for the batch engine); any divergence makes the bench exit
// nonzero, so the CI perf-smoke job doubles as an end-to-end equivalence
// gate.
//
// A second section measures per-lane early termination with lane compaction
// (decode_stream) on real noisy frames at an operating SNR: fixed-budget vs
// early-stopping effective throughput, mean iterations, and a frame-by-frame
// equivalence gate against the scalar early-stopping reference (codeword,
// iteration count and converged flag must match bit for bit; any divergence
// makes the bench exit nonzero).
//
// Timing: the engines of one row (scalar, group, batch; in the second
// section the scalar early-stopping reference and the two streams) are
// timed in 5 interleaved passes over the same frames. Each pass runs every
// engine once, starting one engine later than the pass before, and each
// engine keeps its fastest pass. So the `group x` and `batch x` ratios
// compare engines under one host state rather than minutes apart; the
// first pass also warms the caches and sizes the result storage.
//
// Flags:
//   --rate=1/2        code rate under test (default 1/2)
//   --iters=10        message-passing iterations per frame
//   --frames=W        timed frames per engine and pass; default one full
//                     frame-per-lane block, the batch decoder's lanes()
//   --snr=2.0         Eb/N0 (dB) of the early-termination section
//   --es-frames=32    noisy frames of the early-termination section
//   --json=PATH       write machine-readable results (BENCH_decoder.json)
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ir/analyses.hpp"
#include "bench_common.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/arith.hpp"
#include "core/decoder.hpp"
#include "core/mp_decoder.hpp"
#include "core/simd/batch_decoder.hpp"
#include "core/simd/simd_decoder.hpp"
#include "enc/encoder.hpp"
#include "quant/fixed.hpp"
#include "util/bitvec.hpp"

#include <chrono>

using namespace dvbs2;

namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<quant::QLLR> random_channel(const code::Dvbs2Code& code, std::uint64_t seed) {
    std::vector<quant::QLLR> ch(static_cast<std::size_t>(code.n()));
    const std::uint64_t span = static_cast<std::uint64_t>(2 * quant::kQuant6.max_raw() + 1);
    for (auto& v : ch)
        v = static_cast<quant::QLLR>(static_cast<std::int64_t>(splitmix64(seed) % span) -
                                     quant::kQuant6.max_raw());
    return ch;
}

struct Row {
    std::string schedule;
    bool has_group = false;   // group-parallel engine supports this schedule
    double scalar_mbps = 0.0;
    double simd_mbps = 0.0;   // group-parallel, single frame
    double batch_mbps = 0.0;  // frame-per-lane, W frames per block
    double speedup = 0.0;       // group vs scalar
    double batch_speedup = 0.0; // batch vs scalar
    int batch_lanes = 0;        // frame-per-lane W
    int batch_lane_bits = 0;    // 16 or 32
    bool bit_exact = false;
};

/// Interleaved timing passes per row.
constexpr int kTimedPasses = 5;

/// Fastest wall time in seconds of each of `runs` over kTimedPasses
/// interleaved passes: pass p runs every callable once, starting at
/// runs[p mod size], so no engine always runs first or last.
std::vector<double> best_interleaved_seconds(const std::vector<std::function<void()>>& runs) {
    std::vector<double> best(runs.size(), std::numeric_limits<double>::infinity());
    for (std::size_t p = 0; p < static_cast<std::size_t>(kTimedPasses); ++p) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const std::size_t r = (p + i) % runs.size();
            const auto t0 = std::chrono::steady_clock::now();
            runs[r]();
            best[r] = std::min(
                best[r],
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
        }
    }
    return best;
}

/// Coded Mbit/s of `frames` frames of `n_bits` decoded in `s` seconds.
double mbps(int n_bits, std::size_t frames, double s) {
    return s > 0.0 ? static_cast<double>(n_bits) * static_cast<double>(frames) / s / 1e6 : 0.0;
}

/// One pass of a single-frame engine: `iters` full iterations per frame.
template <class Engine>
std::function<void()> frames_pass(Engine& eng,
                                  const std::vector<std::vector<quant::QLLR>>& channels,
                                  int iters) {
    return [&eng, &channels, iters] {
        for (const auto& ch : channels) eng.run_iterations(ch, iters);
    };
}

/// One pass of the frame-per-lane engine over ceil(frames / lanes) batch
/// blocks of the frame-major concatenated channel buffer (partial last
/// blocks decode at reduced lane occupancy, which is exactly what a real
/// batched workload pays).
std::function<void()> batch_pass(core::SimdBatchFixedDecoder& eng,
                                 const std::vector<quant::QLLR>& flat, std::size_t frames,
                                 std::size_t n, int iters) {
    return [&eng, &flat, frames, n, iters] {
        const auto lanes = static_cast<std::size_t>(eng.lanes());
        for (std::size_t f0 = 0; f0 < frames; f0 += lanes) {
            const std::size_t cnt = std::min(lanes, frames - f0);
            eng.run_iterations(std::span<const quant::QLLR>(flat.data() + f0 * n, cnt * n), cnt,
                               iters);
        }
    };
}

/// Encoded random codewords through an AWGN channel at `ebn0_db`, quantized
/// to the decoder's fixed point — realistic traffic whose per-frame
/// convergence times vary, which is what early termination exploits.
std::vector<std::vector<quant::QLLR>> noisy_channels(const code::Dvbs2Code& code,
                                                     double ebn0_db, int frames) {
    const auto& cp = code.params();
    const double sigma = comm::noise_sigma(ebn0_db, cp.rate(), comm::Modulation::Bpsk);
    const enc::Encoder encoder(code);
    std::vector<std::vector<quant::QLLR>> out;
    std::uint64_t seed = 0xE54117ULL;
    for (int f = 0; f < frames; ++f) {
        util::BitVec info(static_cast<std::size_t>(cp.k));
        for (int v = 0; v < cp.k; ++v)
            if (splitmix64(seed) & 1u) info.set(static_cast<std::size_t>(v), true);
        comm::AwgnModem modem(comm::Modulation::Bpsk, 0xA9C0 + static_cast<std::uint64_t>(f));
        const std::vector<double> llr = modem.transmit(encoder.encode(info), sigma);
        std::vector<quant::QLLR> q(llr.size());
        for (std::size_t i = 0; i < llr.size(); ++i) q[i] = quant::quantize(llr[i], quant::kQuant6);
        out.push_back(std::move(q));
    }
    return out;
}

/// Early-termination section results for one schedule.
struct EsRow {
    std::string schedule;
    double scalar_es_mbps = 0.0;  // scalar reference with early stopping
    double fixed_mbps = 0.0;      // frame-per-lane stream, full budget
    double es_mbps = 0.0;         // frame-per-lane stream, early termination
    double es_multiplier = 0.0;   // es_mbps / fixed_mbps (compaction payoff)
    double mean_iters = 0.0;
    double converged_frac = 0.0;
    bool es_exact = false;  // batch ES results == scalar ES results, bit for bit
    core::ConvergenceStats stats;
};

/// One decode_stream pass over `channels` (frame-major vectors); results
/// land in `out` in input order.
std::function<void()> stream_pass(core::SimdBatchFixedDecoder& eng,
                                  const std::vector<std::vector<quant::QLLR>>& channels,
                                  std::vector<core::DecodeResult>& out) {
    struct Src {
        const std::vector<std::vector<quant::QLLR>>* ch;
    };
    return [&eng, &out, src = Src{&channels}]() mutable {
        eng.decode_stream(
            src.ch->size(),
            [](void* ctx, std::size_t f, quant::QLLR* dst) {
                const auto& v = (*static_cast<const Src*>(ctx)->ch)[f];
                std::copy(v.begin(), v.end(), dst);
            },
            &src, out.data());
    };
}

/// Frame-by-frame equivalence of two decode passes (the early-termination
/// invariant: codeword, iteration count and converged flag all match).
bool results_equal(const std::vector<core::DecodeResult>& a,
                   const std::vector<core::DecodeResult>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].converged != b[i].converged || a[i].iterations != b[i].iterations ||
            !(a[i].codeword == b[i].codeword))
            return false;
    }
    return true;
}

bool messages_equal(const core::MpDecoder<core::FixedArith>& a, const core::SimdFixedDecoder& b) {
    return a.c2v_messages() == b.c2v_messages() && a.v2c_messages() == b.v2c_messages() &&
           a.backward_messages() == b.backward_messages();
}

/// Frame-per-lane equivalence: run one full batch block, then check every
/// lane's c2v state against a scalar decode of that lane's frame.
bool batch_lanes_exact(core::MpDecoder<core::FixedArith>& scalar,
                       core::SimdBatchFixedDecoder& batch, const std::vector<quant::QLLR>& flat,
                       const std::vector<std::vector<quant::QLLR>>& channels, std::size_t n,
                       int iters) {
    const auto lanes = static_cast<std::size_t>(batch.lanes());
    const std::size_t cnt = std::min(lanes, channels.size());
    batch.run_iterations(std::span<const quant::QLLR>(flat.data(), cnt * n), cnt, iters);
    for (std::size_t l = 0; l < cnt; ++l) {
        scalar.run_iterations(channels[l], iters);
        if (batch.c2v_messages(l) != scalar.c2v_messages()) return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) try {
    util::CliArgs args(argc, argv, {"rate", "iters", "frames", "snr", "es-frames", "json"});
    const code::CodeRate rate = bench::parse_rate(args.get("rate", "1/2"));
    const int iters = static_cast<int>(args.get_int("iters", 10));
    const double snr_db = args.get_double("snr", 2.0);
    const int es_frames = static_cast<int>(args.get_int("es-frames", 32));

    const code::Dvbs2Code code(code::standard_params(rate));
    core::DecoderConfig exact;
    exact.rule = core::CheckRule::Exact;
    const int frames = static_cast<int>(args.get_int(
        "frames", core::SimdBatchFixedDecoder(code, exact, quant::kQuant6).lanes()));

    bench::banner("SIMD", "SIMD lane mappings vs scalar reference (1 thread)");
    std::cout << "backend=" << core::simd_backend_name() << " width=" << core::simd_backend_width()
              << " rate=" << code::to_string(rate) << " iters=" << iters << " frames=" << frames
              << "\n\n";
    const auto n = static_cast<std::size_t>(code.n());
    std::vector<std::vector<quant::QLLR>> channels;
    std::vector<quant::QLLR> flat;  // frame-major concatenation for batches
    for (int f = 0; f < frames; ++f) {
        channels.push_back(random_channel(code, 0xBE11C + static_cast<std::uint64_t>(f)));
        flat.insert(flat.end(), channels.back().begin(), channels.back().end());
    }

    const quant::BoxplusTable table(quant::kQuant6);
    std::vector<Row> rows;
    bool all_exact = true;
    double max_speedup = 0.0;
    double max_batch_speedup = 0.0;
    util::TextTable t;
    t.set_header({"Schedule", "scalar Mbit/s", "group Mbit/s", "batch Mbit/s", "group x",
                  "batch x", "batch lanes", "bit-exact"});
    for (const core::Schedule schedule :
         {core::Schedule::TwoPhase, core::Schedule::ZigzagForward,
          core::Schedule::ZigzagSegmented, core::Schedule::ZigzagMap, core::Schedule::Layered}) {
        core::DecoderConfig cfg;
        cfg.schedule = schedule;
        cfg.rule = core::CheckRule::Exact;
        core::MpDecoder<core::FixedArith> scalar(
            code, cfg, core::FixedArith(cfg.rule, quant::kQuant6, &table, cfg.normalization,
                                        cfg.offset));

        Row row;
        row.schedule = core::to_string(schedule);
        // Group-parallel support is derived by the dataflow IR: only the
        // lockstep-legal schedules (two-phase, zigzag-segmented) have one.
        row.has_group = analysis::ir::classify_schedule(schedule).group_parallel_legal;
        std::optional<core::SimdFixedDecoder> simd;
        if (row.has_group) simd.emplace(code, cfg, quant::kQuant6);
        core::SimdBatchFixedDecoder batch(code, cfg, quant::kQuant6);
        row.batch_lanes = batch.lanes();
        row.batch_lane_bits = batch.lane_bits();

        std::vector<std::function<void()>> runs{
            frames_pass(scalar, channels, iters),
            batch_pass(batch, flat, static_cast<std::size_t>(frames), n, iters)};
        if (simd) runs.push_back(frames_pass(*simd, channels, iters));
        const std::vector<double> s = best_interleaved_seconds(runs);
        row.scalar_mbps = mbps(code.n(), channels.size(), s[0]);
        row.batch_mbps = mbps(code.n(), channels.size(), s[1]);
        row.batch_speedup = row.scalar_mbps > 0.0 ? row.batch_mbps / row.scalar_mbps : 0.0;

        row.bit_exact = true;
        if (simd) {
            row.simd_mbps = mbps(code.n(), channels.size(), s[2]);
            row.speedup = row.scalar_mbps > 0.0 ? row.simd_mbps / row.scalar_mbps : 0.0;
            // Both engines last decoded channels.back(); compare final
            // state, then re-check on the first vector for good measure.
            row.bit_exact = messages_equal(scalar, *simd);
            if (row.bit_exact) {
                scalar.run_iterations(channels[0], iters);
                simd->run_iterations(channels[0], iters);
                row.bit_exact = messages_equal(scalar, *simd);
            }
        }
        row.bit_exact =
            row.bit_exact && batch_lanes_exact(scalar, batch, flat, channels, n, iters);

        all_exact = all_exact && row.bit_exact;
        max_speedup = std::max(max_speedup, row.speedup);
        max_batch_speedup = std::max(max_batch_speedup, row.batch_speedup);
        rows.push_back(row);
        t.add_row({row.schedule, util::TextTable::num(row.scalar_mbps, 1),
                   row.has_group ? util::TextTable::num(row.simd_mbps, 1) : "-",
                   util::TextTable::num(row.batch_mbps, 1),
                   row.has_group ? util::TextTable::num(row.speedup, 2) : "-",
                   util::TextTable::num(row.batch_speedup, 2),
                   std::to_string(row.batch_lanes) + " x int" + std::to_string(row.batch_lane_bits),
                   row.bit_exact ? "yes" : "NO"});
    }
    t.print(std::cout);

    // ---- per-lane early termination + lane compaction on noisy frames ----
    // Realistic traffic: most frames converge in a handful of iterations at
    // the operating SNR, so a full-budget decode wastes most of its work.
    // The stream engine retires each lane at its own stopping iteration and
    // refills it with the next pending frame; the payoff is the ES column
    // divided by the fixed-budget column. Every ES result is gated against
    // the scalar early-stopping reference frame by frame.
    const auto es_channels = noisy_channels(code, snr_db, es_frames);
    std::vector<EsRow> es_rows;
    bool es_all_exact = true;
    double min_es_multiplier = 0.0;
    std::cout << "\nearly termination + lane compaction: " << es_frames
              << " noisy frames at Eb/N0 = " << snr_db << " dB, budget 30 iterations\n";
    util::TextTable et;
    et.set_header({"Schedule", "scalar-ES Mbit/s", "fixed Mbit/s", "ES Mbit/s", "ES x",
                   "mean iters", "conv %", "ES-exact"});
    for (const core::Schedule schedule :
         {core::Schedule::TwoPhase, core::Schedule::ZigzagForward,
          core::Schedule::ZigzagSegmented, core::Schedule::ZigzagMap, core::Schedule::Layered}) {
        core::DecoderConfig es_cfg;
        es_cfg.schedule = schedule;
        es_cfg.rule = core::CheckRule::Exact;
        es_cfg.early_stop = true;
        core::DecoderConfig fixed_cfg = es_cfg;
        fixed_cfg.early_stop = false;

        EsRow row;
        row.schedule = core::to_string(schedule);

        // Scalar early-stopping reference: the ground truth every SIMD
        // result must reproduce bit for bit.
        core::MpDecoder<core::FixedArith> scalar(
            code, es_cfg, core::FixedArith(es_cfg.rule, quant::kQuant6, &table,
                                           es_cfg.normalization, es_cfg.offset));
        std::vector<core::DecodeResult> ref(es_channels.size());
        // Frame-per-lane stream, full budget (the pre-compaction baseline).
        core::SimdBatchFixedDecoder fixed_eng(code, fixed_cfg, quant::kQuant6);
        std::vector<core::DecodeResult> scratch(es_channels.size());
        // Frame-per-lane stream with per-lane early termination + compaction.
        core::SimdBatchFixedDecoder es_eng(code, es_cfg, quant::kQuant6);
        std::vector<core::DecodeResult> es_res(es_channels.size());
        const std::vector<double> s = best_interleaved_seconds(
            {[&] {
                 for (std::size_t f = 0; f < es_channels.size(); ++f)
                     scalar.decode_into(es_channels[f], ref[f]);
             },
             stream_pass(fixed_eng, es_channels, scratch),
             stream_pass(es_eng, es_channels, es_res)});
        row.scalar_es_mbps = mbps(code.n(), es_channels.size(), s[0]);
        row.fixed_mbps = mbps(code.n(), es_channels.size(), s[1]);
        row.es_mbps = mbps(code.n(), es_channels.size(), s[2]);
        row.es_multiplier = row.fixed_mbps > 0.0 ? row.es_mbps / row.fixed_mbps : 0.0;

        row.es_exact = results_equal(ref, es_res);
        for (const core::DecodeResult& r : es_res) row.stats.record(r.iterations, r.converged);
        row.mean_iters = row.stats.mean_iterations();
        row.converged_frac = row.stats.convergence_rate();

        es_all_exact = es_all_exact && row.es_exact;
        min_es_multiplier = es_rows.empty() ? row.es_multiplier
                                            : std::min(min_es_multiplier, row.es_multiplier);
        es_rows.push_back(row);
        et.add_row({row.schedule, util::TextTable::num(row.scalar_es_mbps, 1),
                    util::TextTable::num(row.fixed_mbps, 1), util::TextTable::num(row.es_mbps, 1),
                    util::TextTable::num(row.es_multiplier, 2),
                    util::TextTable::num(row.mean_iters, 2),
                    util::TextTable::num(100.0 * row.converged_frac, 1),
                    row.es_exact ? "yes" : "NO"});
    }
    et.print(std::cout);
    all_exact = all_exact && es_all_exact;

    if (args.has("json")) {
        std::ofstream os(args.get("json", ""));
        os << "{\n  \"bench\": \"bench_simd_kernels\",\n"
           << "  \"backend\": \"" << core::simd_backend_name() << "\",\n"
           << "  \"width\": " << core::simd_backend_width() << ",\n"
           << "  \"rate\": \"" << code::to_string(rate) << "\",\n"
           << "  \"iters\": " << iters << ",\n  \"frames\": " << frames << ",\n"
           << "  \"timed_passes\": " << kTimedPasses << ",\n"
           << "  \"results\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row& r = rows[i];
            // Schedules without a group-parallel backend report null rather
            // than a fake 0 Mbit/s measurement.
            os << "    {\"schedule\": \"" << r.schedule << "\", \"scalar_mbps\": " << r.scalar_mbps
               << ", \"simd_mbps\": ";
            if (r.has_group) os << r.simd_mbps;
            else os << "null";
            os << ", \"batch_mbps\": " << r.batch_mbps << ", \"speedup\": ";
            if (r.has_group) os << r.speedup;
            else os << "null";
            os << ", \"batch_speedup\": " << r.batch_speedup
               << ", \"batch_lanes\": " << r.batch_lanes
               << ", \"batch_lane_bits\": " << r.batch_lane_bits << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false") << "}"
               << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        os << "  ],\n  \"early_stop\": {\n"
           << "    \"snr_db\": " << snr_db << ",\n    \"frames\": " << es_frames << ",\n"
           << "    \"budget_iterations\": 30,\n    \"results\": [\n";
        for (std::size_t i = 0; i < es_rows.size(); ++i) {
            const EsRow& r = es_rows[i];
            os << "      {\"schedule\": \"" << r.schedule
               << "\", \"scalar_es_mbps\": " << r.scalar_es_mbps
               << ", \"fixed_mbps\": " << r.fixed_mbps << ", \"effective_mbps\": " << r.es_mbps
               << ", \"es_multiplier\": " << r.es_multiplier
               << ", \"mean_iters\": " << r.mean_iters
               << ", \"converged_fraction\": " << r.converged_frac << ", \"histogram\": [";
            for (std::size_t h = 0; h < r.stats.histogram.size(); ++h)
                os << (h ? ", " : "") << r.stats.histogram[h];
            os << "], \"es_exact\": " << (r.es_exact ? "true" : "false") << "}"
               << (i + 1 < es_rows.size() ? "," : "") << "\n";
        }
        os << "    ],\n    \"min_es_multiplier\": " << min_es_multiplier << ",\n"
           << "    \"all_es_exact\": " << (es_all_exact ? "true" : "false") << "\n  },\n"
           << "  \"max_speedup\": " << max_speedup << ",\n"
           << "  \"max_batch_speedup\": " << max_batch_speedup << ",\n"
           << "  \"all_bit_exact\": " << (all_exact ? "true" : "false") << "\n}\n";
        std::cout << "\nwrote " << args.get("json", "") << "\n";
    }

    std::cout << (all_exact
                      ? "SIMD PASS: all lane mappings bit-exact with the scalar reference\n"
                      : "SIMD FAIL: divergence from the scalar reference (messages or "
                        "early-stop results)\n");
    return all_exact ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_simd_kernels: " << e.what() << "\n";
    return 2;
}
