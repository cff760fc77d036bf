// Extension bench — Eq. 7's I/O overlap as a frame stream: per-rate
// steady-state throughput, first-frame latency and core utilization of the
// double-buffered pipeline ("reading a new codeword ... and writing the
// result of the prior processed block can be done in parallel").
//
// The last column puts the *software* decoder next to the hardware model:
// single-thread throughput of the frame-per-lane SIMD batch engine
// (lane = frame, ZigzagSegmented, same 30 iterations) decoding one full
// W-frame block — the software counterpart of the pipeline's steady state.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "arch/mapping.hpp"
#include "arch/stream.hpp"
#include "bench_common.hpp"
#include "code/tanner.hpp"
#include "core/simd/batch_decoder.hpp"
#include "core/simd/simd_decoder.hpp"
#include "quant/fixed.hpp"

using namespace dvbs2;

namespace {

/// Single-thread software info throughput (bit/s): one full batch block of
/// lanes() frames through the frame-per-lane engine at `iters` iterations.
double software_batch_info_bps(const code::Dvbs2Code& c, int iters) {
    core::DecoderConfig cfg;
    cfg.schedule = core::Schedule::ZigzagSegmented;  // the paper's schedule
    cfg.max_iterations = iters;
    core::SimdBatchFixedDecoder eng(c, cfg, quant::kQuant6);
    const auto lanes = static_cast<std::size_t>(eng.lanes());
    const auto n = static_cast<std::size_t>(c.n());
    std::vector<quant::QLLR> flat(lanes * n);
    std::uint64_t s = 0x57AEA11;
    for (auto& v : flat) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        v = static_cast<quant::QLLR>(static_cast<std::int64_t>((s >> 33) %
                                                               (2 * quant::kQuant6.max_raw() + 1)) -
                                     quant::kQuant6.max_raw());
    }
    eng.run_iterations(flat, lanes, 1);  // warmup: touch all message state
    const auto t0 = std::chrono::steady_clock::now();
    eng.run_iterations(flat, lanes, iters);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return sec > 0.0
               ? static_cast<double>(c.k()) * static_cast<double>(lanes) / sec
               : 0.0;
}

}  // namespace

int main() {
    bench::banner("Stream / Eq. 7", "double-buffered frame pipeline at 270 MHz, 30 iterations");
    std::cout << "software column: frame-per-lane SIMD batch engine, backend="
              << core::simd_backend_name() << ", one lane block per measurement, 1 thread\n\n";

    util::TextTable t;
    t.set_header({"Rate", "steady info Mbit/s", "one-shot Eq.8 Mbit/s", "latency [us]",
                  "core idle [cyc]", "io stall [cyc]", "SW batch Mbit/s"});
    bool ok = true;
    for (auto rate : code::all_rates()) {
        const code::Dvbs2Code c(code::standard_params(rate));
        const arch::HardwareMapping map(c);
        arch::StreamConfig cfg;
        const auto rep = arch::simulate_stream(map, cfg, 8);
        // One-shot Eq. 8 reference: I/O paid serially.
        const auto iter = arch::simulate_iteration(map, cfg.memory);
        const long long one_shot_cycles =
            (c.n() + cfg.io_parallelism - 1) / cfg.io_parallelism +
            30LL * iter.cycles_per_iteration();
        const double one_shot =
            static_cast<double>(c.k()) * cfg.clock_hz / static_cast<double>(one_shot_cycles);
        const double sw_bps = software_batch_info_bps(c, cfg.iterations);
        // The pipeline must beat the serial figure (that is the point of
        // the overlap) and stay decode-bound at P_IO = 10.
        ok = ok && rep.steady_info_bps > one_shot && rep.core_idle_cycles == 0 && sw_bps > 0.0;
        t.add_row({code::to_string(rate), util::TextTable::num(rep.steady_info_bps / 1e6, 1),
                   util::TextTable::num(one_shot / 1e6, 1),
                   util::TextTable::num(rep.first_frame_latency_s * 1e6, 1),
                   util::TextTable::num(rep.core_idle_cycles),
                   util::TextTable::num(rep.io_stall_cycles),
                   util::TextTable::num(sw_bps / 1e6, 1)});
    }
    t.print(std::cout);
    std::cout << (ok ? "Stream PASS: overlap beats serial I/O at every rate, core never idles\n"
                     : "Stream FAIL\n");
    return ok ? 0 : 1;
}
