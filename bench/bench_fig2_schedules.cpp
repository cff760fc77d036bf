// Experiment E4 — paper Fig. 2 + Sec. 2.2: conventional two-phase update vs
// the optimized zigzag update of the degree-2 parity chain.
//
// Paper claims reproduced here:
//  1. convergence: "10 iterations can be saved, i.e. 30 iterations instead
//     of 40" — measured as the mean early-stop iteration count at a fixed
//     Eb/N0 near threshold, plus frame success at tight iteration caps;
//  2. memory: "we need to store only one message instead of two" — the
//     zigzag schedules keep E_PN/2 parity messages instead of E_PN;
//  3. the segmented (hardware) variant and the full-MAP backward variant
//     the paper mentions, as ablations.
//
//   ./bench_fig2_schedules [--rate=1/2] [--ebn0=1.2] [--frames=12] [--cap=22]
#include <iostream>

#include "bench_common.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "core/decoder.hpp"

using namespace dvbs2;

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"rate", "ebn0", "frames", "cap"});
    const auto rate = bench::parse_rate(args.get("rate", "1/2"));
    const double ebn0 = args.get_double("ebn0", 1.2);
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 12));
    const int cap = static_cast<int>(args.get_int("cap", 22));
    bench::banner("E4 / Fig. 2", "message-update schedules: convergence and storage");

    const code::Dvbs2Code c(code::standard_params(rate));
    const struct {
        core::Schedule schedule;
        const char* note;
    } cases[] = {
        {core::Schedule::TwoPhase, "Fig. 2a conventional"},
        {core::Schedule::ZigzagForward, "Fig. 2b optimized"},
        {core::Schedule::ZigzagSegmented, "Fig. 2b, hardware-segmented"},
        {core::Schedule::ZigzagMap, "MAP (both sweeps sequential)"},
        {core::Schedule::Layered, "row-layered (extension)"},
    };

    comm::SimConfig sim;
    sim.limits.max_frames = frames;
    sim.limits.min_frames = frames;
    sim.limits.target_bit_errors = ~0ULL;  // fixed frame count
    sim.limits.target_frame_errors = ~0ULL;

    util::TextTable t;
    t.set_header({"schedule", "avg iters (early stop)", "FER @cap", "PN storage", "note"});
    double iters_twophase = 0.0, iters_zigzag = 0.0;
    for (const auto& cs : cases) {
        // Pass 1: generous cap with early stop — average convergence time.
        core::DecoderConfig cfg;
        cfg.schedule = cs.schedule;
        cfg.max_iterations = 60;
        core::Decoder dec(c, cfg);
        comm::DecodeFn fn = [&](const std::vector<double>& llr) {
            const auto r = dec.decode(llr);
            return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        };
        const auto pt = comm::simulate_point(c, fn, ebn0, sim);

        // Pass 2: tight iteration cap — who still decodes?
        core::DecoderConfig cfg_cap = cfg;
        cfg_cap.max_iterations = cap;
        core::Decoder dec_cap(c, cfg_cap);
        comm::DecodeFn fn_cap = [&](const std::vector<double>& llr) {
            const auto r = dec_cap.decode(llr);
            return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        };
        const auto pt_cap = comm::simulate_point(c, fn_cap, ebn0, sim);

        long long pn_store = c.params().e_pn() / 2;
        if (cs.schedule == core::Schedule::TwoPhase) pn_store = c.params().e_pn();
        if (cs.schedule == core::Schedule::Layered) pn_store = c.params().e_pn();  // u and d
        if (cs.schedule == core::Schedule::TwoPhase) iters_twophase = pt.avg_iterations;
        if (cs.schedule == core::Schedule::ZigzagForward) iters_zigzag = pt.avg_iterations;
        t.add_row({core::to_string(cs.schedule), util::TextTable::num(pt.avg_iterations, 1),
                   util::TextTable::num(pt_cap.fer(), 2), util::TextTable::num(pn_store),
                   cs.note});
    }
    t.print(std::cout);

    const double ratio = iters_zigzag / iters_twophase;
    std::cout << "\niteration ratio zigzag/two-phase: " << util::TextTable::num(ratio, 2)
              << " (paper: 30/40 = 0.75)\n"
              << "PN message storage halved: " << c.params().e_pn() << " -> "
              << c.params().e_pn() / 2 << " messages\n";
    const bool pass = ratio < 0.95;  // the optimized schedule must converge faster
    std::cout << (pass ? "E4 PASS: optimized update converges faster with half the PN storage\n"
                       : "E4 FAIL: no speedup measured\n");
    return pass ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_fig2_schedules: " << e.what() << "\n";
    return 2;
}
