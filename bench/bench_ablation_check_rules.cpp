// Ablation bench — check-node rule variants on the fixed-point datapath.
//
// The paper's functional units implement the exact (correction-LUT) rule;
// min-sum variants are the standard cheaper alternatives. This bench
// quantifies the trade at the paper's operating point (6-bit, 30
// iterations, R=1/2): FER and average iterations at a fixed Eb/N0 near
// threshold for exact / min-sum / normalized / offset min-sum.
//
//   ./bench_ablation_check_rules [--ebn0=1.3] [--frames=20] [--rate=1/2]
#include <iostream>

#include "bench_common.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "core/decoder.hpp"

using namespace dvbs2;

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"ebn0", "frames", "rate"});
    const double ebn0 = args.get_double("ebn0", 1.3);
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 20));
    const auto rate = bench::parse_rate(args.get("rate", "1/2"));
    bench::banner("CN-rule ablation", "fixed-point 6-bit, 30 iterations, R=" +
                                          code::to_string(rate) + " @ " +
                                          util::TextTable::num(ebn0, 2) + " dB");

    const code::Dvbs2Code c(code::standard_params(rate));
    comm::SimConfig sim;
    sim.limits.max_frames = frames;
    sim.limits.min_frames = frames;
    sim.limits.target_bit_errors = ~0ULL;
    sim.limits.target_frame_errors = ~0ULL;

    util::TextTable t;
    t.set_header({"rule", "FER", "BER", "avg iters", "undetected"});
    double fer_exact = 1.0, fer_minsum = 0.0;
    for (auto rule : {core::CheckRule::Exact, core::CheckRule::MinSum,
                      core::CheckRule::NormalizedMinSum, core::CheckRule::OffsetMinSum}) {
        core::DecoderConfig cfg;
        cfg.rule = rule;
        cfg.max_iterations = 30;
        core::FixedDecoder dec(c, cfg, quant::kQuant6);
        comm::DecodeFn fn = [&](const std::vector<double>& llr) {
            const auto r = dec.decode(llr);
            return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        };
        const auto pt = comm::simulate_point(c, fn, ebn0, sim);
        if (rule == core::CheckRule::Exact) fer_exact = pt.fer();
        if (rule == core::CheckRule::MinSum) fer_minsum = pt.fer();
        t.add_row({core::to_string(rule), util::TextTable::num(pt.fer(), 2),
                   bench::sci(pt.ber(static_cast<std::uint64_t>(c.k()))),
                   util::TextTable::num(pt.avg_iterations, 1),
                   util::TextTable::num((long long)pt.undetected_frame_errors)});
    }
    t.print(std::cout);
    // Plain min-sum must not beat the exact rule near threshold; the
    // corrected variants should sit between them.
    const bool ok = fer_minsum >= fer_exact - 1e-9;
    std::cout << (ok ? "Ablation PASS: exact rule is at least as good as plain min-sum\n"
                     : "Ablation FAIL\n");
    return ok ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_ablation_check_rules: " << e.what() << "\n";
    return 2;
}
