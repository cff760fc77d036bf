// Motivation bench — paper Sec. 1's code-design argument:
//
//   "[decoder-first design] is only suitable for regular LDPC codes ...
//    But for an improved communications performance so called irregular
//    LDPC codes are mandatory [6]. This is the case for the DVB-S2 code."
//
// Builds a regular-information-degree IRA code (every information node
// degree 3) with the same N, K, q and check regularity as the standard
// rate-1/2 profile, and compares analytic GA-DE thresholds plus measured
// FER at a point between the two thresholds — where the irregular profile
// decodes and the regular one does not.
//
//   ./bench_ablation_irregular [--frames=10] [--ebn0=1.2]
#include <iostream>

#include "bench_common.hpp"
#include "code/profile_solver.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "comm/density_evolution.hpp"
#include "core/decoder.hpp"

using namespace dvbs2;

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"frames", "ebn0"});
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 10));
    const double ebn0 = args.get_double("ebn0", 1.2);
    bench::banner("Irregular vs regular", "why DVB-S2 uses irregular degree profiles");

    const auto irregular = code::standard_params(code::CodeRate::R1_2);
    auto regular_opt = code::derive_profile(64800, 32400, 360, 3.0);
    if (!regular_opt || regular_opt->n_hi != 0) {
        std::cout << "no all-degree-3 profile found\n";
        return 1;
    }
    const auto regular = *regular_opt;

    comm::SimConfig sim;
    sim.limits.max_frames = frames;
    sim.limits.min_frames = frames;
    sim.limits.target_bit_errors = ~0ULL;
    sim.limits.target_frame_errors = ~0ULL;

    util::TextTable t;
    t.set_header({"profile", "info degrees", "DE threshold [dB]",
                  "FER @" + util::TextTable::num(ebn0, 1) + "dB", "avg iters"});
    double fer_irregular = 1.0, fer_regular = 0.0;
    for (const bool irr : {true, false}) {
        const auto& params = irr ? irregular : regular;
        const double de = comm::de_threshold_db(params, 500);
        const code::Dvbs2Code c(params);
        core::DecoderConfig cfg;
        cfg.max_iterations = 30;
        core::FixedDecoder dec(c, cfg, quant::kQuant6);
        comm::DecodeFn fn = [&](const std::vector<double>& llr) {
            const auto r = dec.decode(llr);
            return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        };
        const auto pt = comm::simulate_point(c, fn, ebn0, sim);
        (irr ? fer_irregular : fer_regular) = pt.fer();
        t.add_row({irr ? "irregular (standard, Table 1)" : "regular (all-degree-3)",
                   irr ? "8 / 3" : "3", util::TextTable::num(de, 2),
                   util::TextTable::num(pt.fer(), 2),
                   util::TextTable::num(pt.avg_iterations, 1)});
    }
    t.print(std::cout);
    std::cout << "\nsame N, K, q, check regularity and hardware mapping — only the degree\n"
              << "profile differs. The irregular profile buys the waterfall position;\n"
              << "the architecture supports both (the point of Sec. 3's serial FUs).\n";
    const bool pass = fer_irregular < fer_regular;
    std::cout << (pass ? "Irregular PASS: the irregular profile decodes where regular fails\n"
                       : "Irregular FAIL\n");
    return pass ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_ablation_irregular: " << e.what() << "\n";
    return 2;
}
