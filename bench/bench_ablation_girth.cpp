// Ablation bench — what the generator's girth control buys.
//
// Two parts:
//  1. Error-floor demonstration at small parallelism: with P = 12 the
//     unconstrained ensemble carries several 4-cycles, which show up as an
//     error floor; the girth-6 generator removes it completely.
//  2. Full-scale accounting at P = 360: the DVB-S2 group structure already
//     spreads edges so well that a random ensemble has only a handful of
//     4-cycles — the constraints are cheap insurance that eliminates the
//     residue (plus the zigzag-adjacent and half-turn cases the BFS girth
//     scanner exposed, see docs/ARCHITECTURE.md §2).
//
//   ./bench_ablation_girth [--frames=3000] [--ebn0=5.0]
#include <iostream>

#include "bench_common.hpp"
#include "code/girth.hpp"
#include "code/tables.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "core/decoder.hpp"

using namespace dvbs2;

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"frames", "ebn0"});
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 3000));
    const double ebn0 = args.get_double("ebn0", 5.0);
    bench::banner("Girth ablation", "girth-6 generator vs. unconstrained ensemble");

    // Part 1: toy scale (P = 12, N = 144), where 4-cycles are common.
    const auto toy = code::toy_params(12, 7, 2, 6, 3, 77);
    const auto tables_girth = code::generate_tables(toy);
    const auto tables_plain = code::generate_tables_unconstrained(toy);

    comm::SimConfig sim;
    sim.limits.max_frames = frames;
    sim.limits.min_frames = frames;
    sim.limits.target_bit_errors = ~0ULL;
    sim.limits.target_frame_errors = ~0ULL;

    util::TextTable t;
    t.set_header({"code (P=12, N=144)", "info 4-cycles", "FER @" +
                      util::TextTable::num(ebn0, 1) + "dB", "BER"});
    double ber_girth = 0.0, ber_plain = 0.0;
    long long cycles_plain_toy = 0;
    for (const bool constrained : {true, false}) {
        const code::Dvbs2Code c(toy, constrained ? tables_girth : tables_plain);
        const long long cycles = code::count_information_4cycles(toy, c.tables());
        if (!constrained) cycles_plain_toy = cycles;
        core::DecoderConfig cfg;
        cfg.max_iterations = 30;
        core::Decoder dec(c, cfg);
        comm::DecodeFn fn = [&](const std::vector<double>& llr) {
            const auto r = dec.decode(llr);
            return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        };
        const auto pt = comm::simulate_point(c, fn, ebn0, sim);
        const double ber = pt.ber(static_cast<std::uint64_t>(c.k()));
        (constrained ? ber_girth : ber_plain) = ber;
        t.add_row({constrained ? "girth-6 (library)" : "unconstrained",
                   util::TextTable::num(cycles), util::TextTable::num(pt.fer(), 4),
                   bench::sci(ber)});
    }
    t.print(std::cout);

    // Part 2: full-scale structural accounting.
    const auto full = code::standard_params(code::CodeRate::R1_2);
    const long long full_plain =
        code::count_information_4cycles(full, code::generate_tables_unconstrained(full));
    const long long full_girth =
        code::count_information_4cycles(full, code::generate_tables(full));
    std::cout << "\nN = 64800 (P = 360): unconstrained ensemble carries " << full_plain
              << " information 4-cycles, girth-6 generator " << full_girth
              << " — at full parallelism the group structure already suppresses\n"
              << "most cycles; the constraints eliminate the residue (floor insurance).\n";

    const bool pass =
        cycles_plain_toy > 0 && ber_girth < ber_plain && full_girth == 0;
    std::cout << (pass ? "Girth ablation PASS: 4-cycles cause a measurable floor at small P; "
                         "the generator removes them at every scale\n"
                       : "Girth ablation FAIL\n");
    return pass ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_ablation_girth: " << e.what() << "\n";
    return 2;
}
