// Experiment E9 — paper Sec. 4 + Fig. 5: the hierarchical 4-partition RAM,
// the write-conflict buffer and its simulated-annealing minimization.
//
// For every rate: cycle-accurate conflict statistics of the canonical
// addressing, then after annealing; the paper's claim is that one small
// buffer suffices for all code rates after the optimization step.
//
//   ./bench_fig5_conflicts [--sa-iters=3000]
#include <algorithm>
#include <iostream>

#include "arch/anneal.hpp"
#include "bench_common.hpp"
#include "code/tanner.hpp"

using namespace dvbs2;

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"sa-iters"});
    const int sa_iters = static_cast<int>(args.get_int("sa-iters", 3000));
    bench::banner("E9 / Fig. 5", "RAM partition conflicts and SA buffer minimization");

    util::TextTable t;
    t.set_header({"Rate", "buffer before", "buffer after", "residency before", "residency after",
                  "blocked before", "blocked after", "accepted"});
    int worst_after = 0;
    bool never_worse = true;
    for (auto rate : code::all_rates()) {
        const code::Dvbs2Code c(code::standard_params(rate));
        arch::HardwareMapping map(c);
        arch::AnnealConfig cfg;
        cfg.iterations = sa_iters;
        const auto res = arch::anneal_addressing(map, cfg);
        never_worse = never_worse && res.after.peak_buffer <= res.before.peak_buffer;
        worst_after = std::max(worst_after, res.after.peak_buffer);
        t.add_row({code::to_string(rate), util::TextTable::num((long long)res.before.peak_buffer),
                   util::TextTable::num((long long)res.after.peak_buffer),
                   util::TextTable::num(res.before.buffer_word_cycles),
                   util::TextTable::num(res.after.buffer_word_cycles),
                   util::TextTable::num(res.before.blocked_write_events),
                   util::TextTable::num(res.after.blocked_write_events),
                   util::TextTable::num((long long)res.moves_accepted)});
    }
    t.print(std::cout);
    std::cout << "\nsingle buffer sized for all rates: " << worst_after
              << " words (paper: one small buffer \"holds for all code rates\")\n";
    std::cout << (never_worse && worst_after <= 64
                      ? "E9 PASS: annealing never regressed; worst-case buffer is small\n"
                      : "E9 FAIL\n");
    return never_worse && worst_after <= 64 ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_fig5_conflicts: " << e.what() << "\n";
    return 2;
}
