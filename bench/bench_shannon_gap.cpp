// Experiment E8 — paper Sec. 1: "This huge maximum codeword length is the
// reason for the outstanding communications performance (~0.7 dB to
// Shannon) of this DVB-S2 LDPC code proposal."
//
// Measures the decoding threshold (BER target at 30 iterations) of selected
// rates and compares against the binary-input AWGN Shannon limit. Our codes
// are synthetic IRA ensembles with the standard's structure, so gaps land
// in the same regime (≈0.7-1.2 dB at 30 iterations) rather than matching
// the standard's hand-optimized tables exactly — see EXPERIMENTS.md.
//
//   ./bench_shannon_gap [--rates=1/2,3/4] [--target=1e-4] [--frames=12]
//                       [--step=0.15] [--all] [--threads=N]
//
// Runs on the frame-parallel Monte-Carlo engine (comm/parallel.hpp):
// --threads (default: DVBS2_THREADS env or hardware_concurrency) scales
// frames/sec while leaving every measured number bit-identical.
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "bench_common.hpp"
#include "code/tanner.hpp"
#include "comm/capacity.hpp"
#include "comm/parallel.hpp"
#include "core/decoder.hpp"

using namespace dvbs2;

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"rates", "target", "frames", "step", "all", "threads"});
    const double target = args.get_double("target", 1e-4);
    const double step = args.get_double("step", 0.15);
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 12));
    const auto threads = util::resolve_thread_count(
        static_cast<unsigned>(args.bounded_int("threads", 0, 0, util::kMaxThreads)));
    bench::banner("E8", "gap to the Shannon limit at 30 iterations");

    std::vector<code::CodeRate> rates;
    if (args.has("all")) {
        rates = code::all_rates();
    } else {
        std::stringstream ss(args.get("rates", "1/2,3/4"));
        std::string tok;
        while (std::getline(ss, tok, ',')) rates.push_back(bench::parse_rate(tok));
    }

    comm::SimConfig sim;
    sim.limits.max_frames = frames;
    sim.limits.min_frames = frames / 2;
    sim.limits.target_bit_errors = 60;
    sim.limits.target_frame_errors = 8;
    sim.threads = threads;
    bench::SimMeter meter;
    sim.progress = meter.hook();

    util::TextTable t;
    t.set_header({"Rate", "Shannon (BPSK) [dB]", "Shannon (unconstr.) [dB]",
                  "threshold [dB]", "gap [dB]"});
    bool pass = true;
    for (auto rate : rates) {
        const code::Dvbs2Code c(code::standard_params(rate));
        core::DecoderConfig cfg;
        cfg.schedule = core::Schedule::ZigzagForward;
        cfg.max_iterations = 30;
        // One independent decoder per worker: decoders own message memories.
        comm::DecodeFactory factory = [&](unsigned) {
            auto dec = std::make_shared<core::Decoder>(c, cfg);
            return [dec](const std::vector<double>& llr) {
                const auto r = dec->decode(llr);
                return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
            };
        };
        const double limit = comm::shannon_limit_bpsk_db(c.params().rate());
        const std::optional<double> th = comm::find_threshold_db_parallel(
            c, factory, target, limit + 0.3, step, sim, limit + 3.0);
        // No threshold within the scan range: the gap is not "3 dB", it is
        // unbounded — report it as such and fail the shape check.
        const double gap = th ? *th - limit : std::numeric_limits<double>::infinity();
        pass = pass && th.has_value() && gap < 2.0;  // same regime as the paper's 0.7 dB
        t.add_row({code::to_string(rate), util::TextTable::num(limit, 2),
                   util::TextTable::num(comm::shannon_limit_unconstrained_db(c.params().rate()), 2),
                   th ? util::TextTable::num(*th, 2) : ">" + util::TextTable::num(limit + 3.0, 2),
                   th ? util::TextTable::num(gap, 2) : "unbounded"});
    }
    t.print(std::cout);
    meter.print(std::cout);
    std::cout << "(paper: ~0.7 dB for the standard's tables; synthetic structural-twin codes at "
                 "30 iterations and "
              << frames << " frames/point land in the same regime)\n";
    std::cout << (pass ? "E8 PASS: every measured gap is in the sub-2 dB capacity-approaching "
                         "regime\n"
                       : "E8 FAIL\n");
    return pass ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_shannon_gap: " << e.what() << "\n";
    return 2;
}
