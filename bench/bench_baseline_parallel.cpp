// Baseline bench — paper Sec. 1's architecture argument:
//
//   "For a fully parallel hardware realization each node is instantiated
//    and the connections between them are hardwired. This was shown in [4]
//    for a 1024 bit LDPC code. But even for this relatively short block
//    length severe routing congestion problems exist. Therefore a partly
//    parallel architecture becomes mandatory for larger block length."
//
// Quantifies the claim with the fully-parallel estimator: a ~1k-bit
// regular code (the Blanksby/Howland design point, reported at 52.5 mm² in
// 0.16 µm) vs. the DVB-S2 N = 64800 code, against the partly-parallel
// Table-3 total of 22.74 mm².
//
// A second section measures the *software* parallel baseline: the
// frame-parallel Monte-Carlo engine (comm/parallel.hpp) on a short-frame
// config at 1 vs N worker threads, checking that the tallies are
// bit-identical and reporting the wall-clock speedup.
//
//   ./bench_baseline_parallel [--threads=N] [--mc-frames=32] [--mc-iters=10]
#include <chrono>
#include <iostream>
#include <memory>

#include "arch/area.hpp"
#include "arch/baselines.hpp"
#include "bench_common.hpp"
#include "comm/parallel.hpp"
#include "core/decoder.hpp"

using namespace dvbs2;

namespace {

/// Times one simulate_point_parallel run at `threads` workers.
struct McRun {
    comm::BerPoint pt;
    double wall_s = 0.0;
};

McRun run_mc(const code::Dvbs2Code& c, const core::DecoderConfig& dcfg, const comm::SimConfig& sim,
             unsigned threads, double ebn0_db) {
    comm::SimConfig cfg = sim;
    cfg.threads = threads;
    comm::DecodeFactory factory = [&](unsigned) {
        auto dec = std::make_shared<core::Decoder>(c, dcfg);
        return [dec](const std::vector<double>& llr) {
            const auto r = dec->decode(llr);
            return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        };
    };
    McRun run;
    const auto t0 = std::chrono::steady_clock::now();
    run.pt = comm::simulate_point_parallel(c, factory, ebn0_db, cfg);
    run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return run;
}

/// Same point through the engine-spec entry path (per-worker engines from
/// the registry, batch-sized decode calls); tallies must match run_mc's.
McRun run_mc_engine(const code::Dvbs2Code& c, const core::DecoderConfig& dcfg,
                    const comm::SimConfig& sim, unsigned threads, double ebn0_db) {
    comm::SimConfig cfg = sim;
    cfg.threads = threads;
    const core::EngineSpec spec{core::Arithmetic::Float, dcfg, quant::kQuant6};
    McRun run;
    const auto t0 = std::chrono::steady_clock::now();
    run.pt = comm::simulate_point_engine(c, spec, ebn0_db, cfg);
    run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return run;
}

bool same_tallies(const comm::BerPoint& a, const comm::BerPoint& b) {
    return a.frames == b.frames && a.bit_errors == b.bit_errors &&
           a.frame_errors == b.frame_errors &&
           a.undetected_frame_errors == b.undetected_frame_errors &&
           a.avg_iterations == b.avg_iterations;
}

}  // namespace

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"threads", "mc-frames", "mc-iters"});
    const auto mc_threads = util::resolve_thread_count(
        static_cast<unsigned>(args.bounded_int("threads", 0, 0, util::kMaxThreads)));
    bench::banner("Baseline / Sec. 1", "fully parallel vs. partly parallel realization");

    // A 1024-bit-class regular code at small parallelism (the paper's [4]
    // reference design point: N=1024, regular degree-3/6-ish).
    const auto small = code::toy_params(8, 64, 0, 4, 64, 1);  // N = 1024, K = 512
    // The paper's code.
    const auto big = code::standard_params(code::CodeRate::R1_2);

    util::TextTable t;
    t.set_header({"design", "N", "logic [mm^2]", "routing [mm^2]", "total [mm^2]",
                  "info throughput"});
    const auto est_small = arch::fully_parallel_estimate(small, quant::kQuant6);
    const auto est_big = arch::fully_parallel_estimate(big, quant::kQuant6);

    std::vector<code::CodeParams> all;
    for (auto r : code::all_rates()) all.push_back(code::standard_params(r));
    const auto partly = arch::area_model(all, quant::kQuant6);

    auto tp = [](double bps) { return util::TextTable::num(bps / 1e9, 1) + " Gbit/s"; };
    t.add_row({"fully parallel (1024-bit ref [4])", util::TextTable::num((long long)small.n),
               util::TextTable::num(est_small.logic_mm2, 1),
               util::TextTable::num(est_small.routing_mm2, 1),
               util::TextTable::num(est_small.total_mm2, 1), tp(est_small.info_throughput_bps)});
    t.add_row({"fully parallel (DVB-S2 R=1/2)", util::TextTable::num((long long)big.n),
               util::TextTable::num(est_big.logic_mm2, 1),
               util::TextTable::num(est_big.routing_mm2, 1),
               util::TextTable::num(est_big.total_mm2, 1), tp(est_big.info_throughput_bps)});
    t.add_row({"partly parallel (this paper, all rates)", util::TextTable::num((long long)big.n),
               "-", "-", util::TextTable::num(partly.total_mm2, 1), "0.26 Gbit/s (Eq. 8)"});
    t.print(std::cout);

    const double blowup = est_big.total_mm2 / partly.total_mm2;
    std::cout << "\nfully parallel at N = 64800 needs ~" << util::TextTable::num(blowup, 0)
              << "x the silicon of the paper's partly parallel core. The 1024-bit\n"
              << "reference is feasible (single-digit mm^2 in this lean 0.13 um min-sum\n"
              << "model; [4] reports 52.5 mm^2 at 0.16 um with a richer datapath), with\n"
              << "interconnect already ~half the area — the Sec. 1 argument, quantified.\n";
    bool pass = est_big.total_mm2 > 10.0 * partly.total_mm2 &&
                est_small.total_mm2 > 2.0 && est_small.total_mm2 < 200.0 &&
                est_small.routing_mm2 > 0.3 * est_small.logic_mm2;

    // ---- software baseline: frame-parallel Monte-Carlo engine ----
    const auto mc_frames = static_cast<std::uint64_t>(args.get_int("mc-frames", 32));
    const code::Dvbs2Code short_code(code::standard_params(code::CodeRate::R1_2,
                                                           code::FrameSize::Short));
    core::DecoderConfig dcfg;
    dcfg.schedule = core::Schedule::ZigzagForward;
    dcfg.max_iterations = static_cast<int>(args.get_int("mc-iters", 10));
    comm::SimConfig sim;
    sim.seed = 7;
    sim.limits.max_frames = mc_frames;
    sim.limits.min_frames = mc_frames;
    sim.limits.target_bit_errors = ~0ULL;  // fixed work: no early stop
    sim.limits.target_frame_errors = ~0ULL;
    const double ebn0 = 1.0;  // noisy → decoder runs its full iteration budget

    std::cout << "\n--- software baseline: frame-parallel Monte-Carlo engine ("
              << short_code.params().name << ", " << mc_frames << " frames) ---\n";
    util::TextTable mc;
    mc.set_header({"threads", "wall [s]", "frames/s", "speedup", "tallies"});
    const McRun serial = run_mc(short_code, dcfg, sim, 1, ebn0);
    std::vector<unsigned> sweep = {1};
    if (mc_threads > 1) sweep.push_back(mc_threads);
    bool identical = true;
    for (unsigned th : sweep) {
        const McRun r = th == 1 ? serial : run_mc(short_code, dcfg, sim, th, ebn0);
        const bool same = same_tallies(r.pt, serial.pt);
        identical = identical && same;
        mc.add_row({util::TextTable::num(static_cast<long long>(th)),
                    util::TextTable::num(r.wall_s, 2),
                    util::TextTable::num(static_cast<double>(r.pt.frames) / r.wall_s, 1),
                    util::TextTable::num(serial.wall_s / r.wall_s, 2),
                    same ? "identical" : "MISMATCH"});
    }
    // Engine-spec path (per-worker registry engines, batched decode calls)
    // must reproduce the DecodeFn path's tallies exactly.
    const McRun eng = run_mc_engine(short_code, dcfg, sim, mc_threads, ebn0);
    const bool engine_same = same_tallies(eng.pt, serial.pt);
    identical = identical && engine_same;
    mc.add_row({"engine x" + std::to_string(mc_threads), util::TextTable::num(eng.wall_s, 2),
                util::TextTable::num(static_cast<double>(eng.pt.frames) / eng.wall_s, 1),
                util::TextTable::num(serial.wall_s / eng.wall_s, 2),
                engine_same ? "identical" : "MISMATCH"});
    mc.print(std::cout);
    std::cout << "(counts are bit-identical by construction: per-frame counter-based RNG\n"
              << "streams + batch-prefix early stop; the engine row decodes through\n"
              << "Engine::decode_batch and must reproduce the DecodeFn tallies exactly)\n";
    pass = pass && identical;

    std::cout << (pass ? "Baseline PASS: partly parallel is mandatory at N = 64800; "
                         "software engine is thread-count invariant\n"
                       : "Baseline FAIL\n");
    return pass ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_baseline_parallel: " << e.what() << "\n";
    return 2;
}
