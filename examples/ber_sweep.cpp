// BER/FER waterfall sweep — the workload behind the paper's communications-
// performance claims (Sec. 1: "≈0.7 dB to Shannon", Sec. 2.1: quantization
// loss). Prints one row per Eb/N0 point and the Shannon limit of the rate.
//
//   ./ber_sweep [--rate=1/2] [--from=0.6] [--to=1.6] [--step=0.2]
//               [--frames=50] [--iters=30] [--fixed] [--bits=6]
//               [--schedule=zigzag|twophase|segmented|map|layered]
//               [--backend=scalar|simd] [--lanes=auto|group|frame]
//               [--csv=out.csv] [--threads=N] [--progress]
//
// --backend=simd selects the SIMD fixed-point engine (requires --fixed).
// --lanes picks its lane mapping: "group" is the group-parallel engine
// (lane = functional unit; twophase/segmented only), "frame" the
// frame-per-lane batch engine (any schedule, one SIMD lane per frame),
// "auto" (default) uses frame-per-lane for batches and, for single frames,
// group-parallel where the schedule allows it, else the scalar decoder.
// Results are bit-identical to the scalar backend either way
// (pinned by tests/test_simd.cpp and tests/test_engine.cpp).
//
// Runs on the frame-parallel Monte-Carlo engine with one decoder engine per
// worker, decoding in engine-preferred batch blocks: results are
// bit-identical for every --threads value (see comm/parallel.hpp).
#include <iostream>
#include <memory>
#include <sstream>

#include "util/csv.hpp"

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/capacity.hpp"
#include "comm/parallel.hpp"
#include "core/decoder.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace dvbs2;

namespace {

code::CodeRate parse_rate(const std::string& s) {
    for (auto r : code::all_rates())
        if (code::to_string(r) == s) return r;
    throw std::runtime_error("unknown rate " + s);
}

core::Schedule parse_schedule(const std::string& s) {
    if (s == "zigzag") return core::Schedule::ZigzagForward;
    if (s == "twophase") return core::Schedule::TwoPhase;
    if (s == "segmented") return core::Schedule::ZigzagSegmented;
    if (s == "map") return core::Schedule::ZigzagMap;
    if (s == "layered") return core::Schedule::Layered;
    throw std::runtime_error("unknown schedule " + s);
}

core::DecoderBackend parse_backend(const std::string& s) {
    if (s == "scalar") return core::DecoderBackend::Scalar;
    if (s == "simd") return core::DecoderBackend::Simd;
    throw std::runtime_error("unknown backend " + s + " (scalar or simd)");
}

core::SimdLaneMode parse_lanes(const std::string& s) {
    if (s == "auto") return core::SimdLaneMode::Auto;
    if (s == "group") return core::SimdLaneMode::GroupParallel;
    if (s == "frame") return core::SimdLaneMode::FramePerLane;
    throw std::runtime_error("unknown lane mode " + s + " (auto, group, or frame)");
}

}  // namespace

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv,
                             {"rate", "from", "to", "step", "frames", "iters", "fixed", "bits",
                              "schedule", "backend", "lanes", "csv", "threads", "progress"});
    const auto rate = parse_rate(args.get("rate", "1/2"));
    const code::Dvbs2Code ldpc(code::standard_params(rate));

    core::DecoderConfig cfg;
    cfg.schedule = parse_schedule(args.get("schedule", "zigzag"));
    cfg.backend = parse_backend(args.get("backend", "scalar"));
    cfg.lane_mode = parse_lanes(args.get("lanes", "auto"));
    cfg.max_iterations = static_cast<int>(args.get_int("iters", 30));

    const bool fixed = args.has("fixed");
    if (cfg.backend == core::DecoderBackend::Simd && !fixed)
        throw std::runtime_error("--backend=simd models the fixed-point datapath; add --fixed");
    const int bits = static_cast<int>(args.get_int("bits", 6));

    // One engine per worker — engines own message memories and decode
    // workspaces, and the parallel engine never shares them across threads.
    // make_engine runs the central config validation up front, so an illegal
    // combination (e.g. --backend=simd --lanes=group --schedule=zigzag)
    // fails here with a diagnostic naming the offending option.
    core::EngineSpec spec;
    spec.arith = fixed ? core::Arithmetic::Fixed : core::Arithmetic::Float;
    spec.config = cfg;
    spec.quant = bits == 5 ? quant::kQuant5 : quant::kQuant6;
    core::validate_engine_spec(spec);

    comm::SimConfig sim;
    sim.limits.max_frames = static_cast<std::uint64_t>(args.get_int("frames", 50));
    sim.limits.target_frame_errors = 15;
    sim.limits.target_bit_errors = 500;
    sim.threads = util::resolve_thread_count(
        static_cast<unsigned>(args.bounded_int("threads", 0, 0, util::kMaxThreads)));
    if (args.has("progress")) {
        sim.progress = [](const comm::SimProgress& p) {
            if (!p.finished) return;
            std::cerr << "[" << p.ebn0_db << " dB] " << p.frames << " frames in "
                      << p.elapsed_s << " s (" << p.frames_per_s << " frames/s, "
                      << p.threads << " threads)\n";
        };
    }

    std::vector<double> snrs;
    const double from = args.get_double("from", 0.6), to = args.get_double("to", 1.6),
                 step = args.get_double("step", 0.2);
    // Index stepping: no floating-point drift over long sweeps (each point's
    // RNG stream hashes the Eb/N0 bit pattern, so the grid must be exact).
    for (std::uint64_t i = 0;; ++i) {
        const double s = from + static_cast<double>(i) * step;
        if (s > to + 1e-9) break;
        snrs.push_back(s);
    }

    std::cout << ldpc.params().name << ", " << (fixed ? "fixed " + std::to_string(bits) + "-bit"
                                                      : std::string("float"))
              << ", " << core::to_string(cfg.schedule)
              << ", " << core::to_string(cfg.backend) << " backend";
    if (cfg.backend == core::DecoderBackend::Simd)
        std::cout << " (lanes=" << core::to_string(cfg.lane_mode) << ")";
    std::cout << ", " << cfg.max_iterations << " iterations\n";
    std::cout << "Shannon limit (BPSK-constrained): "
              << comm::shannon_limit_bpsk_db(ldpc.params().rate()) << " dB\n\n";

    std::unique_ptr<util::CsvWriter> csv;
    if (args.has("csv")) {
        csv = std::make_unique<util::CsvWriter>(args.get("csv", "ber.csv"));
        csv->write_row({"ebn0_db", "frames", "bit_errors", "frame_errors", "ber", "fer",
                        "avg_iterations"});
    }

    util::TextTable table;
    table.set_header({"Eb/N0 [dB]", "frames", "BER", "FER", "avg iters"});
    util::ThreadPool pool(sim.threads);
    for (double snr : snrs) {
        const auto pt = comm::simulate_point_engine(ldpc, spec, snr, sim, &pool);
        std::ostringstream ber;
        ber.precision(3);
        ber << std::scientific << pt.ber(static_cast<std::uint64_t>(ldpc.k()));
        table.add_row({util::TextTable::num(snr, 2), util::TextTable::num((long long)pt.frames),
                       ber.str(), util::TextTable::num(pt.fer(), 3),
                       util::TextTable::num(pt.avg_iterations, 1)});
        if (csv)
            csv->write_row({std::to_string(snr), std::to_string(pt.frames),
                            std::to_string(pt.bit_errors), std::to_string(pt.frame_errors),
                            ber.str(), std::to_string(pt.fer()),
                            std::to_string(pt.avg_iterations)});
    }
    table.print(std::cout);
    if (csv) std::cout << "(wrote " << args.get("csv", "") << ")\n";
    return 0;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
}
