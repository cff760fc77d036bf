// Experiment E7 — paper Sec. 2.1: fixed-point message quantization loss.
//
// "For fixed-point implementations it was shown that the total quantization
// loss is 0.1 dB when using a 6 bit message quantization compared to
// infinite precision. For a 5 bit message quantization the loss is
// [0.15-0.2] dB."
//
// Measures the Eb/N0 threshold (smallest SNR with BER below a target) of
// the floating-point decoder and of the 6-bit and 5-bit fixed-point
// decoders on the same code/schedule, and reports the losses.
//
//   ./bench_quantization [--rate=1/2] [--target=1e-4] [--frames=16]
//                        [--step=0.1] [--start=0.8] [--threads=N]
//
// Runs on the frame-parallel Monte-Carlo engine (comm/parallel.hpp):
// --threads (default: DVBS2_THREADS env or hardware_concurrency) scales
// frames/sec while leaving every measured number bit-identical.
#include <iostream>
#include <memory>
#include <optional>

#include "bench_common.hpp"
#include "code/tanner.hpp"
#include "comm/parallel.hpp"
#include "core/decoder.hpp"

using namespace dvbs2;

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"rate", "target", "frames", "step", "start", "threads"});
    const auto rate = bench::parse_rate(args.get("rate", "1/2"));
    const double target = args.get_double("target", 1e-4);
    const double step = args.get_double("step", 0.05);
    const double start = args.get_double("start", 0.8);
    const auto frames = static_cast<std::uint64_t>(args.get_int("frames", 24));
    const auto threads = util::resolve_thread_count(
        static_cast<unsigned>(args.bounded_int("threads", 0, 0, util::kMaxThreads)));
    bench::banner("E7", "message-quantization loss (float vs 6-bit vs 5-bit)");

    const code::Dvbs2Code c(code::standard_params(rate));
    core::DecoderConfig cfg;
    cfg.schedule = core::Schedule::ZigzagForward;
    cfg.max_iterations = 30;

    comm::SimConfig sim;
    sim.limits.max_frames = frames;
    sim.limits.min_frames = frames / 2;
    sim.limits.target_bit_errors = 60;
    sim.limits.target_frame_errors = 8;
    sim.threads = threads;
    bench::SimMeter meter;
    sim.progress = meter.hook();

    // One independent decoder per worker (decoders own message memories).
    comm::DecodeFactory float_factory = [&](unsigned) {
        auto dec = std::make_shared<core::Decoder>(c, cfg);
        return [dec](const std::vector<double>& llr) {
            const auto r = dec->decode(llr);
            return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
        };
    };
    auto fixed_factory = [&](const quant::QuantSpec& spec) {
        return comm::DecodeFactory([&c, &cfg, spec](unsigned) {
            auto dec = std::make_shared<core::FixedDecoder>(c, cfg, spec);
            return [dec](const std::vector<double>& llr) {
                const auto r = dec->decode(llr);
                return comm::DecodeOutcome{r.info_bits, r.converged, r.iterations};
            };
        });
    };

    const std::optional<double> opt_f =
        comm::find_threshold_db_parallel(c, float_factory, target, start, step, sim, 4.0);
    if (!opt_f) {
        std::cout << "E7 FAIL: float decoder never reached BER " << bench::sci(target, 0)
                  << " within the scan range\n";
        return 1;
    }
    const double th_f = *opt_f;
    const std::optional<double> th_6 = comm::find_threshold_db_parallel(
        c, fixed_factory(quant::kQuant6), target, th_f - step, step, sim, 4.0);
    const std::optional<double> th_5 = comm::find_threshold_db_parallel(
        c, fixed_factory(quant::kQuant5), target, th_f - step, step, sim, 4.0);

    const auto loss = [&](const std::optional<double>& th) {
        return th ? util::TextTable::num(*th - th_f, 2) : std::string("n/a");
    };
    const auto th_text = [](const std::optional<double>& th) {
        return th ? util::TextTable::num(*th, 2) : std::string("not found");
    };
    util::TextTable t;
    t.set_header({"decoder", "threshold @BER<" + bench::sci(target, 0) + " [dB]", "loss [dB]",
                  "paper loss [dB]"});
    t.add_row({"float (exact boxplus)", util::TextTable::num(th_f, 2), "0.00", "-"});
    t.add_row({"fixed 6-bit", th_text(th_6), loss(th_6), "~0.1"});
    t.add_row({"fixed 5-bit", th_text(th_5), loss(th_5), "~0.15-0.2"});
    t.print(std::cout);
    meter.print(std::cout);
    std::cout << "(threshold resolution " << step << " dB, " << frames
              << " frames/point, 30 iterations, " << c.params().name << ")\n";

    // Shape check: 6-bit within ~0.2 dB of float, 5-bit worse than or equal
    // to 6-bit, all thresholds found within the scan range.
    const bool pass = th_6 && th_5 && (*th_6 - th_f) <= 0.25 + 1e-9 &&
                      *th_5 >= *th_6 - step - 1e-9 && th_f < 3.9;
    std::cout << (pass ? "E7 PASS: quantization-loss ordering and magnitude match the paper\n"
                       : "E7 FAIL\n");
    return pass ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_quantization: " << e.what() << "\n";
    return 2;
}
