// Experiment E10 — "synthesizable IP" validation: the cycle-driven
// architecture model (RAM banks, shuffle network, FU pipelines, boundary
// registers) must be bit-exact with the algorithmic fixed-point decoder.
//
// For a set of rates: run both models on the same noisy frames and compare
// (a) the complete check-to-variable message RAM after k iterations and
// (b) full decode outcomes (bits, iteration counts, convergence), before
// and after annealing the addressing.
//
//   ./bench_rtl_equivalence [--frames=2] [--iters=4]
#include <iostream>

#include "arch/anneal.hpp"
#include "arch/mapping.hpp"
#include "arch/rtl_model.hpp"
#include "bench_common.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/decoder.hpp"
#include "enc/encoder.hpp"

using namespace dvbs2;

namespace {

std::vector<quant::QLLR> noisy_frame(const code::Dvbs2Code& c, double ebn0, std::uint64_t seed,
                                     const quant::QuantSpec& spec) {
    const enc::Encoder encoder(c);
    const auto cw = encoder.encode(enc::random_info_bits(c.k(), seed));
    comm::AwgnModem modem(comm::Modulation::Bpsk, seed + 31);
    const double sigma = comm::noise_sigma(ebn0, c.params().rate(), comm::Modulation::Bpsk);
    const auto llr = modem.transmit(cw, sigma);
    std::vector<quant::QLLR> q(llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i) q[i] = quant::quantize(llr[i], spec);
    return q;
}

}  // namespace

int main(int argc, char** argv) try {
    const util::CliArgs args(argc, argv, {"frames", "iters"});
    const int frames = static_cast<int>(args.get_int("frames", 2));
    const int iters = static_cast<int>(args.get_int("iters", 4));
    bench::banner("E10", "bit-exactness: RTL model vs fixed-point reference");

    const code::CodeRate rates[] = {code::CodeRate::R1_4, code::CodeRate::R1_2,
                                    code::CodeRate::R3_5, code::CodeRate::R9_10};
    util::TextTable t;
    t.set_header({"Rate", "mapping", "frames", "messages equal", "decodes equal"});
    bool all_ok = true;
    for (auto rate : rates) {
        const code::Dvbs2Code c(code::standard_params(rate));
        for (const bool annealed : {false, true}) {
            arch::HardwareMapping map(c);
            if (annealed) {
                arch::AnnealConfig acfg;
                acfg.iterations = 600;
                arch::anneal_addressing(map, acfg);
            }
            arch::RtlConfig rc;
            rc.decoder.max_iterations = 30;
            arch::RtlDecoder rtl(c, map, rc);
            core::DecoderConfig ref_cfg;
            ref_cfg.schedule = core::Schedule::ZigzagSegmented;
            ref_cfg.max_iterations = 30;
            core::FixedDecoder ref(c, ref_cfg, rc.spec);
            ref.set_cn_order(map.extract_cn_order());

            bool msgs_ok = true, dec_ok = true;
            for (int f = 0; f < frames; ++f) {
                const auto ch = noisy_frame(c, 2.0, static_cast<std::uint64_t>(f) + 1, rc.spec);
                rtl.run_iterations(ch, iters);
                msgs_ok = msgs_ok && rtl.dump_c2v_canonical() == ref.run_and_dump_c2v(ch, iters);
                const auto a = rtl.decode_raw(ch);
                const auto b = ref.decode_raw(ch);
                dec_ok = dec_ok && a.info_bits == b.info_bits && a.iterations == b.iterations &&
                         a.converged == b.converged;
            }
            all_ok = all_ok && msgs_ok && dec_ok;
            t.add_row({code::to_string(rate), annealed ? "annealed" : "canonical",
                       util::TextTable::num((long long)frames), msgs_ok ? "yes" : "NO",
                       dec_ok ? "yes" : "NO"});
        }
    }
    t.print(std::cout);
    std::cout << (all_ok ? "E10 PASS: architecture model is bit-exact with the reference\n"
                         : "E10 FAIL\n");
    return all_ok ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_rtl_equivalence: " << e.what() << "\n";
    return 2;
}
