// Experiment E11 — google-benchmark microbenchmarks of the decoder kernels:
// pairwise combine operators, check-node extrinsic computation across the
// degree range of the DVB-S2 rates, variable-node update, the shuffle
// network, encoding, and end-to-end decode iterations (software throughput
// of the bit-accurate model).
#include <benchmark/benchmark.h>

#include "arch/mapping.hpp"
#include "arch/rtl_model.hpp"
#include "arch/shuffle.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/arith.hpp"
#include "core/decoder.hpp"
#include "core/kernels.hpp"
#include "enc/encoder.hpp"
#include "util/math.hpp"
#include "util/prng.hpp"

using namespace dvbs2;

namespace {

const code::Dvbs2Code& rate_half() {
    static const code::Dvbs2Code c(code::standard_params(code::CodeRate::R1_2));
    return c;
}

std::vector<double> noisy_llr(const code::Dvbs2Code& c, double ebn0, std::uint64_t seed) {
    const enc::Encoder enc(c);
    const auto cw = enc.encode(enc::random_info_bits(c.k(), seed));
    comm::AwgnModem modem(comm::Modulation::Bpsk, seed + 9);
    return modem.transmit(cw, comm::noise_sigma(ebn0, c.params().rate(), comm::Modulation::Bpsk));
}

}  // namespace

static void BM_BoxplusExactFloat(benchmark::State& state) {
    util::Xoshiro256pp rng(1);
    double a = 3.0 * rng.gaussian(), b = 3.0 * rng.gaussian();
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = util::boxplus_exact(a, b));
        b += 0.001;  // defeat constant folding
    }
}
BENCHMARK(BM_BoxplusExactFloat);

static void BM_BoxplusMinSumFloat(benchmark::State& state) {
    double a = 1.7, b = -2.3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = util::boxplus_minsum(a, b) + 1.0);
        b += 0.001;
    }
}
BENCHMARK(BM_BoxplusMinSumFloat);

static void BM_BoxplusTableFixed(benchmark::State& state) {
    const quant::BoxplusTable table(quant::kQuant6);
    quant::QLLR a = 7, b = -12;
    for (auto _ : state) {
        benchmark::DoNotOptimize(a = table.boxplus(a, b) | 1);
        b = (b + 5) % 31;
    }
}
BENCHMARK(BM_BoxplusTableFixed);

static void BM_CnExtrinsicsFloat(benchmark::State& state) {
    const int d = static_cast<int>(state.range(0));
    core::FloatArith arith(core::CheckRule::Exact, 0.75, 0.5);
    std::vector<double> ins(static_cast<std::size_t>(d)), outs(ins), pre(ins);
    util::Xoshiro256pp rng(2);
    for (auto& v : ins) v = 4.0 * rng.gaussian();
    for (auto _ : state) {
        core::compute_extrinsics(arith, ins.data(), d, outs.data(), pre.data());
        benchmark::DoNotOptimize(outs.data());
    }
    state.SetItemsProcessed(state.iterations() * d);
}
// Degrees spanning the DVB-S2 range: k = 4 (R=1/4) .. 30 (R=9/10).
BENCHMARK(BM_CnExtrinsicsFloat)->Arg(4)->Arg(7)->Arg(11)->Arg(18)->Arg(30);

static void BM_CnExtrinsicsFixed(benchmark::State& state) {
    const int d = static_cast<int>(state.range(0));
    const quant::BoxplusTable table(quant::kQuant6);
    core::FixedArith arith(core::CheckRule::Exact, quant::kQuant6, &table, 0.75, 0.5);
    std::vector<quant::QLLR> ins(static_cast<std::size_t>(d)), outs(ins), pre(ins);
    util::Xoshiro256pp rng(3);
    for (auto& v : ins) v = static_cast<quant::QLLR>(rng.below(63)) - 31;
    for (auto _ : state) {
        core::compute_extrinsics(arith, ins.data(), d, outs.data(), pre.data());
        benchmark::DoNotOptimize(outs.data());
    }
    state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_CnExtrinsicsFixed)->Arg(4)->Arg(7)->Arg(11)->Arg(18)->Arg(30);

static void BM_RotateLanes360(benchmark::State& state) {
    std::vector<quant::QLLR> word(360);
    for (int i = 0; i < 360; ++i) word[static_cast<std::size_t>(i)] = i;
    int s = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(arch::rotate_lanes(word, s));
        s = (s + 37) % 360;
    }
}
BENCHMARK(BM_RotateLanes360);

static void BM_EncodeRateHalf(benchmark::State& state) {
    const enc::Encoder enc(rate_half());
    const auto info = enc::random_info_bits(rate_half().k(), 5);
    for (auto _ : state) benchmark::DoNotOptimize(enc.encode(info));
    state.SetItemsProcessed(state.iterations() * rate_half().k());
}
BENCHMARK(BM_EncodeRateHalf);

static void BM_SyndromeRateHalf(benchmark::State& state) {
    const enc::Encoder enc(rate_half());
    const auto cw = enc.encode(enc::random_info_bits(rate_half().k(), 6));
    for (auto _ : state) benchmark::DoNotOptimize(rate_half().syndrome(cw));
}
BENCHMARK(BM_SyndromeRateHalf);

static void BM_DecodeIterationFloat(benchmark::State& state) {
    core::DecoderConfig cfg;
    cfg.schedule = core::Schedule::ZigzagForward;
    cfg.max_iterations = 1;
    cfg.early_stop = false;
    core::Decoder dec(rate_half(), cfg);
    const auto llr = noisy_llr(rate_half(), 1.0, 7);
    for (auto _ : state) benchmark::DoNotOptimize(dec.decode(llr));
    state.SetItemsProcessed(state.iterations() * rate_half().n());
}
BENCHMARK(BM_DecodeIterationFloat)->Unit(benchmark::kMillisecond);

static void BM_DecodeIterationFixed6(benchmark::State& state) {
    core::DecoderConfig cfg;
    cfg.schedule = core::Schedule::ZigzagSegmented;
    cfg.max_iterations = 1;
    cfg.early_stop = false;
    core::FixedDecoder dec(rate_half(), cfg, quant::kQuant6);
    const auto llr = noisy_llr(rate_half(), 1.0, 8);
    for (auto _ : state) benchmark::DoNotOptimize(dec.decode(llr));
    state.SetItemsProcessed(state.iterations() * rate_half().n());
}
BENCHMARK(BM_DecodeIterationFixed6)->Unit(benchmark::kMillisecond);

static void BM_RtlIteration(benchmark::State& state) {
    static const arch::HardwareMapping map(rate_half());
    arch::RtlConfig rc;
    rc.decoder.max_iterations = 1;
    rc.decoder.early_stop = false;
    arch::RtlDecoder rtl(rate_half(), map, rc);
    const auto llr = noisy_llr(rate_half(), 1.0, 9);
    std::vector<quant::QLLR> q(llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i) q[i] = quant::quantize(llr[i], rc.spec);
    for (auto _ : state) {
        rtl.run_iterations(q, 1);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rate_half().n());
}
BENCHMARK(BM_RtlIteration)->Unit(benchmark::kMillisecond);

static void BM_FullDecode30ItersFixed(benchmark::State& state) {
    core::DecoderConfig cfg;
    cfg.schedule = core::Schedule::ZigzagForward;
    cfg.max_iterations = 30;
    core::FixedDecoder dec(rate_half(), cfg, quant::kQuant6);
    const auto llr = noisy_llr(rate_half(), 1.4, 10);
    for (auto _ : state) benchmark::DoNotOptimize(dec.decode(llr));
    state.SetItemsProcessed(state.iterations() * rate_half().k());
    state.SetLabel("items = info bits (software Mbit/s)");
}
BENCHMARK(BM_FullDecode30ItersFixed)->Unit(benchmark::kMillisecond);
