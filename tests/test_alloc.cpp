// Allocation-regression suite: pins the engine layer's zero-allocation
// contract (core/engine.hpp file header). Global operator new/delete are
// replaced in this translation unit with counting forwarders to
// malloc/posix_memalign; each test warms an engine up (first calls size the
// workspace and the caller's DecodeResult), then asserts that steady-state
// decode_into / decode_batch calls perform exactly ZERO heap allocations —
// for the float-scalar, fixed-scalar and both SIMD engine kinds.
//
// The aligned variants matter: the frame-per-lane batch engine stores
// vector<VecVal> with __m256i members, so its (warmup-time) allocations go
// through the align_val_t overloads. Missing those hooks would undercount
// and let an aligned-allocation regression through.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "core/simd/batch_decoder.hpp"
#include "enc/encoder.hpp"
#include "quant/fixed.hpp"

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
    if (g_tracking.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(size ? size : 1);
    if (!p) throw std::bad_alloc();
    return p;
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
    if (g_tracking.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (align < sizeof(void*)) align = sizeof(void*);
    void* p = nullptr;
    if (posix_memalign(&p, align, size ? size : align) != 0) throw std::bad_alloc();
    return p;
}

}  // namespace

// ---- global replacement: every flavor the implementation may call ----

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc_aligned(size, static_cast<std::size_t>(align));
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc_aligned(size, static_cast<std::size_t>(align));
    } catch (...) {
        return nullptr;
    }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;
namespace dq = dvbs2::quant;
using dvbs2::util::BitVec;

namespace {

const dc::Dvbs2Code& toy_code() {
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

std::vector<double> noisy_llrs(const dc::Dvbs2Code& code, double ebn0_db, std::uint64_t seed) {
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), seed);
    const BitVec cw = enc.encode(info);
    dm::AwgnModem modem(dm::Modulation::Bpsk, seed * 77 + 1);
    const double sigma = dm::noise_sigma(ebn0_db, code.params().rate(), dm::Modulation::Bpsk);
    return modem.transmit(cw, sigma);
}

/// Counts heap allocations over `fn()`; tracking is scoped so gtest's own
/// bookkeeping outside the window never pollutes the count.
template <class Fn>
std::uint64_t allocations_during(Fn&& fn) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_tracking.store(true, std::memory_order_relaxed);
    fn();
    g_tracking.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
}

dd::EngineSpec make_spec(dd::Arithmetic arith, dd::DecoderBackend backend, dd::Schedule schedule,
                         dd::SimdLaneMode lanes = dd::SimdLaneMode::Auto) {
    dd::EngineSpec spec;
    spec.arith = arith;
    spec.config.backend = backend;
    spec.config.schedule = schedule;
    spec.config.lane_mode = lanes;
    spec.config.max_iterations = 10;
    spec.quant = dq::kQuant6;
    return spec;
}

void expect_zero_alloc_single(const dd::EngineSpec& spec, const std::string& context) {
    const auto& code = toy_code();
    const auto eng = dd::make_engine(code, spec);
    // Two frames so the steady-state loop re-decodes different content
    // (convergence at different iteration counts) without resizing anything.
    const auto a = noisy_llrs(code, 1.0, 3);
    const auto b = noisy_llrs(code, 2.0, 4);
    dd::DecodeResult out;
    eng->decode_into(a, out);  // warmup: sizes workspace + result storage
    eng->decode_into(b, out);
    const auto count = allocations_during([&] {
        for (int rep = 0; rep < 3; ++rep) {
            eng->decode_into(a, out);
            eng->decode_into(b, out);
        }
    });
    EXPECT_EQ(count, 0u) << context << " (" << eng->backend_name()
                         << "): steady-state decode_into allocated";
}

}  // namespace

TEST(AllocFree, HooksCountAllocations) {
    // Sanity-check the instrumentation itself: a vector resize inside the
    // window must be visible, and scalar work must not.
    const auto none = allocations_during([] {
        int x = 41;
        x += 1;
        (void)x;
    });
    EXPECT_EQ(none, 0u);
    const auto some = allocations_during([] { std::vector<int> v(1024, 7); });
    EXPECT_GE(some, 1u);
}

TEST(AllocFree, FloatScalarDecodeInto) {
    expect_zero_alloc_single(
        make_spec(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
        "float-scalar");
}

TEST(AllocFree, FixedScalarDecodeInto) {
    expect_zero_alloc_single(
        make_spec(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
        "fixed-scalar zigzag");
    expect_zero_alloc_single(
        make_spec(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, dd::Schedule::Layered),
        "fixed-scalar layered");
}

TEST(AllocFree, SimdGroupDecodeInto) {
    expect_zero_alloc_single(make_spec(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                       dd::Schedule::ZigzagSegmented),
                             "fixed-simd group-parallel");
}

TEST(AllocFree, SimdAutoSerialScheduleDecodeInto) {
    // Serial-chain schedules have no group-parallel mapping: lane_mode=auto
    // decodes their single frames on the scalar reference decoder.
    expect_zero_alloc_single(make_spec(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                       dd::Schedule::ZigzagForward),
                             "fixed-simd auto zigzag-forward");
}

TEST(AllocFree, SimdFramePerLaneDecodeInto) {
    expect_zero_alloc_single(make_spec(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                       dd::Schedule::ZigzagForward,
                                       dd::SimdLaneMode::FramePerLane),
                             "fixed-simd frame-per-lane");
}

TEST(AllocFree, SimdDecodeBatch) {
    const auto& code = toy_code();
    const auto eng = dd::make_engine(
        code, make_spec(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                        dd::Schedule::ZigzagForward, dd::SimdLaneMode::FramePerLane));
    const int batch = eng->preferred_batch();
    ASSERT_GE(batch, 1);
    std::vector<double> flat;
    for (int f = 0; f < batch; ++f) {
        const auto llr = noisy_llrs(code, 1.0 + 0.5 * (f % 3), 10 + static_cast<std::uint64_t>(f));
        flat.insert(flat.end(), llr.begin(), llr.end());
    }
    std::vector<dd::DecodeResult> out(static_cast<std::size_t>(batch));
    eng->decode_batch(flat, out);  // warmup: sizes block staging + results
    eng->decode_batch(flat, out);
    const auto count = allocations_during([&] {
        for (int rep = 0; rep < 3; ++rep) eng->decode_batch(flat, out);
    });
    EXPECT_EQ(count, 0u) << "steady-state decode_batch allocated (" << eng->backend_name() << ")";
}

TEST(AllocFree, LaneCompactionRefillsAreAllocFree) {
    // Maximum retire/refill churn: saturated exact-codeword frames converge
    // at iteration 1, sign-noise frames exhaust the budget, alternating —
    // every lane is retired and refilled several times per decode_batch
    // (preferred_batch spans two 16-bit lane blocks). Lane compaction must run
    // entirely on the pre-sized workspace: zero steady-state allocations,
    // including the per-frame convergence-telemetry recording.
    const auto& code = toy_code();
    auto spec = make_spec(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, dd::Schedule::Layered,
                          dd::SimdLaneMode::FramePerLane);
    spec.config.max_iterations = 4;  // hopeless frames retire at the budget
    const auto eng = dd::make_engine(code, spec);
    const int batch = eng->preferred_batch();
    const auto n = static_cast<std::size_t>(code.n());
    const dvbs2::enc::Encoder enc(code);
    std::vector<double> flat;
    flat.reserve(static_cast<std::size_t>(batch) * n);
    std::uint64_t noise_state = 99;
    for (int f = 0; f < batch; ++f) {
        if (f % 2) {
            const BitVec cw = enc.encode(dvbs2::enc::random_info_bits(
                code.k(), 500 + static_cast<std::uint64_t>(f)));
            for (std::size_t i = 0; i < n; ++i) flat.push_back(cw.get(i) ? -20.0 : 20.0);
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                noise_state += 0x9e3779b97f4a7c15ULL;
                flat.push_back((noise_state >> 17 & 1u) ? -2.0 : 2.0);
            }
        }
    }
    std::vector<dd::DecodeResult> out(static_cast<std::size_t>(batch));
    eng->decode_batch(flat, out);  // warmup: workspace, results, histogram
    eng->decode_batch(flat, out);
    // The fixture really is mixed: instant lanes and budget-exhausted lanes.
    EXPECT_TRUE(out[1].converged);
    EXPECT_EQ(out[1].iterations, 1);
    EXPECT_FALSE(out[0].converged);
    const auto count = allocations_during([&] {
        for (int rep = 0; rep < 3; ++rep) eng->decode_batch(flat, out);
    });
    EXPECT_EQ(count, 0u) << "lane compaction allocated in steady state ("
                         << eng->backend_name() << ")";
}

TEST(AllocFree, FramePerLaneStreamsAreAllocFreeOnBothLaneWidths) {
    // The frame-per-lane decoder picks its lane width from the range
    // certificate: kQuant6 runs 16-bit lanes, a 14-bit quantizer (vn sums
    // past 32767) keeps 32-bit lanes. On both, a steady-state decode_stream
    // with lane refills must run on the pre-sized workspace.
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    for (const auto& [spec, bits] :
         {std::pair{dq::kQuant6, 16}, std::pair{dq::QuantSpec{14, 4}, 32}}) {
        dd::DecoderConfig cfg;
        cfg.rule = dd::CheckRule::MinSum;
        cfg.max_iterations = 4;
        dd::SimdBatchFixedDecoder dec(code, cfg, spec);
        ASSERT_EQ(dec.lane_bits(), bits);
        const auto frames = static_cast<std::size_t>(2 * dec.lanes() + 1);
        std::vector<dq::QLLR> flat(frames * n);
        for (std::size_t i = 0; i < flat.size(); ++i)
            flat[i] = static_cast<dq::QLLR>(static_cast<int>(i * 7 % 23) - 11);
        struct Src {
            const dq::QLLR* data;
            std::size_t n;
        } src{flat.data(), n};
        const auto source = [](void* ctx, std::size_t f, dq::QLLR* dst) {
            const auto* s = static_cast<const Src*>(ctx);
            std::copy(s->data + f * s->n, s->data + (f + 1) * s->n, dst);
        };
        std::vector<dd::DecodeResult> out(frames);
        dec.decode_stream(frames, source, &src, out.data());  // warmup sizes results
        const auto count = allocations_during([&] {
            for (int rep = 0; rep < 3; ++rep) dec.decode_stream(frames, source, &src, out.data());
        });
        EXPECT_EQ(count, 0u) << "steady-state decode_stream allocated on " << bits
                             << "-bit lanes";
    }
}

TEST(AllocFree, FixedRawDecodeInto) {
    // decode_raw_into skips quantization staging entirely; it must be
    // allocation-free from the very same workspace.
    const auto& code = toy_code();
    const auto eng = dd::make_engine(
        code, make_spec(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                        dd::Schedule::ZigzagForward));
    std::vector<dq::QLLR> qllr(static_cast<std::size_t>(code.n()));
    for (std::size_t i = 0; i < qllr.size(); ++i)
        qllr[i] = static_cast<dq::QLLR>(static_cast<int>(i % 15) - 7);
    dd::DecodeResult out;
    eng->decode_raw_into(qllr, out);
    eng->decode_raw_into(qllr, out);
    const auto count = allocations_during([&] {
        for (int rep = 0; rep < 3; ++rep) eng->decode_raw_into(qllr, out);
    });
    EXPECT_EQ(count, 0u) << "steady-state decode_raw_into allocated";
}
