// Streaming decode service tier (src/service/service.hpp). Runs under all
// three sanitizer tiers; the TSan build is the load-bearing one for this
// file — it pins the service's locking discipline and the
// Engine::convergence_snapshot() torn-read regression:
//
//   * producer/consumer stress — many streams over mixed classes (SIMD +
//     scalar), several producers, few workers;
//   * admission saturation — Reject counts drops and never deadlocks,
//     accepted + dropped == submitted; Block accepts everything;
//   * per-stream FIFO ordering — independent callback-side seq check on top
//     of the service's internal counter, both must be zero;
//   * worker-count determinism pin — decoded-bit tallies invariant across
//     1/2/4 workers (the service only re-batches; decode_batch is bit-pinned
//     to per-frame decoding), mirroring the Monte-Carlo 1=2=8 thread pin;
//   * convergence_snapshot() — a poller thread reads engine telemetry while
//     the owning thread decodes (the regression: convergence() returned a
//     reference into live counters, so a concurrent poller read torn stats);
//   * metrics consistency — conservation laws between the admission,
//     scheduler and delivery counters after drain;
//   * throwing callbacks — counted in callback_failures, never fatal, and
//     the stream's later results still arrive in order; a callback calling
//     stop() or drain() on its own service is refused the same way.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "core/engine.hpp"
#include "service/service.hpp"
#include "service/traffic.hpp"
#include "util/thread_pool.hpp"

namespace dc = dvbs2::code;
namespace dd = dvbs2::core;
namespace ds = dvbs2::service;

namespace {

const dc::Dvbs2Code& toy_code() {
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

dd::EngineSpec toy_spec(dd::DecoderBackend backend) {
    dd::EngineSpec spec;  // fixed, zigzag, q6 — the paper's operating point
    spec.config.backend = backend;
    spec.config.max_iterations = 8;
    return spec;
}

ds::ServiceConfig quick_config(unsigned workers, std::size_t capacity,
                               ds::Admission admission) {
    ds::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = capacity;
    cfg.max_linger = std::chrono::microseconds(1000);
    cfg.admission = admission;
    return cfg;
}

/// Mixed-backend two-class setup used by most tests.
std::vector<ds::TrafficClass> add_mixed_classes(ds::DecodeService& svc) {
    const auto simd = svc.add_class(toy_code(), toy_spec(dd::DecoderBackend::Simd));
    const auto scalar = svc.add_class(toy_code(), toy_spec(dd::DecoderBackend::Scalar));
    return {{simd, &toy_code(), 3.0}, {scalar, &toy_code(), 3.0}};
}

}  // namespace

TEST(Service, ProducerConsumerStressDeliversEverythingInOrder) {
    ds::DecodeService svc(quick_config(3, 64, ds::Admission::Block));
    const auto classes = add_mixed_classes(svc);
    ds::TrafficOptions opt;
    opt.streams = 40;
    opt.frames_per_stream = 6;
    opt.producers = 4;
    const auto rep = ds::run_traffic(svc, classes, opt);
    EXPECT_EQ(rep.submitted, 240u);
    EXPECT_EQ(rep.accepted, 240u);  // Block admission drops nothing
    EXPECT_EQ(rep.delivered, 240u);
    EXPECT_EQ(rep.ordering_violations, 0u);
    const auto m = svc.metrics();
    EXPECT_EQ(m.ordering_violations, 0u);
    EXPECT_EQ(m.decode_failures, 0u);
    EXPECT_EQ(m.decoded, 240u);
    EXPECT_LE(m.peak_queue_depth, 64u);  // admission keeps the bound
}

TEST(Service, RejectAdmissionCountsDropsAndNeverDeadlocks) {
    // A deliberately tiny queue under a producer burst: every submit must
    // return promptly (Accepted or Rejected — never block), the books must
    // balance, and drain() must complete.
    ds::DecodeService svc(quick_config(2, 4, ds::Admission::Reject));
    const auto classes = add_mixed_classes(svc);
    ds::TrafficOptions opt;
    opt.streams = 32;
    opt.frames_per_stream = 8;
    opt.producers = 4;
    const auto rep = ds::run_traffic(svc, classes, opt);
    EXPECT_EQ(rep.accepted + rep.rejected, rep.submitted);
    EXPECT_EQ(rep.delivered, rep.accepted);  // every accepted frame arrives
    EXPECT_EQ(rep.ordering_violations, 0u);  // rejects leave no seq gaps
    const auto m = svc.metrics();
    EXPECT_EQ(m.dropped, rep.rejected);
    EXPECT_EQ(m.enqueued, rep.accepted);
    EXPECT_EQ(m.ordering_violations, 0u);
}

TEST(Service, BlockAdmissionAcceptsEverythingThroughBackpressure) {
    ds::DecodeService svc(quick_config(2, 2, ds::Admission::Block));
    const auto classes = add_mixed_classes(svc);
    ds::TrafficOptions opt;
    opt.streams = 16;
    opt.frames_per_stream = 4;
    opt.producers = 3;
    const auto rep = ds::run_traffic(svc, classes, opt);
    EXPECT_EQ(rep.accepted, rep.submitted);
    EXPECT_EQ(rep.rejected, 0u);
    EXPECT_EQ(rep.delivered, rep.submitted);
    EXPECT_LE(svc.metrics().peak_queue_depth, 2u);
}

TEST(Service, DecodedBitTalliesInvariantAcrossWorkerCounts) {
    // The service determinism pin, mirroring PR 1's 1=2=8 thread pin on the
    // Monte-Carlo engine: identical traffic at different worker counts must
    // produce identical decoded bits — batching composition may differ, the
    // results may not (decode_batch ≡ per-frame decode_into is pinned at the
    // engine layer; the service only re-batches).
    ds::TrafficOptions opt;
    opt.streams = 24;
    opt.frames_per_stream = 5;
    opt.producers = 2;
    std::vector<std::uint64_t> tallies;
    for (unsigned workers : {1u, 2u, 4u}) {
        ds::DecodeService svc(quick_config(workers, 48, ds::Admission::Block));
        const auto classes = add_mixed_classes(svc);
        const auto rep = ds::run_traffic(svc, classes, opt);
        EXPECT_EQ(rep.delivered, 120u) << workers << " workers";
        EXPECT_EQ(rep.ordering_violations, 0u) << workers << " workers";
        EXPECT_GT(rep.decoded_bit_tally, 0u) << workers << " workers";
        tallies.push_back(rep.decoded_bit_tally);
    }
    EXPECT_EQ(tallies[0], tallies[1]);
    EXPECT_EQ(tallies[0], tallies[2]);
}

TEST(Service, ConvergenceSnapshotIsSafeAgainstConcurrentDecodes) {
    // The satellite-1 regression, pinned at the engine layer under TSan:
    // convergence() hands back a reference into live counters, so a metrics
    // poller reading it while the owning thread decodes raced (torn stats).
    // convergence_snapshot() takes the recording lock and must be clean.
    const auto eng = dd::make_engine(toy_code(), toy_spec(dd::DecoderBackend::Scalar));
    const std::size_t n = eng->frame_length();
    std::vector<double> llr(n, 2.0);  // all-zero codeword, instantly decodable
    std::atomic<bool> done{false};
    std::thread poller([&] {
        std::uint64_t last_frames = 0;
        while (!done.load(std::memory_order_acquire)) {
            const dd::ConvergenceStats snap = eng->convergence_snapshot();
            // Frame counts are monotone and internally consistent in every
            // snapshot — a torn read would break one of these.
            EXPECT_GE(snap.frames, last_frames);
            last_frames = snap.frames;
            EXPECT_LE(snap.converged_frames, snap.frames);
            std::uint64_t hist_sum = 0;
            for (const auto h : snap.histogram) hist_sum += h;
            EXPECT_EQ(hist_sum, snap.frames);
            std::this_thread::yield();
        }
    });
    dd::DecodeResult out;
    for (int i = 0; i < 400; ++i) eng->decode_into(llr, out);
    done.store(true, std::memory_order_release);
    poller.join();
    const auto final = eng->convergence_snapshot();
    EXPECT_EQ(final.frames, 400u);
    EXPECT_EQ(final.converged_frames, 400u);
}

TEST(Service, MetricsPollerRacesCleanlyWithTraffic) {
    // End-to-end version of the snapshot pin: hammer metrics() (which walks
    // every worker's engines via convergence_snapshot) while traffic runs.
    ds::DecodeService svc(quick_config(3, 32, ds::Admission::Block));
    const auto classes = add_mixed_classes(svc);
    std::atomic<bool> done{false};
    std::thread poller([&] {
        while (!done.load(std::memory_order_acquire)) {
            const auto m = svc.metrics();
            EXPECT_LE(m.decoded, m.enqueued);
            EXPECT_LE(m.convergence.converged_frames, m.convergence.frames);
            std::this_thread::yield();
        }
    });
    ds::TrafficOptions opt;
    opt.streams = 24;
    opt.frames_per_stream = 6;
    opt.producers = 3;
    const auto rep = ds::run_traffic(svc, classes, opt);
    done.store(true, std::memory_order_release);
    poller.join();
    EXPECT_EQ(rep.ordering_violations, 0u);
    EXPECT_EQ(rep.delivered, rep.accepted);
}

TEST(Service, MetricsObeyConservationLawsAfterDrain) {
    ds::DecodeService svc(quick_config(2, 32, ds::Admission::Block));
    const auto classes = add_mixed_classes(svc);
    ds::TrafficOptions opt;
    opt.streams = 20;
    opt.frames_per_stream = 4;
    opt.producers = 2;
    const auto rep = ds::run_traffic(svc, classes, opt);
    const auto m = svc.metrics();
    // Conservation: accepted == decoded == delivered; the scheduler saw
    // exactly the decoded frames; every batch landed in one fill decile.
    EXPECT_EQ(m.enqueued, rep.accepted);
    EXPECT_EQ(m.decoded, rep.delivered);
    EXPECT_EQ(m.batch_frames, m.decoded);
    EXPECT_EQ(m.queue_depth, 0u);
    EXPECT_EQ(m.latency.total, rep.delivered);
    std::uint64_t deciles = 0;
    for (const auto d : m.batch_fill_deciles) deciles += d;
    EXPECT_EQ(deciles, m.batches);
    EXPECT_LE(m.full_batches + m.linger_batches, m.batches);
    EXPECT_GT(m.mean_batch_fill(), 0.0);
    EXPECT_EQ(m.convergence.frames, m.decoded);
}

// Per-class decode counters: one entry per class, frames summing to
// `decoded`, batches to `batches`, and positive decode seconds for every
// class that decoded.
TEST(Service, PerClassDecodeCountersAddUpToTheTotals) {
    ds::DecodeService svc(quick_config(2, 32, ds::Admission::Block));
    const auto classes = add_mixed_classes(svc);
    EXPECT_EQ(svc.metrics().classes.size(), classes.size());  // before any decode
    ds::TrafficOptions opt;
    opt.streams = 20;
    opt.frames_per_stream = 4;
    opt.producers = 2;
    const auto rep = ds::run_traffic(svc, classes, opt);
    const auto m = svc.metrics();
    ASSERT_EQ(m.classes.size(), classes.size());
    std::uint64_t frames = 0;
    std::uint64_t batches = 0;
    double share = 0.0;
    for (std::size_t c = 0; c < m.classes.size(); ++c) {
        frames += m.classes[c].frames;
        batches += m.classes[c].batches;
        share += m.decode_share(c);
        EXPECT_GT(m.classes[c].frames, 0u) << "class " << c;
        EXPECT_GT(m.classes[c].decode_s, 0.0) << "class " << c;
    }
    EXPECT_EQ(frames, m.decoded);
    EXPECT_EQ(frames, rep.delivered);
    EXPECT_EQ(batches, m.batches);
    EXPECT_NEAR(share, 1.0, 1e-9);
}

// A worker or producer count past util::kMaxThreads (a negative count cast
// to unsigned reads as 4294967295) is rejected, naming the field, before
// any thread starts; the bound itself is accepted.
TEST(Service, ThreadCountsAreHeldToTheThreadBound) {
    for (const unsigned workers : {dvbs2::util::kMaxThreads + 1, static_cast<unsigned>(-1)}) {
        try {
            ds::DecodeService svc(quick_config(workers, 8, ds::Admission::Block));
            FAIL() << "workers=" << workers << " accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("workers must be at most 4096"),
                      std::string::npos)
                << e.what();
        }
    }

    ds::DecodeService svc(quick_config(1, 8, ds::Admission::Block));
    const auto classes = add_mixed_classes(svc);
    ds::TrafficOptions opt;
    opt.streams = 2;
    opt.frames_per_stream = 1;
    for (const unsigned producers : {dvbs2::util::kMaxThreads + 1, static_cast<unsigned>(-1)}) {
        opt.producers = producers;
        try {
            ds::run_traffic(svc, classes, opt);
            FAIL() << "producers=" << producers << " accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("producers must be at most 4096"),
                      std::string::npos)
                << e.what();
        }
    }
    svc.drain();
    EXPECT_EQ(svc.metrics().decoded, 0u);  // the rejected runs submitted nothing

    opt.producers = 3;
    const auto rep = ds::run_traffic(svc, classes, opt);
    EXPECT_EQ(rep.delivered, 2u);
}

TEST(Service, SubmitValidatesSizeFinitenessAndIds) {
    ds::DecodeService svc(quick_config(1, 8, ds::Admission::Reject));
    const auto cls = svc.add_class(toy_code(), toy_spec(dd::DecoderBackend::Scalar));
    const auto stream = svc.open_stream(cls, {});
    const std::size_t n = svc.class_frame_length(cls);
    ASSERT_EQ(n, static_cast<std::size_t>(toy_code().n()));

    std::vector<double> short_frame(n - 1, 1.0);
    try {
        svc.submit(stream, short_frame);
        FAIL() << "short frame accepted";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(std::to_string(n - 1)), std::string::npos) << msg;
        EXPECT_NE(msg.find("N=" + std::to_string(n)), std::string::npos) << msg;
    }

    std::vector<double> nan_frame(n, 1.0);
    nan_frame[n / 2] = std::numeric_limits<double>::quiet_NaN();
    try {
        svc.submit(stream, nan_frame);
        FAIL() << "NaN frame accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
    }

    std::vector<double> good(n, 1.0);
    EXPECT_THROW(svc.submit(stream + 7, good), std::runtime_error);
    EXPECT_THROW(svc.open_stream(cls + 5, {}), std::runtime_error);
    // Malformed submissions poisoned nothing: a good frame still decodes.
    EXPECT_EQ(svc.submit(stream, good), ds::SubmitStatus::Accepted);
    svc.drain();
    EXPECT_EQ(svc.metrics().decoded, 1u);
}

TEST(Service, SpecsDifferingOnlyInCheckRuleGetDistinctClasses) {
    // The service keys classes by the full EngineSpec, so two specs that
    // differ only in check rule land in distinct classes (they never share
    // a lane block), and each class delivers every frame.
    ds::DecodeService svc(quick_config(2, 16, ds::Admission::Block));
    auto exact = toy_spec(dd::DecoderBackend::Scalar);
    exact.config.rule = dd::CheckRule::Exact;
    auto minsum = exact;
    minsum.config.rule = dd::CheckRule::MinSum;
    const auto exact_cls = svc.add_class(toy_code(), exact);
    const auto minsum_cls = svc.add_class(toy_code(), minsum);
    EXPECT_NE(exact_cls, minsum_cls);

    std::atomic<std::uint64_t> exact_done{0}, minsum_done{0};
    const auto exact_stream =
        svc.open_stream(exact_cls, [&](const ds::StreamResult&) { ++exact_done; });
    const auto minsum_stream =
        svc.open_stream(minsum_cls, [&](const ds::StreamResult&) { ++minsum_done; });
    std::vector<double> frame(svc.class_frame_length(exact_cls), 2.0);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(svc.submit(exact_stream, frame), ds::SubmitStatus::Accepted);
        EXPECT_EQ(svc.submit(minsum_stream, frame), ds::SubmitStatus::Accepted);
    }
    svc.stop();
    EXPECT_EQ(exact_done.load(), 4u);
    EXPECT_EQ(minsum_done.load(), 4u);
    EXPECT_EQ(svc.metrics().decoded, 8u);
}

TEST(Service, StopClosesIntakeAndIsIdempotent) {
    ds::DecodeService svc(quick_config(2, 8, ds::Admission::Block));
    const auto cls = svc.add_class(toy_code(), toy_spec(dd::DecoderBackend::Scalar));
    std::atomic<std::uint64_t> delivered{0};
    const auto stream = svc.open_stream(cls, [&](const ds::StreamResult&) { ++delivered; });
    std::vector<double> frame(svc.class_frame_length(cls), 2.0);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(svc.submit(stream, frame), ds::SubmitStatus::Accepted);
    svc.stop();
    EXPECT_EQ(delivered.load(), 5u);  // stop drains what was accepted
    EXPECT_EQ(svc.submit(stream, frame), ds::SubmitStatus::Closed);
    svc.stop();  // idempotent
    EXPECT_EQ(svc.metrics().decoded, 5u);
}

TEST(Service, CallbackMayResubmitToItsOwnStream) {
    // Feedback pipelines re-submit from the result callback; with Reject
    // admission this must never deadlock (documented hazard: Block from a
    // callback can stall its worker).
    ds::DecodeService svc(quick_config(2, 16, ds::Admission::Reject));
    const auto cls = svc.add_class(toy_code(), toy_spec(dd::DecoderBackend::Scalar));
    std::vector<double> frame(svc.class_frame_length(cls), 2.0);
    std::atomic<int> hops{0};
    ds::DecodeService* psvc = &svc;
    ds::StreamId stream = 0;
    stream = svc.open_stream(cls, [&, psvc](const ds::StreamResult& r) {
        if (hops.fetch_add(1) < 9)
            (void)psvc->submit(r.stream, frame);  // chain the next hop
    });
    EXPECT_EQ(svc.submit(stream, frame), ds::SubmitStatus::Accepted);
    // The chain finishes in bounded time: each hop enqueues before the
    // previous one completes delivery, so drain() observes them all only
    // once the chain stops extending.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (hops.load() < 10 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    svc.drain();
    EXPECT_GE(hops.load(), 10);
    EXPECT_EQ(svc.metrics().ordering_violations, 0u);
}

TEST(Service, ThrowingCallbackIsCountedAndDeliveryContinuesInOrder) {
    // Regression: a result callback that threw escaped the worker thread
    // and ended the process in std::terminate. Now each throw is counted,
    // the stream keeps receiving every later result exactly once and in
    // order, a second stream is unaffected, and drain() returns.
    ds::DecodeService svc(quick_config(2, 64, ds::Admission::Block));
    const auto cls = svc.add_class(toy_code(), toy_spec(dd::DecoderBackend::Scalar));
    constexpr std::uint64_t kFrames = 12;
    // Each vector is written only by its stream's callbacks, which the
    // service serializes under the stream's delivery lock; read after drain.
    std::vector<std::uint64_t> throwing_seen, quiet_seen;
    const auto throwing = svc.open_stream(cls, [&](const ds::StreamResult& r) {
        throwing_seen.push_back(r.seq);
        if (r.seq % 2 == 1) throw std::runtime_error("callback failure");
    });
    const auto quiet =
        svc.open_stream(cls, [&](const ds::StreamResult& r) { quiet_seen.push_back(r.seq); });
    std::vector<double> frame(svc.class_frame_length(cls), 2.0);
    for (std::uint64_t i = 0; i < kFrames; ++i) {
        ASSERT_EQ(svc.submit(throwing, frame), ds::SubmitStatus::Accepted);
        ASSERT_EQ(svc.submit(quiet, frame), ds::SubmitStatus::Accepted);
    }
    svc.drain();

    std::vector<std::uint64_t> in_order(kFrames);
    for (std::uint64_t i = 0; i < kFrames; ++i) in_order[i] = i;
    EXPECT_EQ(throwing_seen, in_order);
    EXPECT_EQ(quiet_seen, in_order);
    const auto m = svc.metrics();
    EXPECT_EQ(m.callback_failures, kFrames / 2);
    EXPECT_EQ(m.decoded, 2 * kFrames);
    EXPECT_EQ(m.decode_failures, 0u);
    EXPECT_EQ(m.ordering_violations, 0u);
}

TEST(Service, CallbackCallingStopOrDrainIsCountedNotFatal) {
    // Regression: stop() from a result callback joined its own worker, the
    // throw skipped the remaining joins, and the destructor then ended the
    // process in std::terminate; drain() from a callback waited for its own
    // batch forever. Both now throw std::logic_error on a worker thread of
    // the same service, before touching any state: the throw is counted like
    // any failing callback, delivery continues, and destruction stops
    // cleanly.
    std::atomic<int> refused{0};
    {
        ds::DecodeService svc(quick_config(2, 8, ds::Admission::Block));
        const auto cls = svc.add_class(toy_code(), toy_spec(dd::DecoderBackend::Scalar));
        ds::DecodeService* psvc = &svc;
        const auto reenter = [&refused, psvc](void (ds::DecodeService::*call)()) {
            return [&refused, psvc, call](const ds::StreamResult&) {
                try {
                    (psvc->*call)();
                } catch (const std::logic_error&) {
                    ++refused;
                    throw;
                }
            };
        };
        const auto stopper = svc.open_stream(cls, reenter(&ds::DecodeService::stop));
        const auto drainer = svc.open_stream(cls, reenter(&ds::DecodeService::drain));
        std::atomic<int> quiet_seen{0};
        const auto quiet = svc.open_stream(cls, [&](const ds::StreamResult&) { ++quiet_seen; });
        std::vector<double> frame(svc.class_frame_length(cls), 2.0);
        ASSERT_EQ(svc.submit(stopper, frame), ds::SubmitStatus::Accepted);
        ASSERT_EQ(svc.submit(drainer, frame), ds::SubmitStatus::Accepted);
        svc.drain();
        // the refused stop() left intake open and the workers running
        ASSERT_EQ(svc.submit(quiet, frame), ds::SubmitStatus::Accepted);
        svc.drain();
        EXPECT_EQ(quiet_seen.load(), 1);
        const auto m = svc.metrics();
        EXPECT_EQ(m.callback_failures, 2u);
        EXPECT_EQ(m.decoded, 3u);
        EXPECT_EQ(m.decode_failures, 0u);
        EXPECT_EQ(m.ordering_violations, 0u);
    }  // the destructor's stop() joins both workers
    EXPECT_EQ(refused.load(), 2);
}

TEST(Service, ConfigValidationRejectsZeroCapacityAndNegativeLinger) {
    ds::ServiceConfig bad;
    bad.workers = 1;
    bad.queue_capacity = 0;
    EXPECT_THROW(ds::DecodeService{bad}, std::runtime_error);
    ds::ServiceConfig neg;
    neg.workers = 1;
    neg.max_linger = std::chrono::microseconds(-1);
    EXPECT_THROW(ds::DecodeService{neg}, std::runtime_error);
}

TEST(Service, LingerFlushesPartialBatchesForSparseTraffic) {
    // A single stream into a 32-lane SIMD class: full blocks never form, so
    // only the max-linger deadline (or nothing) can flush frames through.
    ds::DecodeService svc(quick_config(1, 8, ds::Admission::Block));
    const auto cls = svc.add_class(toy_code(), toy_spec(dd::DecoderBackend::Simd));
    ASSERT_GT(svc.class_preferred_batch(cls), 1);
    std::atomic<std::uint64_t> delivered{0};
    const auto stream = svc.open_stream(cls, [&](const ds::StreamResult&) { ++delivered; });
    std::vector<double> frame(svc.class_frame_length(cls), 2.0);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(svc.submit(stream, frame), ds::SubmitStatus::Accepted);
    svc.drain();
    EXPECT_EQ(delivered.load(), 3u);
    const auto m = svc.metrics();
    EXPECT_GE(m.batches, 1u);
    EXPECT_EQ(m.batch_frames, 3u);
}
