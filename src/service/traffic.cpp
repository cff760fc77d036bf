#include "service/traffic.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/modem.hpp"
#include "enc/encoder.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace dvbs2::service {

namespace {

/// Per-stream callback state. Everything is written under the stream's
/// delivery lock (callbacks are serialized per stream), read after drain.
struct StreamProbe {
    std::uint64_t expected_seq = 0;
    std::uint64_t delivered = 0;
    std::uint64_t converged = 0;
    std::uint64_t ordering_violations = 0;
    std::uint64_t bit_tally = 0;
};

std::vector<std::vector<double>> make_templates(const TrafficClass& tc, std::size_t count,
                                                std::uint64_t seed, std::size_t class_index) {
    const dvbs2::enc::Encoder encoder(*tc.code);
    const double rate = static_cast<double>(tc.code->k()) / static_cast<double>(tc.code->n());
    const double sigma = dvbs2::comm::noise_sigma(tc.ebn0_db, rate, dvbs2::comm::Modulation::Bpsk);
    std::vector<std::vector<double>> templates;
    templates.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
        // One derived stream per (class, template, role): frames are
        // reproducible independently of generation order.
        const auto info = dvbs2::enc::random_info_bits(
            tc.code->k(), dvbs2::util::derive_stream(seed, class_index, t, 0));
        dvbs2::comm::AwgnModem modem(dvbs2::comm::Modulation::Bpsk,
                                     dvbs2::util::derive_stream(seed, class_index, t, 1));
        templates.push_back(modem.transmit(encoder.encode(info), sigma));
    }
    return templates;
}

}  // namespace

TrafficReport run_traffic(DecodeService& svc, const std::vector<TrafficClass>& classes,
                          const TrafficOptions& opt) {
    DVBS2_REQUIRE(!classes.empty(), "run_traffic: need at least one traffic class");
    DVBS2_REQUIRE(opt.streams > 0, "run_traffic: need at least one stream");
    DVBS2_REQUIRE(opt.templates_per_class > 0, "run_traffic: need at least one template");
    DVBS2_REQUIRE(opt.producers <= util::kMaxThreads,
                  "run_traffic: producers must be at most " + std::to_string(util::kMaxThreads) +
                      ", got " + std::to_string(opt.producers));

    // Pre-generate the channel realizations once; producers only memcpy.
    std::vector<std::vector<std::vector<double>>> templates;
    templates.reserve(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c)
        templates.push_back(make_templates(classes[c], opt.templates_per_class, opt.seed, c));

    // Open the streams: stream s runs class s mod #classes.
    std::vector<std::unique_ptr<StreamProbe>> probes(opt.streams);
    std::vector<StreamId> ids(opt.streams);
    std::vector<std::size_t> stream_class(opt.streams);
    for (std::size_t s = 0; s < opt.streams; ++s) {
        probes[s] = std::make_unique<StreamProbe>();
        stream_class[s] = s % classes.size();
        StreamProbe* probe = probes[s].get();
        ids[s] = svc.open_stream(classes[stream_class[s]].cls, [probe](const StreamResult& r) {
            if (r.seq != probe->expected_seq)
                ++probe->ordering_violations;
            else
                ++probe->expected_seq;
            ++probe->delivered;
            if (r.result.converged) ++probe->converged;
            probe->bit_tally += r.result.codeword.count();
        });
    }

    // Drive: producer p owns streams p, p+P, p+2P, ... — each stream is fed
    // by exactly one thread, so its submission order is deterministic.
    std::atomic<std::uint64_t> submitted{0}, accepted{0}, rejected{0}, closed{0};
    const unsigned producers = std::max(1u, opt.producers);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (std::size_t round = 0; round < opt.frames_per_stream; ++round) {
                for (std::size_t s = p; s < opt.streams; s += producers) {
                    const auto& pool = templates[stream_class[s]];
                    const auto& frame = pool[(s + round) % pool.size()];
                    submitted.fetch_add(1, std::memory_order_relaxed);
                    switch (svc.submit(ids[s], frame)) {
                        case SubmitStatus::Accepted:
                            accepted.fetch_add(1, std::memory_order_relaxed);
                            break;
                        case SubmitStatus::Rejected:
                            rejected.fetch_add(1, std::memory_order_relaxed);
                            break;
                        case SubmitStatus::Closed:
                            closed.fetch_add(1, std::memory_order_relaxed);
                            break;
                    }
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    svc.drain();
    const auto t1 = std::chrono::steady_clock::now();

    TrafficReport rep;
    rep.submitted = submitted.load();
    rep.accepted = accepted.load();
    rep.rejected = rejected.load();
    rep.closed = closed.load();
    rep.wall_s = std::chrono::duration<double>(t1 - t0).count();
    for (const auto& probe : probes) {
        rep.delivered += probe->delivered;
        rep.converged += probe->converged;
        rep.ordering_violations += probe->ordering_violations;
        rep.decoded_bit_tally += probe->bit_tally;
    }
    return rep;
}

}  // namespace dvbs2::service
