// Deterministic multi-stream traffic generator for the decode service.
//
// Shared by the service tests (tests/test_service.cpp), the soak bench
// (bench/bench_service.cpp) and the dvbs2_serve demo: it drives a
// DecodeService with many concurrent producer threads feeding many streams
// across mixed decode classes, and verifies service invariants on the
// callback side — per-stream delivery order, exactly-once delivery, and a
// decoded-bit tally that must be invariant across worker counts (the
// engine layer pins decode_batch bit-identical to per-frame decoding, so
// the service, which only re-batches, must not change a single bit).
//
// All randomness is seeded: each class pre-generates a small pool of
// template LLR frames (encode → AWGN at the class's Eb/N0 → demap) and
// streams cycle through them, so two runs with the same options submit
// byte-identical frames in the same per-stream order regardless of thread
// interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "service/service.hpp"

namespace dvbs2::service {

/// One decode class to exercise: an already-registered service class plus
/// the channel operating point used to synthesize its traffic.
struct TrafficClass {
    ClassId cls = 0;
    const code::Dvbs2Code* code = nullptr;  ///< same code the class was registered with
    double ebn0_db = 2.0;                   ///< channel operating point for templates
};

struct TrafficOptions {
    /// Total concurrent streams, assigned round-robin over the classes.
    std::size_t streams = 16;
    /// Frames each stream submits (in order).
    std::size_t frames_per_stream = 4;
    /// Producer threads; streams are partitioned round-robin across them, so
    /// any producer count preserves each stream's submission order. 0 runs
    /// one; at most util::kMaxThreads.
    unsigned producers = 2;
    /// Template LLR frames pre-generated per class (streams cycle them).
    std::size_t templates_per_class = 4;
    std::uint64_t seed = 0x5eedULL;
};

/// Callback-side view of one run. `ordering_violations` counts frames whose
/// seq did not match the stream's own expected counter — an independent
/// check of the service's per-stream FIFO promise (the service also counts
/// internally; both must be zero). `decoded_bit_tally` is the sum of
/// codeword popcounts over every delivered frame: because submissions are
/// deterministic and decode_batch is bit-pinned, this tally is invariant
/// across worker counts whenever no frame was dropped.
struct TrafficReport {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t closed = 0;
    std::uint64_t delivered = 0;
    std::uint64_t converged = 0;
    std::uint64_t ordering_violations = 0;
    std::uint64_t decoded_bit_tally = 0;
    double wall_s = 0.0;  ///< submit start → drain complete
};

/// Opens `opt.streams` streams over the given classes, drives them from
/// `opt.producers` threads, drains the service, and returns the report.
/// The service must outlive the call; its admission policy decides whether
/// overload drops (Reject) or backpressures (Block).
TrafficReport run_traffic(DecodeService& svc, const std::vector<TrafficClass>& classes,
                          const TrafficOptions& opt);

}  // namespace dvbs2::service
