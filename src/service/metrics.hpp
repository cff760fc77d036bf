// Observability surface of the streaming decode service.
//
// Everything here is a plain value type: the service assembles a
// ServiceMetrics snapshot on demand (DecodeService::metrics()) by merging
// per-worker engine telemetry (core::Engine::convergence_snapshot — the
// torn-read-safe accessor), per-stream latency histograms, and the batch
// scheduler's fill counters. Histograms are log-bucketed so a snapshot over
// millions of frames stays a few hundred bytes and percentiles cost O(#buckets).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace dvbs2::service {

/// Log2-bucketed latency histogram (microsecond granularity). Bucket 0
/// covers [0, 1) µs, bucket i ≥ 1 covers [2^(i−1), 2^i) µs; the top bucket
/// absorbs everything beyond ~2^62 µs. Percentiles are resolved to the upper
/// bucket edge — a conservative (never optimistic) estimate whose relative
/// error is bounded by the bucket ratio of 2.
struct LatencyHistogram {
    static constexpr int kBuckets = 64;
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;

    void record_seconds(double seconds) noexcept;

    /// Latency (seconds) below which a fraction `p` ∈ [0, 1] of recorded
    /// frames finished; 0 when nothing was recorded.
    double percentile(double p) const noexcept;

    void merge(const LatencyHistogram& o) noexcept;
};

/// Decode work of one traffic class, summed over every worker.
struct ClassMetrics {
    std::uint64_t frames = 0;   ///< frames decoded
    std::uint64_t batches = 0;  ///< decode_batch calls
    double decode_s = 0.0;      ///< wall seconds spent inside decode_batch
};

/// Point-in-time view of the whole service. All counters are cumulative
/// since construction; gauges (queue_depth) are sampled at snapshot time.
struct ServiceMetrics {
    // --- admission / completion counters ---
    std::uint64_t submitted = 0;  ///< submit() calls that reached admission
    std::uint64_t enqueued = 0;   ///< frames accepted into the queue
    std::uint64_t dropped = 0;    ///< frames rejected by admission control
    std::uint64_t decoded = 0;    ///< frames decoded and delivered
    std::uint64_t decode_failures = 0;    ///< batches whose decode threw (bug guard)
    std::uint64_t callback_failures = 0;  ///< result callbacks that threw (counted, not fatal)

    // --- queue ---
    std::uint64_t queue_depth = 0;       ///< pending frames right now
    std::uint64_t peak_queue_depth = 0;  ///< high-water mark of pending frames

    // --- batch scheduler ---
    std::uint64_t batches = 0;        ///< decode_batch calls issued
    std::uint64_t batch_frames = 0;   ///< Σ frames over those batches
    std::uint64_t batch_slots = 0;    ///< Σ preferred_batch() over those batches
    std::uint64_t full_batches = 0;   ///< batches dispatched at exactly preferred_batch()
    std::uint64_t linger_batches = 0; ///< partial batches flushed by the max-linger deadline
    /// Histogram of batch fill = frames / preferred_batch(); decile i counts
    /// batches with fill in (i/10, (i+1)/10] (a full batch lands in decile 9).
    std::array<std::uint64_t, 10> batch_fill_deciles{};
    /// Per-class decode work, indexed by ClassId (one entry per add_class);
    /// the frames sum to `decoded`.
    std::vector<ClassMetrics> classes;

    // --- per-frame results ---
    std::uint64_t ordering_violations = 0;  ///< must stay 0 (CI-gated)
    LatencyHistogram latency;               ///< submit → delivery, all streams
    core::ConvergenceStats convergence;     ///< merged over every worker engine

    /// Mean batch fill in [0, 1]: how full the coalesced lane blocks were.
    double mean_batch_fill() const noexcept {
        return batch_slots ? static_cast<double>(batch_frames) / static_cast<double>(batch_slots)
                           : 0.0;
    }

    /// Class `cls`'s share of the decode seconds of all classes, in [0, 1].
    double decode_share(std::size_t cls) const noexcept {
        double total = 0.0;
        for (const auto& c : classes) total += c.decode_s;
        return total > 0.0 && cls < classes.size() ? classes[cls].decode_s / total : 0.0;
    }
};

/// Compact latency summary of one stream (DecodeService::stream_latency).
struct LatencySummary {
    std::uint64_t frames = 0;
    double p50_s = 0.0;
    double p90_s = 0.0;
    double p99_s = 0.0;
};

}  // namespace dvbs2::service
