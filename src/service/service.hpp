// Streaming decode service: sharded, batched, backpressured.
//
// The paper's IP core is a streaming device — frames arrive continuously
// and the decoder must sustain rate under mixed traffic. This subsystem is
// the software serving layer over the engine layer (core/engine.hpp),
// emulating in one process the shard/aggregate topology of the distributed
// MPI-LDPC decoder in PAPERS.md (Gokalgandhi & Seskar): a bounded MPSC
// frame queue plays the dispatcher rank, per-worker engine instances are
// the decode shards, and per-stream in-order delivery is the aggregation
// step. Pipeline:
//
//   producers ──submit()──▶ bounded queue (admission control: Reject/Block)
//                               │ per-class FIFOs
//                               ▼
//                      batch scheduler (work-claiming, runs on the workers
//                      themselves): coalesces same-class frames into full
//                      Engine::preferred_batch() lane blocks; a max-linger
//                      deadline flushes partial blocks so sparse streams
//                      never starve
//                               │
//                               ▼
//           N shard workers, one engine per (worker, class) —
//           engines are never shared across threads (single-writer
//           contract, core/engine.hpp)
//                               │
//                               ▼
//           per-stream reorder buffer → result callbacks strictly in
//           submission order; latency/fill/convergence metrics aggregated
//           via Engine::convergence_snapshot()
//
// A "class" is one (code, EngineSpec) combination — i.e. (rate, quant,
// schedule, check rule, backend): only frames of the same class can share a
// SIMD lane block, so the class is the coalescing key, and two streams that
// differ only in check rule land in distinct classes. A "stream" is one
// tenant's ordered frame sequence within a class; thousands of streams may
// share a class.
//
// Memory is bounded by construction: admission control caps pending frames
// at ServiceConfig::queue_capacity, in-flight frames are capped at
// workers · preferred_batch, and every frame buffer is recycled through a
// per-class free list — steady-state traffic allocates only when a stream
// reorders (a held DecodeResult copy) or a histogram grows once.
//
// Callback rules: result callbacks run on worker threads under the stream's
// delivery lock. They may call submit() (e.g. to feed a decode pipeline),
// but with Admission::Block a callback that blocks on a full queue can
// stall its worker — use Admission::Reject (or dimension the queue) for
// feedback traffic. Callbacks must not block on other streams' results.
// drain() and stop() called from a callback (a worker thread of the same
// service) throw std::logic_error before touching any state: drain() would
// wait for the caller's own batch and stop() would join the caller's own
// thread. A callback that throws — this error included — is counted in
// ServiceMetrics::callback_failures; the stream's later results are still
// delivered, in order, and the service stops cleanly when destroyed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>

#include "code/tanner.hpp"
#include "core/engine.hpp"
#include "service/metrics.hpp"

namespace dvbs2::service {

/// What submit() does when the queue is at capacity.
enum class Admission {
    Reject,  ///< drop the frame, count it, return SubmitStatus::Rejected
    Block,   ///< backpressure: block the producer until space frees up
};

struct ServiceConfig {
    /// Decode shard workers; 0 = util::resolve_thread_count (DVBS2_THREADS
    /// env var, else hardware concurrency). At most util::kMaxThreads.
    unsigned workers = 0;
    /// Bound on frames pending in the queue (admission control kicks in
    /// beyond it). Total outstanding frames are bounded by
    /// queue_capacity + workers · preferred_batch.
    std::size_t queue_capacity = 1024;
    /// How long a partial batch may wait for same-class frames before it is
    /// flushed to a worker anyway. Trades a little batch fill for bounded
    /// latency on sparse streams.
    std::chrono::microseconds max_linger{5000};
    Admission admission = Admission::Reject;
};

using ClassId = std::uint32_t;
using StreamId = std::uint64_t;

enum class SubmitStatus {
    Accepted,  ///< frame queued; the stream's callback will see it exactly once
    Rejected,  ///< admission control dropped it (queue full, Admission::Reject)
    Closed,    ///< service is stopping; no new frames are accepted
};

/// One delivered result. `result` is only valid during the callback (the
/// underlying storage is recycled); copy what you need.
struct StreamResult {
    StreamId stream = 0;
    std::uint64_t seq = 0;  ///< 0-based submission index within the stream
    const core::DecodeResult& result;
    double latency_s = 0.0;  ///< submit() → this callback
};

/// Per-stream result callback; invoked on worker threads, strictly in `seq`
/// order per stream (see header comment for re-entrancy rules).
using ResultFn = std::function<void(const StreamResult&)>;

class DecodeService {
public:
    /// Starts the worker threads immediately. Throws on a zero queue
    /// capacity or a negative linger.
    explicit DecodeService(ServiceConfig cfg);

    /// stop(): drains everything accepted, then joins the workers.
    ~DecodeService();

    DecodeService(const DecodeService&) = delete;
    DecodeService& operator=(const DecodeService&) = delete;

    /// Registers a decode class — one (code, engine-spec) combination. The
    /// spec is validated here (core::validate_engine_spec) and a prototype
    /// engine is built once to capture frame length and preferred batch, so
    /// an illegal spec fails at registration, not on a worker. The code must
    /// outlive the service. Thread-safe.
    ClassId add_class(const code::Dvbs2Code& code, core::EngineSpec spec);

    /// Opens a stream in `cls`. `on_result` receives every accepted frame's
    /// result exactly once, in submission order. Thread-safe.
    StreamId open_stream(ClassId cls, ResultFn on_result);

    /// Submits one frame of channel LLRs (size must be the class's N; every
    /// value must be finite — malformed input is rejected here, on the
    /// producer, so workers never see it). Copies the span. Thread-safe
    /// (MPSC: any number of producers). Returns Rejected/Closed per
    /// admission policy instead of ever growing the queue unboundedly.
    SubmitStatus submit(StreamId stream, std::span<const double> llr);

    /// Blocks until every frame accepted so far has been delivered. New
    /// frames submitted while draining extend the wait. Throws
    /// std::logic_error when called from this service's result callback.
    void drain();

    /// Closes intake (submit returns Closed), decodes everything already
    /// accepted, delivers it, and joins the workers. Idempotent. Throws
    /// std::logic_error when called from this service's result callback.
    void stop();

    /// Coherent snapshot of all counters/histograms; safe to call from any
    /// thread at any time (the metrics poller path — engine telemetry is
    /// gathered with core::Engine::convergence_snapshot()).
    ServiceMetrics metrics() const;

    /// Latency percentiles of one stream.
    LatencySummary stream_latency(StreamId stream) const;

    /// preferred_batch() of the class's engines (the coalescing target).
    int class_preferred_batch(ClassId cls) const;
    /// Channel frame length N of the class.
    std::size_t class_frame_length(ClassId cls) const;

    const ServiceConfig& config() const noexcept { return cfg_; }

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    ServiceConfig cfg_;
};

}  // namespace dvbs2::service
