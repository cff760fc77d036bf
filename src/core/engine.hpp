// Unified decoder-engine layer.
//
// `core::Engine` is the one type-erased interface every decode backend
// implements: the paper's message-passing decoder as the floating-point
// reference, the scalar fixed-point datapath model and the SIMD fixed-point
// engine (group-parallel and frame-per-lane lane mappings). Every consumer —
// the Monte-Carlo harness, the examples, the benches, the streaming service
// — talks to this interface only. `make_engine` builds one of the three
// from the spec's (Arithmetic, DecoderBackend); the full EngineSpec
// (schedule, rule, quantization, lane mode) parameterizes the built
// instance and is validated centrally by validate_engine_spec before any
// engine is built, so illegal combinations fail in one place with a
// diagnostic naming the offending option.
//
// The base class owns everything the engines share: the spec, the frame
// length, channel staging and the convergence telemetry. Its non-virtual
// decode entry points check span sizes, then stage each frame through one
// routine — reject non-finite LLRs, then clamp (float engines) or quantize
// (fixed engines; on the SIMD backend with the vector quantizer of
// core/simd/quantize.hpp) — before handing the staged words to the backend.
//
// Ownership and lifetime: an engine holds a pointer to the Dvbs2Code it was
// built for (the code must outlive it) and owns all of its mutable state —
// message memories and the staging frame — in a workspace reused across
// calls. Engines are therefore stateful and NOT thread-safe: build
// one engine per worker (see comm/parallel.hpp and service/service.hpp).
// The single supported cross-thread operation is convergence_snapshot(),
// which a metrics poller may call while the owning thread decodes — every
// other member requires the single-writer discipline. After a first call has
// sized the workspace and the caller's DecodeResult, steady-state
// decode_into / decode_batch calls perform no heap allocation (pinned by
// tests/test_alloc.cpp); installing an observer waives that guarantee
// (tracing materializes a syndrome per iteration).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/ir/absint.hpp"
#include "code/tanner.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"

namespace dvbs2::core {

/// Everything needed to build an engine. `quant` applies to fixed-point
/// engines only (ignored — not validated — for Arithmetic::Float).
struct EngineSpec {
    Arithmetic arith = Arithmetic::Fixed;
    DecoderConfig config;
    quant::QuantSpec quant = quant::kQuant6;
};

/// Central configuration validation: throws std::runtime_error with a
/// diagnostic naming the offending option for any illegal combination
/// (float arithmetic with the SIMD backend, lane_mode=group-parallel on a
/// schedule the dataflow IR proves lockstep-illegal, an out-of-range
/// normalization/offset/iteration count, a malformed quantizer spec). Every
/// construction path — engines from make_engine, the Decoder/FixedDecoder
/// wrappers — routes through this, so there is exactly one place that
/// decides legality.
void validate_engine_spec(const EngineSpec& spec);

/// The IR layer's numeric description of the fixed-point datapath `cfg`
/// runs with messages quantized by `q` (raw units of the quantizer step).
/// The one derivation behind engine_range_certificate and the range.ir.*
/// lint family, so lint verdicts and engine-construction verdicts cannot
/// diverge.
analysis::ir::AbsintSpec absint_spec_of(const DecoderConfig& cfg, const quant::QuantSpec& q);

/// The per-event range certificate validate_engine_spec consults for
/// fixed-arithmetic specs: the abstract interpreter's proven bounds for the
/// spec's (schedule, rule, quantizer) over the family-envelope trace dims
/// (worst-case degrees over every shipped long-frame rate, so one
/// certificate covers all standard codes). Always returned checker-verified
/// (check_range_certificate accepted it); cached per datapath key, so
/// repeated engine construction certifies once. Works for any schedule
/// regardless of the quantizer width — `ok == false` certificates name the
/// first overflowing event.
analysis::ir::RangeCertificate engine_range_certificate(const EngineSpec& spec);

/// True when the family-envelope dims behind engine_range_certificate cover
/// `code`: its check in-degree and its largest information-node degree are
/// at most the envelope's, so the certificate's bounds hold for it. Every
/// standard code is covered; a custom code with larger degrees is not.
bool range_certificate_covers(const code::Dvbs2Code& code);

/// Type-erased decoder engine. All LLR spans use the channel sign
/// convention (positive favors bit 0) and must have size N; batched calls
/// take B frames stored back to back (size B·N, frame-major).
class Engine {
public:
    virtual ~Engine();

    /// Decodes one frame of channel LLRs into caller-owned result storage
    /// (allocation-free once `out` is sized; see file header). Non-virtual:
    /// checks the span, stages the frame, hands it to the backend's
    /// decode_staged and records the result into the engine's
    /// ConvergenceStats, so the telemetry is structural — every backend
    /// feeds it without opting in.
    void decode_into(std::span<const double> llr, DecodeResult& out);

    /// Fixed-point engines decode already-quantized raw values; float
    /// engines throw std::runtime_error.
    void decode_raw_into(std::span<const quant::QLLR> qllr, DecodeResult& out);

    /// Decodes `out.size()` frames stored back to back in `llrs`. Results
    /// are bit-identical to per-frame decode_into calls (pinned by
    /// tests/test_engine.cpp and tests/test_convergence.cpp); backends
    /// amortize setup, execute frames in parallel lanes, and refill lanes
    /// from pending frames as lanes converge (lane compaction in the SIMD
    /// engine). The base implementation stages and decodes frame by frame.
    void decode_batch(std::span<const double> llrs, std::span<DecodeResult> out);

    /// Convenience allocating wrapper over decode_into.
    DecodeResult decode(std::span<const double> llr);

    /// Aggregate convergence telemetry over every frame decoded by this
    /// engine since construction (or the last reset_convergence):
    /// iteration-count histogram, converged-frame count, mean iterations.
    /// Recorded by the public decode entry points themselves, so it is
    /// identical across backends whenever the per-frame results are —
    /// which the convergence tier pins. Allocation-free in steady state
    /// (the histogram is sized to max_iterations on first use).
    ///
    /// SINGLE-WRITER CONTRACT: engines are single-writer objects — at most
    /// one thread may drive decode_* at any time. This accessor returns a
    /// reference into live telemetry and is only valid on that same thread
    /// (or while no decode is in flight): a *different* thread polling it
    /// mid-decode can observe a torn update (histogram bumped, frame count
    /// not yet). Concurrent readers — e.g. a service metrics poller watching
    /// a worker's engine — must use convergence_snapshot() instead.
    const ConvergenceStats& convergence() const noexcept { return stats_; }

    /// Coherent copy of the telemetry, safe to call from any thread while
    /// another thread drives decode_* on this engine: the snapshot is taken
    /// under the same lock the recording path holds, so the counts are never
    /// torn (pinned by the tsan tier in tests/test_service.cpp). The copy
    /// allocates; poll it at metrics cadence, not per frame.
    ConvergenceStats convergence_snapshot() const;

    /// Zeroes the telemetry (keeps the histogram storage). Writer-side
    /// operation: call it from the decoding thread, like decode_* itself.
    void reset_convergence() noexcept {
        const std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.reset();
    }

    /// Installs a per-iteration diagnostics observer (empty disables).
    /// Observers must not change any decode result; batched calls fall back
    /// to per-frame execution so traces arrive frame by frame, in order.
    virtual void set_observer(std::function<void(const IterationTrace&)> observer) = 0;

    const DecoderConfig& config() const noexcept { return spec_.config; }
    Arithmetic arithmetic() const noexcept { return spec_.arith; }

    /// Quantization of a fixed-point engine; nullptr for float engines.
    const quant::QuantSpec* quant_spec() const noexcept {
        return spec_.arith == Arithmetic::Fixed ? &spec_.quant : nullptr;
    }

    /// Human-readable backend tag, e.g. "float-scalar", "fixed-simd(avx2)".
    virtual std::string backend_name() const = 0;

    /// Preferred number of frames per decode_batch call (a few lane blocks
    /// of frame-parallel backends; 1 where batching only amortizes setup).
    virtual int preferred_batch() const noexcept;

    /// Channel-frame length N this engine decodes. The public decode entry
    /// points validate every span against it up front, so mismatch
    /// diagnostics name the actual sizes and the expected relation in one
    /// place.
    std::size_t frame_length() const noexcept { return n_; }

    // --- diagnostic hooks implemented by a subset of engines; the default
    // --- implementations throw std::runtime_error naming the limitation ---

    /// Per-check-node information-edge processing order (scalar engines
    /// only; see MpDecoder::set_cn_order).
    virtual void set_cn_order(std::vector<int> order);

    /// Runs exactly `iters` iterations on quantized channel values and
    /// returns the c2v message state (fixed-point engines only).
    virtual std::vector<quant::QLLR> run_and_dump_c2v(std::span<const quant::QLLR> qllr,
                                                      int iters);

protected:
    /// `n` is the channel-frame length N; the spec must already be valid.
    Engine(const EngineSpec& spec, std::size_t n);

    /// The one channel staging routine: throws naming the index of the
    /// first non-finite LLR, after "frame f: " when staging frame `frame`
    /// of a batch, otherwise writes the clamped (Word = double) or
    /// quantized (Word = quant::QLLR) frame to dst[0, llr.size()).
    template <class Word>
    void stage(std::span<const double> llr, Word* dst,
               std::optional<std::size_t> frame = std::nullopt) const;

    // --- backend implementation points (template-method pattern): the
    // --- public decode calls stage the input, call these and record
    // --- convergence telemetry. An engine overrides the overload of its
    // --- arithmetic; the other default throws.

    /// Decodes one staged float frame (clamped LLRs).
    virtual void decode_staged(std::span<const double> llr, DecodeResult& out);

    /// Decodes one staged fixed-point frame (quantized words). The default
    /// throws: raw quantized input needs a fixed-point engine.
    virtual void decode_staged(std::span<const quant::QLLR> qllr, DecodeResult& out);

    /// Decodes a validated batch. Default stages and decodes frame by frame.
    virtual void decode_frames(std::span<const double> llrs, std::span<DecodeResult> out);

private:
    /// Stages one frame (frame `frame` of a batch) into the engine's buffer
    /// and decodes it.
    void stage_and_decode(std::span<const double> llr, DecodeResult& out,
                          std::optional<std::size_t> frame = std::nullopt);
    void record(const DecodeResult& r);

    EngineSpec spec_;
    std::size_t n_;
    std::vector<double> clamped_;         // float engines' staging frame
    std::vector<quant::QLLR> quantized_;  // fixed engines' staging frame

    /// Serializes stats_ between the (single) decoding thread's record()
    /// calls and concurrent convergence_snapshot() readers. Uncontended in
    /// every single-threaded use; one lock per *frame* on the decode path.
    mutable std::mutex stats_mu_;
    ConvergenceStats stats_;
};

/// The factory: validates `spec` (validate_engine_spec) and builds the
/// engine its (arithmetic, backend) selects — float-scalar, fixed-scalar or
/// fixed-simd. Throws std::runtime_error naming the offending option on an
/// invalid spec.
std::unique_ptr<Engine> make_engine(const code::Dvbs2Code& code, const EngineSpec& spec);

}  // namespace dvbs2::core
