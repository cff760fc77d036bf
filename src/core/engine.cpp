// Unified decoder-engine layer: central validation, the Engine base (span
// checks, channel staging, telemetry), one scalar adapter template that
// serves the float and fixed scalar engines, the SIMD engine, and
// make_engine, which picks one of the three from (arithmetic, backend). The
// public Decoder/FixedDecoder classes are thin wrappers over make_engine
// (see decoder.cpp).
#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>

#include "analysis/ir/analyses.hpp"
#include "code/params.hpp"
#include "core/arith.hpp"
#include "core/mp_decoder.hpp"
#include "core/simd/batch_decoder.hpp"
#include "core/simd/quantize.hpp"
#include "core/simd/simd_decoder.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace dvbs2::core {

// ------------------------------------------------------------- validation

namespace {

/// The worst-case degrees over all shipped long-frame rates.
struct EnvelopeDegrees {
    int check_in = 2;  ///< largest check in-degree
    int info = 3;      ///< largest information-node degree
};

const EnvelopeDegrees& envelope_degrees() {
    static const EnvelopeDegrees deg = [] {
        EnvelopeDegrees d;
        for (code::CodeRate r : code::all_rates()) {
            const code::CodeParams p = code::standard_params(r);
            d.check_in = std::max(d.check_in, p.check_deg - 2);
            d.info = std::max(d.info, p.deg_hi);
        }
        return d;
    }();
    return deg;
}

/// Family-envelope trace dimensions for range certification: the
/// WORST-CASE fan-ins over all shipped long-frame rates — the largest check
/// in-degree and an information node of the largest deg_hi — so one
/// certificate per (schedule, datapath numbers) covers every standard code.
const analysis::ir::TraceDims& range_envelope_dims() {
    static const analysis::ir::TraceDims dims =
        analysis::ir::fan_in_trace_dims(envelope_degrees().check_in, envelope_degrees().info);
    return dims;
}

}  // namespace

analysis::ir::AbsintSpec absint_spec_of(const DecoderConfig& cfg, const quant::QuantSpec& q) {
    analysis::ir::AbsintSpec a;
    a.rule = cfg.rule;
    a.max_raw = q.max_raw();
    a.channel_clamp = a.max_raw;  // the channel is quantized at the word bound
    a.corr_peak = cfg.rule == CheckRule::Exact
                      ? std::llround(std::nearbyint(std::log1p(1.0) / q.step()))
                      : 0;
    a.wide_capacity = std::numeric_limits<std::int32_t>::max();
    a.norm_num = std::llround(cfg.normalization * 16.0);
    a.offset_raw =
        cfg.rule == CheckRule::OffsetMinSum ? std::llround(cfg.offset / q.step()) : 0;
    return a;
}

analysis::ir::RangeCertificate engine_range_certificate(const EngineSpec& spec) {
    const analysis::ir::AbsintSpec a = absint_spec_of(spec.config, spec.quant);
    using Key = std::tuple<int, int, long long, long long, long long, long long, long long>;
    const Key key{static_cast<int>(a.rule),
                  static_cast<int>(spec.config.schedule),
                  a.max_raw,
                  a.channel_clamp,
                  a.corr_peak,
                  a.norm_num,
                  a.offset_raw};
    static std::mutex mu;
    static std::map<Key, analysis::ir::RangeCertificate>& cache =
        *new std::map<Key, analysis::ir::RangeCertificate>();
    {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = cache.find(key);
        if (it != cache.end()) return it->second;
    }
    const analysis::ir::Trace trace =
        analysis::ir::build_schedule_trace(spec.config.schedule, range_envelope_dims());
    analysis::ir::RangeCertificate cert = analysis::ir::certify_ranges(trace, a);
    // the certificate is only trusted checked: an interpreter bug must fail
    // construction loudly, never silently admit an overflowing datapath
    const analysis::ir::RangeCheck chk = analysis::ir::check_range_certificate(trace, a, cert);
    DVBS2_REQUIRE(chk.ok, "range certificate failed its independent check: " +
                              (chk.rejection ? chk.rejection->reason : std::string("?")));
    const std::lock_guard<std::mutex> lock(mu);
    return cache.emplace(key, std::move(cert)).first->second;
}

bool range_certificate_covers(const code::Dvbs2Code& code) {
    const EnvelopeDegrees& env = envelope_degrees();
    const code::CodeParams& cp = code.params();
    return code.check_in_degree() <= env.check_in && std::max(cp.deg_hi, cp.deg_lo) <= env.info;
}

void validate_engine_spec(const EngineSpec& spec) {
    const DecoderConfig& c = spec.config;
    DVBS2_REQUIRE(c.max_iterations >= 0, "max_iterations must be non-negative, got " +
                                             std::to_string(c.max_iterations));
    if (c.rule == CheckRule::NormalizedMinSum)
        DVBS2_REQUIRE(c.normalization > 0.0 && c.normalization <= 1.0,
                      "normalization must be in (0, 1] for rule=normalized-min-sum, got " +
                          std::to_string(c.normalization));
    if (c.rule == CheckRule::OffsetMinSum)
        DVBS2_REQUIRE(c.offset >= 0.0, "offset must be non-negative for rule=offset-min-sum, "
                                       "got " + std::to_string(c.offset));
    if (spec.arith == Arithmetic::Float) {
        DVBS2_REQUIRE(c.backend != DecoderBackend::Simd,
                      "backend=simd models the fixed-point datapath only; "
                      "use fixed arithmetic (core::FixedDecoder / Arithmetic::Fixed) "
                      "for DecoderBackend::Simd");
    } else {
        quant::validate_spec(spec.quant);
    }
    if (c.backend == DecoderBackend::Simd && c.lane_mode == SimdLaneMode::GroupParallel) {
        // Legality is derived, not hardcoded: the dataflow IR classifies each
        // schedule by tracing its def/use dependences (analysis/ir). The
        // group-parallel mapping needs every same-phase dependence to stay
        // inside one lane and respect the lockstep step order, which holds
        // for two-phase and zigzag-segmented only. Frame-per-lane runs every
        // schedule (all decoder state is per frame); lane_mode=auto batches
        // frame-per-lane and runs single frames group-parallel where that is
        // legal and on the scalar reference otherwise.
        const auto& cls = analysis::ir::classify_schedule(c.schedule);
        DVBS2_REQUIRE(cls.group_parallel_legal,
                      "backend=simd with lane_mode=group-parallel cannot run schedule=" +
                          std::string(to_string(c.schedule)) + ": " +
                          cls.group_parallel_obstruction +
                          "; use lane_mode=auto or frame-per-lane to run this schedule "
                          "on the SIMD backend");
    }
    if (spec.arith == Arithmetic::Fixed) {
        // Per-event range certification over the dataflow IR (absint.hpp):
        // the family-envelope certificate must prove every stored word and
        // wide accumulator fits the spec's quantizer, or the spec is
        // rejected naming the first overflowing event. Every <= 16-bit
        // quantizer fits (the worst vn sum stays far inside the 32-bit
        // accumulators); this is the safety net for wider datapaths.
        const analysis::ir::RangeCertificate cert = engine_range_certificate(spec);
        if (!cert.ok) {
            const analysis::ir::Trace trace =
                analysis::ir::build_schedule_trace(c.schedule, range_envelope_dims());
            std::string what =
                "quantization overflows the min-sum datapath: " + cert.offender_stage;
            if (cert.first_offender >= 0)
                what += ", first at " +
                        analysis::ir::describe_event(
                            trace.events[static_cast<std::size_t>(cert.first_offender)]);
            DVBS2_REQUIRE(false, what);
        }
    }
}

// ---------------------------------------------------------- Engine (base)

Engine::Engine(const EngineSpec& spec, std::size_t n) : spec_(spec), n_(n) {
    // Engine-owned staging reused across calls: together with the message
    // memories inside the wrapped decoders it is why steady-state decode
    // calls allocate nothing. The histogram is presized to 0..max_iterations
    // so record() never grows it (both pinned by tests/test_alloc.cpp).
    if (spec.arith == Arithmetic::Fixed)
        quantized_.resize(n);
    else
        clamped_.resize(n);
    stats_.reserve_iterations(spec.config.max_iterations);
}

Engine::~Engine() = default;

template <class Word>
void Engine::stage(std::span<const double> llr, Word* dst,
                   std::optional<std::size_t> frame) const {
    if constexpr (std::is_same_v<Word, quant::QLLR>) {
        // quantize_finite is built with the SIMD backend's -m flags, so a
        // scalar-backend engine, which must run on any host, stays on the loop.
        if (spec_.config.backend == DecoderBackend::Simd &&
            quantize_finite(llr, spec_.quant, dst))
            return;
    }
    // Float and scalar-backend engines, or a non-finite LLR: this loop
    // names its index (and its frame, in a batch).
    for (std::size_t i = 0; i < llr.size(); ++i) {
        DVBS2_REQUIRE(std::isfinite(llr[i]),
                      (frame ? "frame " + std::to_string(*frame) + ": " : std::string()) +
                          "non-finite channel LLR at index " + std::to_string(i));
        if constexpr (std::is_same_v<Word, double>)
            dst[i] = util::clamp_llr(llr[i]);
        else
            dst[i] = quant::quantize(llr[i], spec_.quant);
    }
}

void Engine::stage_and_decode(std::span<const double> llr, DecodeResult& out,
                              std::optional<std::size_t> frame) {
    if (spec_.arith == Arithmetic::Fixed) {
        stage(llr, quantized_.data(), frame);
        decode_staged(std::span<const quant::QLLR>(quantized_), out);
    } else {
        stage(llr, clamped_.data(), frame);
        decode_staged(std::span<const double>(clamped_), out);
    }
}

void Engine::record(const DecodeResult& r) {
    // stats_mu_ serializes the recording against convergence_snapshot()
    // pollers on other threads; decode_* itself stays single-writer. The
    // lock is per frame (not per iteration) and uncontended in every
    // single-threaded use, so it costs nothing measurable on the hot path.
    const std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.record(r.iterations, r.converged);
}

ConvergenceStats Engine::convergence_snapshot() const {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

namespace {

/// One diagnostic shape for every frame-length mismatch: names the actual
/// span size and the engine's N.
void require_frame_span(std::size_t actual, std::size_t n, const char* entry) {
    DVBS2_REQUIRE(actual == n, std::string(entry) + ": channel span has " +
                                   std::to_string(actual) +
                                   " values but this engine decodes frames of N=" +
                                   std::to_string(n) + " (expected span size == N)");
}

}  // namespace

void Engine::decode_into(std::span<const double> llr, DecodeResult& out) {
    require_frame_span(llr.size(), n_, "decode_into");
    stage_and_decode(llr, out);
    record(out);
}

void Engine::decode_raw_into(std::span<const quant::QLLR> qllr, DecodeResult& out) {
    require_frame_span(qllr.size(), n_, "decode_raw_into");
    decode_staged(qllr, out);
    record(out);
}

void Engine::decode_batch(std::span<const double> llrs, std::span<DecodeResult> out) {
    // Validate both spans against each other and against N before any
    // backend code runs, so every engine rejects a mismatched call with the
    // same diagnostic: the error names both actual sizes and the relation
    // they must satisfy.
    const std::size_t frames = out.size();
    DVBS2_REQUIRE(frames > 0, "decode_batch: out.size()=0 result slots for llrs.size()=" +
                                  std::to_string(llrs.size()) +
                                  " LLR values (expected llrs.size() == out.size() * N with "
                                  "out.size() >= 1)");
    DVBS2_REQUIRE(llrs.size() == frames * n_,
                  "decode_batch: llrs.size()=" + std::to_string(llrs.size()) +
                      " does not match out.size()=" + std::to_string(frames) +
                      " frames of N=" + std::to_string(n_) +
                      " (expected llrs.size() == out.size() * N = " +
                      std::to_string(frames * n_) + ")");
    decode_frames(llrs, out);
    for (const DecodeResult& r : out) record(r);
}

void Engine::decode_staged(std::span<const double> /*llr*/, DecodeResult& /*out*/) {
    throw std::logic_error(backend_name() + " has no float decode path");
}

void Engine::decode_staged(std::span<const quant::QLLR> /*qllr*/, DecodeResult& /*out*/) {
    throw std::runtime_error(std::string("decode_raw_into requires a fixed-point engine "
                                         "(this engine's arithmetic is ") +
                             to_string(arithmetic()) + ")");
}

void Engine::decode_frames(std::span<const double> llrs, std::span<DecodeResult> out) {
    for (std::size_t f = 0; f < out.size(); ++f)
        stage_and_decode(llrs.subspan(f * n_, n_), out[f], f);
}

DecodeResult Engine::decode(std::span<const double> llr) {
    DecodeResult result;
    decode_into(llr, result);
    return result;
}

int Engine::preferred_batch() const noexcept { return 1; }

void Engine::set_cn_order(std::vector<int> /*order*/) {
    throw std::runtime_error("per-check-node input orders require a scalar engine "
                             "(DecoderBackend::Scalar); the SIMD engines process the "
                             "canonical slot order");
}

std::vector<quant::QLLR> Engine::run_and_dump_c2v(std::span<const quant::QLLR> /*qllr*/,
                                                  int /*iters*/) {
    throw std::runtime_error(std::string("run_and_dump_c2v requires a fixed-point engine "
                                         "(this engine's arithmetic is ") +
                             to_string(arithmetic()) + ")");
}

// --------------------------------------------------- engine implementations

namespace {

/// The correction table the fixed Exact min-sum datapath points into.
std::optional<quant::BoxplusTable> exact_table(const EngineSpec& spec) {
    if (spec.arith == Arithmetic::Fixed && spec.config.rule == CheckRule::Exact)
        return quant::BoxplusTable(spec.quant);
    return std::nullopt;
}

FixedArith fixed_arith(const EngineSpec& spec, const std::optional<quant::BoxplusTable>& table) {
    const DecoderConfig& c = spec.config;
    return FixedArith(c.rule, spec.quant, table ? &*table : nullptr, c.normalization, c.offset);
}

/// The scalar engines: one MpDecoder<Arith> fed staged frames of
/// Arith::Value (double for float engines, quant::QLLR for fixed ones).
template <class Arith>
class ScalarEngine final : public Engine {
public:
    ScalarEngine(const code::Dvbs2Code& code, const EngineSpec& spec, const char* name)
        : Engine(spec, static_cast<std::size_t>(code.n())),
          name_(name),
          table_(exact_table(spec)),
          dec_(build(code, spec, table_)) {}

    void set_observer(std::function<void(const IterationTrace&)> observer) override {
        dec_.set_observer(std::move(observer));
    }

    std::string backend_name() const override { return name_; }

    void set_cn_order(std::vector<int> order) override { dec_.set_cn_order(std::move(order)); }

    std::vector<quant::QLLR> run_and_dump_c2v(std::span<const quant::QLLR> qllr,
                                              int iters) override {
        if constexpr (std::is_same_v<Arith, FixedArith>) {
            dec_.run_iterations(qllr, iters);
            return dec_.c2v_messages();
        } else {
            return Engine::run_and_dump_c2v(qllr, iters);
        }
    }

protected:
    using Engine::decode_staged;
    void decode_staged(std::span<const typename Arith::Value> words,
                       DecodeResult& out) override {
        dec_.decode_into(words, out);
    }

private:
    static MpDecoder<Arith> build(const code::Dvbs2Code& code, const EngineSpec& spec,
                                  const std::optional<quant::BoxplusTable>& table) {
        const DecoderConfig& c = spec.config;
        if constexpr (std::is_same_v<Arith, FloatArith>)
            return MpDecoder<Arith>(code, c, FloatArith(c.rule, c.normalization, c.offset));
        else
            return MpDecoder<Arith>(code, c, fixed_arith(spec, table));
    }

    const char* name_;
    std::optional<quant::BoxplusTable> table_;  // before dec_, which points into it
    MpDecoder<Arith> dec_;
};

/// Fixed-point SIMD engine. Batches run frame-per-lane (lane = frame) unless
/// lane_mode=group-parallel; single frames run group-parallel (lane =
/// functional unit) where the schedule is lockstep-legal, else on the
/// scalar reference decoder under lane_mode=auto, else as a one-frame batch.
class SimdEngine final : public Engine {
public:
    SimdEngine(const code::Dvbs2Code& code, const EngineSpec& spec, const char* name)
        : Engine(spec, static_cast<std::size_t>(code.n())), name_(name), table_(exact_table(spec)) {
        const SimdLaneMode mode = spec.config.lane_mode;
        if (mode != SimdLaneMode::FramePerLane) {
            if (analysis::ir::classify_schedule(spec.config.schedule).group_parallel_legal)
                group_ = std::make_unique<SimdFixedDecoder>(code, spec.config, spec.quant);
            else
                scalar_ = std::make_unique<MpDecoder<FixedArith>>(code, spec.config,
                                                                  fixed_arith(spec, table_));
        }
        if (mode != SimdLaneMode::GroupParallel)
            batch_ = std::make_unique<SimdBatchFixedDecoder>(code, spec.config, spec.quant);
    }

    void set_observer(std::function<void(const IterationTrace&)> observer) override {
        if (observer && !group_ && !scalar_)
            throw std::runtime_error(
                "lane_mode=frame-per-lane does not emit iteration traces; use "
                "lane_mode=auto or group-parallel (or DecoderBackend::Scalar) for tracing");
        has_observer_ = static_cast<bool>(observer);
        if (group_)
            group_->set_observer(std::move(observer));
        else if (scalar_)
            scalar_->set_observer(std::move(observer));
    }

    std::string backend_name() const override {
        return std::string(name_) + "(" + simd_backend_name() + ")";
    }
    int preferred_batch() const noexcept override {
        // Several lane blocks per call, not one: lane compaction only has
        // frames to splice into retired lanes when the batch outnumbers the
        // lanes, so a deeper preferred batch is what converts per-lane early
        // termination into throughput (see decode_stream). The count is four
        // 32-bit lane blocks — two 16-bit ones — whichever width the
        // certificate picked, so call latency and the service's batch
        // claims do not move with the lane width.
        return batch_ ? 4 * simd_backend_width() : 1;
    }

    std::vector<quant::QLLR> run_and_dump_c2v(std::span<const quant::QLLR> qllr,
                                              int iters) override {
        if (group_) {
            group_->run_iterations(qllr, iters);
            return group_->c2v_messages();
        }
        if (scalar_) {
            scalar_->run_iterations(qllr, iters);
            return scalar_->c2v_messages();
        }
        batch_->run_iterations(qllr, 1, iters);
        return batch_->c2v_messages(0);
    }

protected:
    using Engine::decode_staged;
    void decode_staged(std::span<const quant::QLLR> qllr, DecodeResult& out) override {
        if (group_)
            group_->decode_into(qllr, out);
        else if (scalar_)
            scalar_->decode_into(qllr, out);
        else
            batch_->decode_into(qllr, 1, &out);
    }

    void decode_frames(std::span<const double> llrs, std::span<DecodeResult> out) override {
        if (!batch_ || has_observer_) {
            // Group-parallel lane mode, or tracing: decode frame by frame so
            // observers see one frame's iterations at a time, in order.
            Engine::decode_frames(llrs, out);
            return;
        }
        // One decode_stream over the whole batch: frames are staged on
        // demand as lanes claim them, and retired lanes are refilled from
        // the pending frames (lane compaction), so a mixed-convergence batch
        // never leaves lanes idle while frames wait.
        StreamCtx ctx{this, llrs.data(), frame_length()};
        batch_->decode_stream(out.size(), &SimdEngine::stage_frame, &ctx, out.data());
    }

private:
    /// decode_stream frame source: stages frame `f` of the caller's LLR
    /// block on demand (captureless, so it converts to the plain function
    /// pointer the allocation-free stream API takes).
    struct StreamCtx {
        SimdEngine* self;
        const double* llrs;
        std::size_t n;
    };
    static void stage_frame(void* c, std::size_t f, quant::QLLR* dst) {
        auto* s = static_cast<StreamCtx*>(c);
        s->self->stage(std::span<const double>(s->llrs + f * s->n, s->n), dst, f);
    }

    const char* name_;
    std::optional<quant::BoxplusTable> table_;       // before scalar_, which points into it
    std::unique_ptr<SimdFixedDecoder> group_;        // lane = functional unit
    std::unique_ptr<MpDecoder<FixedArith>> scalar_;  // serial schedules' single frames
    std::unique_ptr<SimdBatchFixedDecoder> batch_;   // lane = frame
    bool has_observer_ = false;
};

}  // namespace

std::unique_ptr<Engine> make_engine(const code::Dvbs2Code& code, const EngineSpec& spec) {
    validate_engine_spec(spec);
    if (spec.arith == Arithmetic::Float)  // validation admits only the scalar backend
        return std::make_unique<ScalarEngine<FloatArith>>(code, spec, "float-scalar");
    if (spec.config.backend == DecoderBackend::Simd)
        return std::make_unique<SimdEngine>(code, spec, "fixed-simd");
    return std::make_unique<ScalarEngine<FixedArith>>(code, spec, "fixed-scalar");
}

}  // namespace dvbs2::core
