#include "core/decoder.hpp"

#include <utility>

#include "core/engine.hpp"

namespace dvbs2::core {

const char* to_string(Schedule s) {
    switch (s) {
        case Schedule::TwoPhase: return "two-phase";
        case Schedule::ZigzagForward: return "zigzag-forward";
        case Schedule::ZigzagSegmented: return "zigzag-segmented";
        case Schedule::ZigzagMap: return "zigzag-map";
        case Schedule::Layered: return "layered";
    }
    return "?";
}

const char* to_string(CheckRule r) {
    switch (r) {
        case CheckRule::Exact: return "exact";
        case CheckRule::MinSum: return "min-sum";
        case CheckRule::NormalizedMinSum: return "normalized-min-sum";
        case CheckRule::OffsetMinSum: return "offset-min-sum";
    }
    return "?";
}

const char* to_string(DecoderBackend b) {
    switch (b) {
        case DecoderBackend::Scalar: return "scalar";
        case DecoderBackend::Simd: return "simd";
    }
    return "?";
}

const char* to_string(SimdLaneMode m) {
    switch (m) {
        case SimdLaneMode::Auto: return "auto";
        case SimdLaneMode::GroupParallel: return "group-parallel";
        case SimdLaneMode::FramePerLane: return "frame-per-lane";
    }
    return "?";
}

const char* to_string(Arithmetic a) {
    switch (a) {
        case Arithmetic::Float: return "float";
        case Arithmetic::Fixed: return "fixed";
    }
    return "?";
}

// ---------------------------------------------------------------- Decoder

Decoder::Decoder(const code::Dvbs2Code& code, const DecoderConfig& cfg)
    : engine_(make_engine(code, EngineSpec{Arithmetic::Float, cfg, quant::kQuant6})) {}
Decoder::~Decoder() = default;
Decoder::Decoder(Decoder&&) noexcept = default;
Decoder& Decoder::operator=(Decoder&&) noexcept = default;

DecodeResult Decoder::decode(const std::vector<double>& llr) { return engine_->decode(llr); }

void Decoder::decode_into(std::span<const double> llr, DecodeResult& out) {
    engine_->decode_into(llr, out);
}

void Decoder::set_observer(std::function<void(const IterationTrace&)> observer) {
    engine_->set_observer(std::move(observer));
}

const DecoderConfig& Decoder::config() const noexcept { return engine_->config(); }

Engine& Decoder::engine() noexcept { return *engine_; }

// ----------------------------------------------------------- FixedDecoder

FixedDecoder::FixedDecoder(const code::Dvbs2Code& code, const DecoderConfig& cfg,
                           const quant::QuantSpec& spec)
    : spec_(spec), engine_(make_engine(code, EngineSpec{Arithmetic::Fixed, cfg, spec})) {}
FixedDecoder::~FixedDecoder() = default;
FixedDecoder::FixedDecoder(FixedDecoder&&) noexcept = default;
FixedDecoder& FixedDecoder::operator=(FixedDecoder&&) noexcept = default;

DecodeResult FixedDecoder::decode(const std::vector<double>& llr) {
    return engine_->decode(llr);
}

DecodeResult FixedDecoder::decode_raw(const std::vector<quant::QLLR>& qllr) {
    DecodeResult result;
    engine_->decode_raw_into(qllr, result);
    return result;
}

void FixedDecoder::decode_into(std::span<const double> llr, DecodeResult& out) {
    engine_->decode_into(llr, out);
}

void FixedDecoder::decode_raw_into(std::span<const quant::QLLR> qllr, DecodeResult& out) {
    engine_->decode_raw_into(qllr, out);
}

void FixedDecoder::set_cn_order(std::vector<int> order) {
    engine_->set_cn_order(std::move(order));
}

void FixedDecoder::set_observer(std::function<void(const IterationTrace&)> observer) {
    engine_->set_observer(std::move(observer));
}

std::vector<quant::QLLR> FixedDecoder::run_and_dump_c2v(const std::vector<quant::QLLR>& qllr,
                                                        int iters) {
    return engine_->run_and_dump_c2v(qllr, iters);
}

const quant::QuantSpec& FixedDecoder::spec() const noexcept { return spec_; }
const DecoderConfig& FixedDecoder::config() const noexcept { return engine_->config(); }

Engine& FixedDecoder::engine() noexcept { return *engine_; }

}  // namespace dvbs2::core
