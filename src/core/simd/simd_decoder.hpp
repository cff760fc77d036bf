// Group-parallel SIMD fixed-point decoder backend.
//
// Exploits the structural parallelism the paper's IP core is built on: the
// Eq. 2 group-shift property makes the 360 check nodes of a group (and the
// 360 information nodes of a group) independent within one update phase, so
// the hardware processes them on P parallel functional units. Here one SIMD
// lane plays the role of one functional unit: lanes advance in lockstep
// through the same local schedule step, and the cyclic-shift network of the
// hardware becomes strided vector gathers into the canonical message
// arrays. The per-check-node serial prefix/suffix combine (core/kernels.hpp)
// is unchanged — only independent check nodes are spread across lanes — so
// every message is bit-exact with the scalar MpDecoder<FixedArith>.
//
// Supported schedules: the two lockstep-legal ones (the dataflow IR's
// classify_schedule verdict). TwoPhase: all check nodes independent →
// vector blocks of consecutive CNs. ZigzagSegmented: lane = functional unit
// sweeping its q-CN segment; segment-boundary values are snapshotted
// exactly like the scalar reference's boundary_snapshot_, plus a per-block
// up-boundary snapshot that preserves the previous-iteration read the
// sequential sweep performs naturally. ZigzagForward, ZigzagMap and Layered
// carry a serial check chain and have no group-parallel mapping; the SIMD
// engine (core/engine.hpp) runs them frame-per-lane, or on the scalar
// reference for single frames under SimdLaneMode::Auto.
//
// The decoder is MpDecoder (core/mp_decoder.hpp) run with an iteration of
// vector blocks; simd_decoder.cpp, one of the three TUs of src/core/simd
// built with the backend's compiler flags (src/core/CMakeLists.txt), holds
// those blocks. This header is intrinsic-free.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "code/tanner.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"

namespace dvbs2::core {

/// Name of the vector backend compiled into this build: "avx2", "sse4",
/// "neon", or "scalar" (the portable fallback).
const char* simd_backend_name() noexcept;

/// Number of lanes (functional units per vector op) of that backend.
int simd_backend_width() noexcept;

/// SIMD engine with the same state layout and iteration semantics as
/// MpDecoder<FixedArith>. Use via core::FixedDecoder with
/// DecoderConfig::backend = DecoderBackend::Simd; direct use is for the
/// bit-exactness tests and benches that compare message state.
class SimdFixedDecoder {
public:
    /// The code object must outlive the decoder. Throws, naming the IR
    /// obstruction, unless the schedule is lockstep-legal
    /// (analysis::ir::classify_schedule(schedule).group_parallel_legal:
    /// TwoPhase and ZigzagSegmented).
    SimdFixedDecoder(const code::Dvbs2Code& code, const DecoderConfig& cfg,
                     const quant::QuantSpec& spec = quant::kQuant6);
    ~SimdFixedDecoder();
    SimdFixedDecoder(SimdFixedDecoder&&) noexcept;
    SimdFixedDecoder& operator=(SimdFixedDecoder&&) noexcept;

    /// Decodes from already-quantized channel values (size N); identical
    /// result semantics to MpDecoder::decode_values.
    DecodeResult decode_values(const std::vector<quant::QLLR>& ch);

    /// Non-allocating variant into caller-owned result storage (identical
    /// semantics to MpDecoder::decode_into, including the observer caveat).
    void decode_into(std::span<const quant::QLLR> ch, DecodeResult& out);

    /// Runs exactly `iters` iterations without early stopping or hardening
    /// (for message-level bit-exactness comparisons).
    void run_iterations(std::span<const quant::QLLR> ch, int iters);

    /// Read-only message state in the canonical (scalar-identical) layout.
    const std::vector<quant::QLLR>& c2v_messages() const noexcept;
    const std::vector<quant::QLLR>& v2c_messages() const noexcept;
    const std::vector<quant::QLLR>& backward_messages() const noexcept;

    /// Installs a per-iteration observer (same tracing semantics as the
    /// scalar engine; tracing must not change any decode result).
    void set_observer(std::function<void(const IterationTrace&)> observer);

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace dvbs2::core
