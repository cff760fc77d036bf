// Frame-parallel (lane = frame) SIMD fixed-point decoder.
//
// The group-parallel backend (simd_decoder.hpp) vectorizes *within* one
// frame across the Eq. 2 functional units, which restricts it to schedules
// whose check nodes are independent inside a phase (TwoPhase,
// ZigzagSegmented). This engine vectorizes *across* frames instead: lane l
// of every vector register carries frame l's message, and the scalar
// reference schedule — any of the five, including the strictly sequential
// ZigzagForward/ZigzagMap/Layered sweeps — runs unchanged on W frames in
// lockstep. Schedule control flow never depends on message values, so every
// lane is bit-exact with a scalar MpDecoder<FixedArith> decode of its frame
// (pinned by tests/test_engine.cpp and tests/test_convergence.cpp),
// including per-frame early stopping: each lane hardens and syndrome-checks
// at its own pace and records its result at its own stopping iteration.
// Both read a sign plane (one word of W posterior signs per variable node)
// that the decoder packs once per step in which a lane is due, so the
// syndrome costs one 4-byte load per edge and a retiring lane's codeword is
// cut out 64 bits at a time.
// decode_stream adds lane compaction on top: a retired lane's state is
// reset in place and the next pending frame is spliced into it, so a long
// stream of frames keeps every lane busy no matter how unevenly the frames
// converge.
//
// Lane width: the decoder computes in 16-bit lanes (W=16 on AVX2, 8 on
// SSE4.1/NEON, 16 on the scalar fallback) whenever the checker-verified
// range certificate proves every value fits and, for the Exact rule, the
// correction table fits a 16-entry byte-shuffle lookup; in 32-bit lanes
// (W=8 on AVX2, 4 on SSE4.1/NEON, 8 on the scalar fallback) otherwise;
// both are the same code. lane_bits() reports the choice; see the
// constructor for the rule. There is no knob.
//
// Memory layout: messages are stored lane-major (one vector register per
// edge), so every message access of the scalar schedule becomes a
// contiguous vector load/store; the only scattered accesses are the
// posterior reads and updates by variable index. One c2v word per
// frame-edge is kept — 2 bytes on 16-bit lanes — because the variable
// phase is fused into the check phase (core/mp_decoder.hpp): each v2c
// message is formed from the posterior as the check node reads it. The
// sign plane adds 4 bytes per variable node (259 KB at N = 64800); each
// frame's channel is spliced straight into the decoder's lane columns, so
// no second, lane-major copy of it is kept.
//
// This header is intrinsic-free; batch_decoder.cpp is the only other TU
// built with SIMD compiler flags (see src/core/CMakeLists.txt).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "code/tanner.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"

namespace dvbs2::core {

namespace detail {
class BatchLanes;  // one implementation per lane width (batch_decoder.cpp)
}

/// W-frame lockstep decoder; W = lanes(). Use via the unified engine layer
/// (core/engine.hpp, DecoderBackend::Simd with batches or
/// SimdLaneMode::FramePerLane); direct use is for tests and benches.
class SimdBatchFixedDecoder {
public:
    /// The code object must outlive the decoder. Accepts every schedule.
    /// Picks 16-bit lanes when all of these hold, else 32-bit lanes:
    ///  - the spec's checker-verified range certificate
    ///    (engine_range_certificate) bounds every stage and stored word,
    ///    the finalize-normalize product included, by 32767;
    ///  - the correction index |a ± b| <= 2·max_raw fits too;
    ///  - the certificate covers `code`'s degrees
    ///    (range_certificate_covers);
    ///  - for the Exact rule, the correction table is zero from index 15
    ///    on (simd::lookup_covers), so the 16-bit lanes' 16-entry
    ///    byte-shuffle lookup holds it: every quantizer with at most 2
    ///    fractional bits, and {4, 3}.
    SimdBatchFixedDecoder(const code::Dvbs2Code& code, const DecoderConfig& cfg,
                          const quant::QuantSpec& spec = quant::kQuant6);
    ~SimdBatchFixedDecoder();
    SimdBatchFixedDecoder(SimdBatchFixedDecoder&&) noexcept;
    SimdBatchFixedDecoder& operator=(SimdBatchFixedDecoder&&) noexcept;

    /// Lanes per batch block: the compiled backend's 16-bit or 32-bit lane
    /// count, by lane_bits().
    int lanes() const noexcept;

    /// Width of one lane in bits, 16 or 32 (chosen at construction).
    int lane_bits() const noexcept;

    /// Decodes `frames` (1..lanes()) quantized frames stored back to back
    /// (frame-major, each of size N) into out[0..frames). Result semantics
    /// per frame are identical to MpDecoder::decode_into: per-lane early
    /// stopping, iteration counts and hardened codewords match a scalar
    /// decode of the same frame bit for bit. Unused lanes are left idle and
    /// discarded. Allocation-free once `out` entries are sized. (Thin
    /// wrapper over decode_stream for a single lane block.)
    void decode_into(std::span<const quant::QLLR> qllr, std::size_t frames, DecodeResult* out);

    /// Source callback of decode_stream: materializes frame `frame`'s N
    /// quantized channel values into `dst`. Called exactly once per frame,
    /// in ascending frame order (frames are claimed by lanes as they free
    /// up). A plain function pointer + context keeps the steady-state path
    /// allocation-free.
    using FrameSource = void (*)(void* ctx, std::size_t frame, quant::QLLR* dst);

    /// Decodes `frames` frames (any count >= 1) delivered by `source`, with
    /// per-lane early termination AND lane compaction: the first
    /// min(W, frames) frames fill the lanes; whenever a lane finishes — its
    /// syndrome satisfied under early stopping, or its iteration budget
    /// exhausted — the result is frozen into out[that frame's index] and
    /// the lane is immediately reloaded with the next pending frame, so no
    /// lane idles while frames wait. Results land in input order, and each
    /// frame's codeword, iteration count and converged flag are
    /// bit-identical to a scalar MpDecoder decode of that frame (pinned by
    /// tests/test_convergence.cpp). Allocation-free once `out` entries are
    /// sized.
    void decode_stream(std::size_t frames, FrameSource source, void* ctx, DecodeResult* out);

    /// Runs exactly `iters` iterations on `frames` frames without early
    /// stopping or hardening (throughput timing; message comparisons go
    /// through c2v_messages).
    void run_iterations(std::span<const quant::QLLR> qllr, std::size_t frames, int iters);

    /// Extracts lane `frame`'s c2v message state in the canonical scalar
    /// layout (diagnostics; allocates).
    std::vector<quant::QLLR> c2v_messages(std::size_t frame) const;

private:
    std::unique_ptr<detail::BatchLanes> impl_;
};

}  // namespace dvbs2::core
