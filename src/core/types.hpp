// Public decoder types: schedules, check-node rules, configuration, result.
// The library runs one decoding algorithm, the paper's message passing
// (Eq. 4/5): the schedule orders the node updates, the check rule picks the
// Eq. 5 combine (exact boxplus or a min-sum variant), and the arithmetic and
// backend pick the engine that runs it (core/engine.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitvec.hpp"

namespace dvbs2::core {

/// Message-update schedule (paper Fig. 2 and Sec. 2.2).
enum class Schedule {
    /// Fig. 2a: canonical two-phase flooding; parity nodes are ordinary
    /// degree-2 variable nodes, both zigzag message directions are stored.
    TwoPhase,
    /// Fig. 2b: the paper's optimized scheme — check nodes are swept
    /// sequentially, the fresh parity message is passed forward immediately,
    /// only the backward message is stored (memory halved, ~10 iterations
    /// saved).
    ZigzagForward,
    /// The hardware realization of Fig. 2b: all P functional units sweep
    /// their q-CN segments in parallel, so the forward recursion restarts at
    /// every segment boundary from the previous iteration's value.
    ZigzagSegmented,
    /// The MAP variant the paper mentions ("a sequential backwards update
    /// would result in a maximum a posteriori algorithm"): forward and
    /// backward sweeps both sequential within one iteration.
    ZigzagMap,
    /// Row-layered decoding (extension): check nodes update sequentially
    /// against running posterior totals, so every CN sees the freshest
    /// variable beliefs — the schedule later DVB-S2/S2X decoders adopted
    /// (converges in roughly half the iterations of two-phase flooding).
    Layered,
};

/// Check-node combining rule (paper Eq. 5 and its implementations).
enum class CheckRule {
    Exact,              ///< log-domain boxplus (float) / correction-LUT (fixed)
    MinSum,             ///< magnitude minimum, sign product
    NormalizedMinSum,   ///< min-sum scaled by `normalization`
    OffsetMinSum,       ///< min-sum with magnitude offset `offset`
};

/// Message-processing backend of the fixed-point decoder.
enum class DecoderBackend {
    /// Reference serial engine (core/mp_decoder.hpp); supports every
    /// schedule and the float arithmetic.
    Scalar,
    /// SIMD engine (core/simd), bit-exact with Scalar and fixed-point only.
    /// Batches run frame-parallel (one lane = one frame; every schedule);
    /// single frames run group-parallel (one lane = one FU per Eq. 2) on
    /// TwoPhase and ZigzagSegmented, the schedules the dataflow IR proves
    /// lockstep-legal. See SimdLaneMode.
    Simd,
};

/// Lane mapping of the SIMD backend (ignored by DecoderBackend::Scalar).
enum class SimdLaneMode {
    /// Frame-per-lane for batches. Single frames run group-parallel on
    /// the lockstep-legal schedules and on the scalar reference decoder on
    /// the serial-chain ones (ZigzagForward, ZigzagMap, Layered), where one
    /// lane walking the chain is no faster than scalar.
    Auto,
    /// Lane = functional unit for every call (batches decode frame by
    /// frame). Requires a lockstep-legal schedule (TwoPhase,
    /// ZigzagSegmented; analysis::ir::classify_schedule); validation rejects
    /// the others naming the IR's obstruction.
    GroupParallel,
    /// Lane = frame for every call (a single-frame decode occupies one lane
    /// of a batch block). Works with every schedule regardless of lockstep
    /// legality; full throughput needs whole batches.
    FramePerLane,
};

/// Message-domain arithmetic of a decoder engine (see core/engine.hpp).
enum class Arithmetic {
    Float,  ///< clamped double LLRs — the infinite-precision reference
    Fixed,  ///< quantized integer LLRs — the hardware datapath model
};

/// Decoder configuration. Defaults reproduce the paper's operating point:
/// 30 iterations of the optimized zigzag schedule with the exact rule.
struct DecoderConfig {
    Schedule schedule = Schedule::ZigzagForward;
    CheckRule rule = CheckRule::Exact;
    DecoderBackend backend = DecoderBackend::Scalar;
    SimdLaneMode lane_mode = SimdLaneMode::Auto;  ///< Simd backend only
    int max_iterations = 30;
    bool early_stop = true;        ///< stop once the syndrome is satisfied
    double normalization = 0.75;   ///< NormalizedMinSum scale factor
    double offset = 0.5;           ///< OffsetMinSum magnitude offset (LLR units)
};

/// Decoding outcome.
struct DecodeResult {
    util::BitVec codeword;   ///< hard decision for all N bits
    util::BitVec info_bits;  ///< hard decision for the K information bits
    bool converged = false;  ///< syndrome satisfied within the iteration cap
    int iterations = 0;      ///< iterations executed
};

/// Aggregate convergence observables over any number of decoded frames: an
/// iterations-to-finish histogram plus running counts. core::Engine records
/// one entry per frame structurally in its public decode entry points (so
/// every backend surfaces the same observable), and the Monte-Carlo harness
/// (comm/) folds per-frame entries into its deterministic batch-prefix
/// reduction, making the histogram thread-count invariant wherever the
/// error tallies are.
struct ConvergenceStats {
    /// histogram[i] = frames that finished after exactly i iterations
    /// (i = 0 covers a zero-iteration budget).
    std::vector<std::uint64_t> histogram;
    std::uint64_t frames = 0;            ///< frames recorded
    std::uint64_t converged_frames = 0;  ///< frames with the syndrome satisfied
    std::uint64_t iteration_sum = 0;     ///< Σ iterations over all frames

    /// Pre-sizes the histogram for iteration counts 0..max_iterations so
    /// steady-state record() calls never allocate (part of the engine
    /// layer's zero-allocation contract, pinned by tests/test_alloc.cpp).
    void reserve_iterations(int max_iterations) {
        const auto need = static_cast<std::size_t>(max_iterations < 0 ? 0 : max_iterations) + 1;
        if (histogram.size() < need) histogram.resize(need, 0);
    }

    void record(int iterations, bool converged) {
        const auto it = static_cast<std::size_t>(iterations < 0 ? 0 : iterations);
        if (it >= histogram.size()) histogram.resize(it + 1, 0);
        ++histogram[it];
        ++frames;
        if (converged) ++converged_frames;
        iteration_sum += it;
    }

    void merge(const ConvergenceStats& o) {
        if (histogram.size() < o.histogram.size()) histogram.resize(o.histogram.size(), 0);
        for (std::size_t i = 0; i < o.histogram.size(); ++i) histogram[i] += o.histogram[i];
        frames += o.frames;
        converged_frames += o.converged_frames;
        iteration_sum += o.iteration_sum;
    }

    /// Zeroes every count but keeps the histogram's size (and capacity), so
    /// a reset engine stays allocation-free.
    void reset() {
        for (auto& h : histogram) h = 0;
        frames = 0;
        converged_frames = 0;
        iteration_sum = 0;
    }

    double mean_iterations() const {
        return frames ? static_cast<double>(iteration_sum) / static_cast<double>(frames) : 0.0;
    }
    double convergence_rate() const {
        return frames ? static_cast<double>(converged_frames) / static_cast<double>(frames) : 0.0;
    }
};

/// Per-iteration diagnostics delivered to an observer (see
/// Decoder::set_observer): convergence analyses, waterfall debugging, and
/// the E4 bench use these.
struct IterationTrace {
    int iteration = 0;            ///< 1-based iteration index
    int unsatisfied_checks = 0;   ///< syndrome weight of the hard decision
    double mean_abs_posterior = 0.0;  ///< mean |posterior| in decoder units
};

const char* to_string(Schedule s);
const char* to_string(CheckRule r);
const char* to_string(DecoderBackend b);
const char* to_string(SimdLaneMode m);
const char* to_string(Arithmetic a);

}  // namespace dvbs2::core
