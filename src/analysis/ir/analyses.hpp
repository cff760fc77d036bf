// Generic dataflow analyses over schedule traces (ir.hpp) and over the
// check-phase slot stream the hardware mapping induces.
//
// Trace analyses (dimension-independent dependence patterns):
//   analyze_parallelism  reaching-def chains -> per-phase dependence levels
//                        (maximal lockstep groups) and the group-parallel
//                        legality verdict with the first obstruction
//   analyze_liveness     value intervals -> exact peak word footprint per
//                        storage space over the steady-state iteration
//   classify_schedule    cached verdict per core::Schedule, consulted by
//                        core::validate_engine_spec instead of a hardcoded
//                        schedule set
//
// Slot-stream analysis (drives the schedule.dataflow.* slot rules; the port
// drain is arch::simulate_phase):
//   verify_slot_stream   read-once, chain use-before-def, serial-FU window
//                        and run-length checks over one check phase's slot
//                        ops
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ir/ir.hpp"

namespace dvbs2::analysis::ir {

// ------------------------------------------------------ trace: parallelism

/// Dependence-level structure of one phase of the measured iteration.
struct PhaseParallelism {
    int phase = 0;
    std::string name;
    int units = 0;      ///< units active in the phase
    int levels = 0;     ///< longest same-phase dependence chain (lockstep steps)
    int max_group = 0;  ///< widest level: units provably updatable in parallel
};

/// A same-phase dependence that breaks the lockstep (group-parallel)
/// execution model: the value is produced in a different lane, or at a
/// lockstep step that has not executed yet.
struct LockstepViolation {
    Space space{};
    std::int32_t index = 0;
    std::string phase_name;
    std::int32_t def_unit = 0, use_unit = 0;
    std::int16_t def_lane = 0, use_lane = 0;
    std::int32_t def_step = 0, use_step = 0;

    /// One-sentence human-readable account of the dependence.
    std::string describe() const;
};

struct ParallelismReport {
    std::vector<PhaseParallelism> phases;  ///< measured (steady-state) iteration
    bool lockstep_legal = true;            ///< no violation in any iteration
    std::optional<LockstepViolation> violation;  ///< first one found
};

/// Walks the trace once, chaining every use to its reaching def. Same-phase
/// dependences between different units build the level structure; a
/// dependence that crosses lanes (or runs against the step order) is the
/// proof that the schedule cannot run as P lockstep functional units.
/// Sink events never constrain the verdict or the levels.
ParallelismReport analyze_parallelism(const Trace& trace);

// --------------------------------------------------------- trace: liveness

/// Exact peak number of simultaneously live values per storage space over
/// the steady-state (middle) iteration — the minimal word count a RAM for
/// that space must provide.
struct LivenessReport {
    std::array<int, kSpaceCount> peak_live{};

    int peak(Space s) const { return peak_live[static_cast<int>(s)]; }
    /// Parity-chain message storage: the paper's Sec. 4 comparison target
    /// (zigzag edge words + MAP forward storage + segmented snapshots).
    int parity_words() const {
        return peak(Space::ZigzagFwd) + peak(Space::ZigzagBwd) + peak(Space::MapFwd) +
               peak(Space::UpSnapshot);
    }
    int message_words() const { return peak(Space::MsgWord); }
    int posterior_words() const { return peak(Space::PostInfo) + peak(Space::PostParity); }
};

/// Computes value lifetimes [def, last use] per word and sweeps the middle
/// iteration's window for the peak overlap. Uses preceding any def (the
/// all-zero initial state) do not create values.
LivenessReport analyze_liveness(const Trace& trace);

// ------------------------------------------------ schedule classification

/// Derived engine-facing verdicts for one schedule, computed from canonical-
/// dimension traces (TraceDims defaults). The dependence patterns repeat per
/// unit, so the verdicts are dimension-independent.
struct ScheduleClass {
    core::Schedule schedule{};
    /// Legal as P lockstep functional units (one SIMD lane per FU, Eq. 2).
    bool group_parallel_legal = false;
    /// Why not, when illegal (LockstepViolation::describe of the first
    /// obstruction).
    std::string group_parallel_obstruction;
};

/// Cached classification of `schedule` (thread-safe, computed once).
const ScheduleClass& classify_schedule(core::Schedule schedule);

// ------------------------------------------------- model: slot-stream rules

/// One check-phase read cycle at the model level: which RAM word is read
/// and which local check node consumes it.
struct SlotOp {
    int addr = 0;
    int unit = 0;  ///< local CN index r in [0, q)
};

struct SlotStreamDims {
    int q = 0;             ///< local check nodes per FU
    int slots_per_cn = 0;  ///< check_deg - 2
    int ram_words = 0;     ///< IN-message RAM words
};

enum class SlotIssueKind {
    AddrRange,      ///< read address outside [0, ram_words)
    UnitRange,      ///< local CN outside [0, q)
    ReadCount,      ///< RAM word read != exactly once in the phase
    UseBeforeDef,   ///< CN r completes before CN r-1: its forward-chain
                    ///< input is used before the producing unit defines it
    SerialOverlap,  ///< two CNs' accumulation windows interleave on one
                    ///< serial functional unit
    RunLength,      ///< a local CN is served by != slots_per_cn slots
};

struct SlotIssue {
    SlotIssueKind kind{};
    int position = -1;  ///< slot index the issue was detected at (-1: n/a)
    int addr = -1;      ///< offending address (AddrRange/ReadCount)
    int unit = -1;      ///< offending local CN (UnitRange/UseBeforeDef/SerialOverlap/RunLength)
    int other = -1;     ///< the conflicting CN (SerialOverlap)
    int count = 0;      ///< observed reads (ReadCount) or slots (RunLength)
};

/// Verifies one check phase's slot stream; returns at most `max_issues`
/// findings (empty = proven clean). Checks that every RAM word is read
/// exactly once, that local CNs complete in ascending order, that each CN's
/// slots are contiguous on its serial unit, and that each CN has exactly
/// slots_per_cn of them — together, the stream is q runs of slots_per_cn
/// slots sweeping local CNs 0..q-1, each word read once.
std::vector<SlotIssue> verify_slot_stream(const std::vector<SlotOp>& ops,
                                          const SlotStreamDims& dims,
                                          std::size_t max_issues = 16);

}  // namespace dvbs2::analysis::ir
