// Generic dataflow analyses over schedule traces (ir.hpp) and over the
// RAM-port event streams the hardware mapping induces.
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
// Port/slot-stream analyses (drive the schedule.dataflow.* lint rules):
//   verify_slot_stream   read-once, chain use-before-def, and serial-FU
//                        window checks over one check phase's slot ops
//   drain_ram            deterministic FIFO-with-lookahead port drain over a
//                        statically enumerated access plan; pinned bit-equal
//                        to arch::simulate_phase by test
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
    /// Legal with one frame per lane. Derived from the space inventory:
    /// every space is frame-local, so lanes never exchange data.
    bool frame_per_lane_legal = false;
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
};

struct SlotIssue {
    SlotIssueKind kind{};
    int position = -1;  ///< slot index the issue was detected at (-1: n/a)
    int addr = -1;      ///< offending address (AddrRange/ReadCount)
    int unit = -1;      ///< offending local CN (UnitRange/UseBeforeDef/SerialOverlap)
    int other = -1;     ///< the conflicting CN (SerialOverlap)
    int count = 0;      ///< observed reads (ReadCount)
};

/// Verifies one check phase's slot stream; returns at most `max_issues`
/// findings (empty = proven clean). Subsumes the hand-coded sched.read-once
/// and strict-zigzag-order rules with generic def/use reasoning over the
/// completion order of the serial units.
std::vector<SlotIssue> verify_slot_stream(const std::vector<SlotOp>& ops,
                                          const SlotStreamDims& dims,
                                          std::size_t max_issues = 16);

// ------------------------------------------------------- model: port drain

/// Statically enumerated port traffic of one phase: cycle t reads
/// read_addr[t]; write_ready[t] lists write-backs leaving the FU pipelines
/// at cycle t (trailing cycles form the drain epilogue).
struct RamPhasePlan {
    std::vector<std::int32_t> read_addr;
    std::vector<std::vector<std::int32_t>> write_ready;
};

/// Outcome of draining a plan through the conflict buffer. Field-for-field
/// comparable with arch::ConflictStats (the pin tests assert equality of
/// all five numbers).
struct RamDrainStats {
    int read_cycles = 0;
    int cycles = 0;                      ///< reads + drain epilogue
    int peak_pending = 0;                ///< peak FIFO occupancy (words)
    long long pending_word_cycles = 0;   ///< total buffer residency
    long long blocked_events = 0;        ///< write attempts deferred by a busy bank
};

/// Runs the deterministic drain recurrence: per cycle the read consumes its
/// bank (bank = addr mod num_banks), then at most max_writes_per_cycle
/// pending writes issue to free, mutually distinct banks, scanned FIFO from
/// the head with lookahead (the paper's small-CAM buffer policy).
RamDrainStats drain_ram(const RamPhasePlan& plan, int num_banks, int max_writes_per_cycle);

}  // namespace dvbs2::analysis::ir
