// Rule family `schedule.dataflow.*`: generic dataflow proofs over the
// schedule IR (src/analysis/ir/) instead of hand-coded per-rule logic.
//
// Three layers:
//   - Slot-stream rules run over the ScheduleModel's ROM slot order
//     (verify_slot_stream): every RAM word is read exactly once, local CNs
//     complete in ascending order, each CN's slots are contiguous, and each
//     CN has check_deg-2 of them — so the stream is q runs sweeping local
//     CNs 0..q-1, the order the zigzag forward recursion needs.
//   - Port rules drain both phases of the model through the one RAM-port
//     model, arch::simulate_phase (paper Sec. 4, Fig. 5: four single-port
//     banks and a small FIFO-with-lookahead buffer absorb every write-back
//     conflict). They run only on a legal slot stream and a valid memory
//     config.
//   - Trace rules compile the configured (code, schedule) pair into a
//     def/use trace and report the derived parallelism structure, the SIMD
//     legality verdicts the engine registry consults, and the exact peak
//     message-RAM liveness — including the paper's Sec. 4 claim that the
//     zigzag schedule halves parity-message storage, stated with word
//     counts against the two-phase flooding reference.
//
// Rules:
//   schedule.dataflow.range          slot address or local CN out of range
//   schedule.dataflow.read-once      RAM word read != exactly once per check
//                                    phase (error), or the proof note
//   schedule.dataflow.order          zigzag chain value consumed before the
//                                    producing CN completes, or a local CN
//                                    served by != check_deg-2 slots
//   schedule.dataflow.fu-serial      two CNs' accumulation windows interleave
//                                    on one serial functional unit
//   schedule.dataflow.ports          (note) per-phase peak buffer words,
//                                    deferred writes and cycles of the drain
//   schedule.dataflow.ports-overflow drain peak exceeds the buffer depth
//   schedule.dataflow.parallelism    (note) per-phase dependence levels and
//                                    maximal parallel groups
//   schedule.dataflow.simd-legal     (note) derived group-parallel verdict
//   schedule.dataflow.liveness       (note) exact peak live words per space,
//                                    with the halving comparison
//   schedule.dataflow.config         degenerate schedule model, or a memory
//                                    config field the port model rejects
#pragma once

#include "analysis/diag.hpp"
#include "analysis/lint_schedule.hpp"
#include "arch/conflict.hpp"
#include "code/tanner.hpp"
#include "core/types.hpp"

namespace dvbs2::analysis {

struct DataflowOptions {
    arch::MemoryConfig memory;
    int buffer_depth = 4;  ///< conflict FIFO words the design provides
    core::Schedule schedule = core::Schedule::ZigzagForward;
};

/// Slot-stream and port-drain rules over a plain-data schedule model
/// (testable with corrupted slot lists, like lint_schedule).
Report lint_dataflow(const ScheduleModel& model, const DataflowOptions& opts);

/// Full pass: model rules plus the trace analyses of the configured
/// schedule built from the real code dimensions.
Report lint_dataflow(const code::Dvbs2Code& code, const arch::HardwareMapping& mapping,
                     const DataflowOptions& opts);

}  // namespace dvbs2::analysis
