// Rule family `sched.*`: legality of the hardware slot schedule and node
// mapping (paper Sec. 3, Fig. 3) — proves that the ROM has one slot per
// information edge group, that every slot's address matches the row layout,
// that each run serves distinct edges, and that only realizable
// shuffle-network offsets are used. Read-once and the strict zigzag run
// order are schedule.dataflow.* rules (lint_dataflow.hpp).
//
// Rules:
//   sched.slot-count       ROM has != q*(check_deg-2) slots
//   sched.shuffle-range    cyclic-shift offset outside [0, P) or local CN
//                          index outside [0, q)
//   sched.addr-consistency slot address disagrees with row_base+entry or
//                          leaves the RAM
//   sched.edge-coverage    two slots of one run carry the same (group,
//                          shift): some edge served twice, another never
//
// The rules operate on a ScheduleModel — a plain-data snapshot of a
// HardwareMapping — so tests can corrupt individual fields and assert the
// exact rule that trips.
#pragma once

#include <vector>

#include "analysis/diag.hpp"
#include "arch/mapping.hpp"

namespace dvbs2::analysis {

/// Plain-data view of a hardware mapping's schedule, sufficient for all
/// sched.* and schedule.dataflow.* slot and port rules.
struct ScheduleModel {
    int parallelism = 0;            ///< P functional units / lanes
    int q = 0;                      ///< local check nodes per FU
    int slots_per_cn = 0;           ///< check_deg - 2
    int ram_words = 0;              ///< IN-message RAM words (E_IN / P)
    std::vector<arch::RomSlot> slots;
    std::vector<int> row_base;      ///< RAM base address per group
    std::vector<int> row_degree;    ///< messages (addresses) per group
};

/// Snapshots `mapping` into the plain-data model.
ScheduleModel make_schedule_model(const arch::HardwareMapping& mapping);

/// Lints a schedule model; never throws on bad input.
Report lint_schedule(const ScheduleModel& model);

/// Convenience for the real artifact.
Report lint_schedule(const arch::HardwareMapping& mapping);

}  // namespace dvbs2::analysis
