#include "analysis/lint_dataflow.hpp"

#include <string>

#include "analysis/ir/analyses.hpp"

namespace dvbs2::analysis {

namespace {

std::string slot_location(int position) {
    return position >= 0 ? "slot " + std::to_string(position) : "check phase";
}

void report_slot_issues(Report& rep, const std::vector<ir::SlotIssue>& issues, int slots_per_cn) {
    using ir::SlotIssueKind;
    for (const ir::SlotIssue& si : issues) {
        switch (si.kind) {
            case SlotIssueKind::AddrRange:
                rep.add("schedule.dataflow.range", Severity::Error, slot_location(si.position),
                        "read address " + std::to_string(si.addr) + " outside the message RAM",
                        "rebuild the model from a valid mapping");
                break;
            case SlotIssueKind::UnitRange:
                rep.add("schedule.dataflow.range", Severity::Error, slot_location(si.position),
                        "local check node " + std::to_string(si.unit) + " outside [0, q)",
                        "rebuild the model from a valid mapping");
                break;
            case SlotIssueKind::ReadCount:
                rep.add("schedule.dataflow.read-once", Severity::Error,
                        "address " + std::to_string(si.addr),
                        "RAM word read " + std::to_string(si.count) +
                            " times in one check phase (in-place c2v/v2c needs exactly one)",
                        "every address must appear in exactly one ROM slot");
                break;
            case SlotIssueKind::UseBeforeDef:
                rep.add("schedule.dataflow.order", Severity::Error, slot_location(si.position),
                        "local CN " + std::to_string(si.unit) + " completes before CN " +
                            std::to_string(si.other) +
                            ": its zigzag forward input is used before it is defined",
                        "slot runs must sweep local CNs 0..q-1 in order");
                break;
            case SlotIssueKind::SerialOverlap:
                rep.add("schedule.dataflow.fu-serial", Severity::Error, slot_location(si.position),
                        "slots of local CN " + std::to_string(si.unit) +
                            " interleave with the open accumulation window of CN " +
                            std::to_string(si.other),
                        "a serial functional unit accumulates one CN at a time");
                break;
            case SlotIssueKind::RunLength:
                rep.add("schedule.dataflow.order", Severity::Error,
                        "local CN " + std::to_string(si.unit),
                        "served by " + std::to_string(si.count) + " slots, expected check_deg-2=" +
                            std::to_string(slots_per_cn),
                        "schedule runs of check_deg-2 slots in ascending local CN order");
                break;
        }
    }
}

void report_drain(Report& rep, const char* phase, const arch::ConflictStats& st,
                  int buffer_depth) {
    const std::string loc = std::string(phase) + " phase";
    if (st.peak_buffer > buffer_depth)
        rep.add("schedule.dataflow.ports-overflow", Severity::Error, loc,
                "drained access plan needs " + std::to_string(st.peak_buffer) +
                    " buffer words but the design provides " + std::to_string(buffer_depth),
                "deepen the buffer or re-anneal the address assignment");
    else
        rep.add("schedule.dataflow.ports", Severity::Note, loc,
                "port drain: peak " + std::to_string(st.peak_buffer) + " of " +
                    std::to_string(buffer_depth) + " buffer words, " +
                    std::to_string(st.blocked_write_events) + " deferred writes, " +
                    std::to_string(st.total_cycles) + " cycles (" +
                    std::to_string(st.read_cycles) + " reads)");
}

std::string schedule_location(core::Schedule s) {
    return "schedule " + std::string(core::to_string(s));
}

}  // namespace

Report lint_dataflow(const ScheduleModel& model, const DataflowOptions& opts) {
    Report rep;
    if (model.q <= 0 || model.slots_per_cn <= 0 || model.ram_words <= 0 || model.slots.empty()) {
        rep.add("schedule.dataflow.config", Severity::Error, "schedule model",
                "degenerate schedule model (q=" + std::to_string(model.q) + ", check_deg-2=" +
                    std::to_string(model.slots_per_cn) + ", " + std::to_string(model.ram_words) +
                    " RAM words, " + std::to_string(model.slots.size()) +
                    " slots) — nothing to prove",
                "build the model from a valid mapping");
        return rep;
    }
    std::string memory_error = arch::memory_config_error(opts.memory);
    if (memory_error.empty() && opts.buffer_depth < 0)
        memory_error = "buffer_depth = " + std::to_string(opts.buffer_depth) +
                       ": the conflict buffer cannot hold a negative number of words";
    if (!memory_error.empty())
        rep.add("schedule.dataflow.config", Severity::Error, "memory config", memory_error,
                "the paper's design point is 4 banks, 2 write ports, latency 4, a 4-word buffer");

    std::vector<ir::SlotOp> ops;
    ops.reserve(model.slots.size());
    for (const arch::RomSlot& s : model.slots) ops.push_back(ir::SlotOp{s.addr, s.local_cn});
    const ir::SlotStreamDims dims{model.q, model.slots_per_cn, model.ram_words};
    const auto issues = ir::verify_slot_stream(ops, dims);
    report_slot_issues(rep, issues, model.slots_per_cn);
    if (issues.empty())
        rep.add("schedule.dataflow.read-once", Severity::Note, "check phase",
                "all " + std::to_string(model.ram_words) +
                    " RAM words read exactly once; chain order and serial-FU windows verified");

    // The drain needs a working conflict model, and its numbers describe a
    // schedule only once the slot stream is proven legal.
    if (!memory_error.empty() || !issues.empty()) return rep;
    const arch::PhaseSchedule check =
        arch::make_check_phase_schedule(model.slots, model.slots_per_cn, opts.memory);
    const arch::PhaseSchedule variable = arch::make_variable_phase_schedule(
        model.ram_words, model.row_base, model.row_degree, opts.memory);
    report_drain(rep, "check", arch::simulate_phase(check, opts.memory), opts.buffer_depth);
    report_drain(rep, "variable", arch::simulate_phase(variable, opts.memory), opts.buffer_depth);
    return rep;
}

Report lint_dataflow(const code::Dvbs2Code& code, const arch::HardwareMapping& mapping,
                     const DataflowOptions& opts) {
    Report rep = lint_dataflow(make_schedule_model(mapping), opts);

    ir::TraceDims dims;
    dims.parallelism = code.params().parallelism;
    dims.q = code.params().q;
    dims.check_in_degree = code.check_in_degree();
    dims.iterations = 3;  // enough for a steady-state middle iteration
    dims.num_info_nodes = code.k();
    dims.edge_variable.resize(static_cast<std::size_t>(code.e_in()));
    for (long long e = 0; e < code.e_in(); ++e)
        dims.edge_variable[static_cast<std::size_t>(e)] = code.edge_variable(e);

    const ir::Trace trace = ir::build_schedule_trace(opts.schedule, dims);
    const ir::ParallelismReport par = ir::analyze_parallelism(trace);
    for (const ir::PhaseParallelism& pp : par.phases)
        rep.add("schedule.dataflow.parallelism", Severity::Note,
                schedule_location(opts.schedule) + ", " + pp.name + " phase",
                std::to_string(pp.units) + " units in " + std::to_string(pp.levels) +
                    " dependence levels; widest provably parallel group " +
                    std::to_string(pp.max_group) + " units");

    const ir::ScheduleClass& cls = ir::classify_schedule(opts.schedule);
    rep.add("schedule.dataflow.simd-legal", Severity::Note, schedule_location(opts.schedule),
            cls.group_parallel_legal
                ? "proven legal for the group-parallel SIMD backend (lockstep lanes)"
                : "group-parallel SIMD illegal: " + cls.group_parallel_obstruction);

    const ir::LivenessReport live = ir::analyze_liveness(trace);
    const ir::LivenessReport flood =
        ir::analyze_liveness(ir::build_schedule_trace(core::Schedule::TwoPhase, dims));
    std::string msg = "peak live words: parity " + std::to_string(live.parity_words()) +
                      " (fwd " + std::to_string(live.peak(ir::Space::ZigzagFwd)) + ", bwd " +
                      std::to_string(live.peak(ir::Space::ZigzagBwd)) + ", map " +
                      std::to_string(live.peak(ir::Space::MapFwd)) + ", snapshot " +
                      std::to_string(live.peak(ir::Space::UpSnapshot)) + "), messages " +
                      std::to_string(live.message_words()) + "; two-phase flooding reference " +
                      std::to_string(flood.parity_words());
    // ZigzagForward keeps m+1 words against flooding's 2m-1: the Sec. 4
    // halving, stated only when the derived numbers actually show it.
    if (2 * live.parity_words() <= flood.parity_words() + 3)
        msg += " — zigzag halving verified (" + std::to_string(live.parity_words()) + " vs " +
               std::to_string(flood.parity_words()) + ")";
    rep.add("schedule.dataflow.liveness", Severity::Note, schedule_location(opts.schedule), msg);
    return rep;
}

}  // namespace dvbs2::analysis
