#include "analysis/lint_dataflow.hpp"

#include <string>

#include "analysis/ir/analyses.hpp"
#include "analysis/lint_memory.hpp"

namespace dvbs2::analysis {

namespace {

std::string slot_location(int position) {
    return position >= 0 ? "slot " + std::to_string(position) : "check phase";
}

void report_slot_issues(Report& rep, const std::vector<ir::SlotIssue>& issues) {
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
        }
    }
}

ir::RamPhasePlan to_ram_plan(const AccessPlan& plan) {
    ir::RamPhasePlan out;
    out.read_addr.assign(plan.read_addr.begin(), plan.read_addr.end());
    out.write_ready.reserve(plan.ready_writes.size());
    for (const auto& cycle : plan.ready_writes)
        out.write_ready.emplace_back(cycle.begin(), cycle.end());
    return out;
}

void report_drain(Report& rep, const char* phase, const ir::RamDrainStats& st, int buffer_depth) {
    const std::string loc = std::string(phase) + " phase";
    if (st.peak_pending > buffer_depth)
        rep.add("schedule.dataflow.ports-overflow", Severity::Error, loc,
                "drained access plan needs " + std::to_string(st.peak_pending) +
                    " buffer words but the design provides " + std::to_string(buffer_depth),
                "deepen the buffer or re-anneal the address assignment");
    else
        rep.add("schedule.dataflow.ports", Severity::Note, loc,
                "port drain: peak " + std::to_string(st.peak_pending) + " of " +
                    std::to_string(buffer_depth) + " buffer words, " +
                    std::to_string(st.blocked_events) + " deferred writes, " +
                    std::to_string(st.cycles) + " cycles (" + std::to_string(st.read_cycles) +
                    " reads)");
}

std::string schedule_location(core::Schedule s) {
    return "schedule " + std::string(core::to_string(s));
}

}  // namespace

Report lint_dataflow(const ScheduleModel& model, const DataflowOptions& opts) {
    Report rep;
    if (model.q <= 0 || model.slots_per_cn <= 0 || model.ram_words <= 0 || model.slots.empty() ||
        opts.memory.num_banks < 2 || opts.memory.max_writes_per_cycle < 1 ||
        opts.memory.pipeline_latency < 0 || opts.buffer_depth < 0) {
        rep.add("schedule.dataflow.config", Severity::Error, "schedule model",
                "degenerate model or memory configuration — nothing to prove",
                "build the model from a valid mapping");
        return rep;
    }

    std::vector<ir::SlotOp> ops;
    ops.reserve(model.slots.size());
    for (const arch::RomSlot& s : model.slots) ops.push_back(ir::SlotOp{s.addr, s.local_cn});
    const ir::SlotStreamDims dims{model.q, model.slots_per_cn, model.ram_words};
    const auto issues = ir::verify_slot_stream(ops, dims);
    report_slot_issues(rep, issues);
    if (issues.empty())
        rep.add("schedule.dataflow.read-once", Severity::Note, "check phase",
                "all " + std::to_string(model.ram_words) +
                    " RAM words read exactly once; chain order and serial-FU windows verified");

    const ir::RamDrainStats check =
        ir::drain_ram(to_ram_plan(enumerate_check_phase(model, opts.memory)),
                      opts.memory.num_banks, opts.memory.max_writes_per_cycle);
    const ir::RamDrainStats variable =
        ir::drain_ram(to_ram_plan(enumerate_variable_phase(model, opts.memory)),
                      opts.memory.num_banks, opts.memory.max_writes_per_cycle);
    report_drain(rep, "check", check, opts.buffer_depth);
    report_drain(rep, "variable", variable, opts.buffer_depth);
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
                ? std::string("proven legal for the group-parallel SIMD backend (lockstep "
                              "lanes); frame-per-lane batching ") +
                      (cls.frame_per_lane_legal ? "legal (all state frame-local)" : "illegal")
                : "group-parallel SIMD illegal: " + cls.group_parallel_obstruction +
                      "; frame-per-lane batching " +
                      (cls.frame_per_lane_legal ? "legal (all state frame-local)" : "illegal"));

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
