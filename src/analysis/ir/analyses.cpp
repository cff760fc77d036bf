#include "analysis/ir/analyses.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/error.hpp"

namespace dvbs2::analysis::ir {

namespace {

/// Per-space word arrays sized from the trace (the declared space_size or
/// the largest index actually referenced, whichever is bigger — synthetic
/// test traces need not fill space_size).
std::array<std::size_t, kSpaceCount> space_extents(const Trace& trace) {
    std::array<std::size_t, kSpaceCount> n{};
    for (int s = 0; s < kSpaceCount; ++s)
        if (s < static_cast<int>(trace.space_size.size()) && trace.space_size[static_cast<std::size_t>(s)] > 0)
            n[static_cast<std::size_t>(s)] = static_cast<std::size_t>(trace.space_size[static_cast<std::size_t>(s)]);
    for (const Event& ev : trace.events) {
        auto& cur = n[static_cast<std::size_t>(ev.space)];
        const auto need = static_cast<std::size_t>(ev.index) + 1;
        if (need > cur) cur = need;
    }
    return n;
}

std::string phase_name_of(const Trace& trace, int phase) {
    if (phase >= 0 && phase < static_cast<int>(trace.phase_names.size()))
        return trace.phase_names[static_cast<std::size_t>(phase)];
    return "phase " + std::to_string(phase);
}

/// Iteration whose statistics represent the steady state: the middle one,
/// so values flowing in from the previous iteration and out to the next are
/// both present.
int measured_iteration(const Trace& trace) {
    return trace.dims.iterations >= 2 ? trace.dims.iterations - 2 : 0;
}

}  // namespace

std::string LockstepViolation::describe() const {
    std::string reason;
    if (use_lane < 0 || def_lane < 0)
        reason = "a unit outside the lane mapping participates in the dependence";
    else if (def_lane != use_lane)
        reason = "the dependence crosses lanes inside one lockstep sweep";
    else
        reason = "the value is produced at a later lockstep step than its use";
    return "phase " + phase_name + ": " + std::string(to_string(space)) + "[" +
           std::to_string(index) + "] is written by unit " + std::to_string(def_unit) +
           " (lane " + std::to_string(def_lane) + ", step " + std::to_string(def_step) +
           ") and read by unit " + std::to_string(use_unit) + " (lane " +
           std::to_string(use_lane) + ", step " + std::to_string(use_step) + "): " + reason;
}

ParallelismReport analyze_parallelism(const Trace& trace) {
    ParallelismReport rep;
    const auto extents = space_extents(trace);
    std::array<std::vector<std::int64_t>, kSpaceCount> last_def;
    for (int s = 0; s < kSpaceCount; ++s)
        last_def[static_cast<std::size_t>(s)].assign(extents[static_cast<std::size_t>(s)], -1);

    const int measured = measured_iteration(trace);
    int cur_iter = -1, cur_phase = -1;
    bool phase_open = false;
    std::unordered_map<std::int32_t, int> level;  // unit -> dependence level

    const auto flush = [&]() {
        if (phase_open && cur_iter == measured && !level.empty()) {
            PhaseParallelism pp;
            pp.phase = cur_phase;
            pp.name = phase_name_of(trace, cur_phase);
            pp.units = static_cast<int>(level.size());
            int max_level = 0;
            for (const auto& [unit, lv] : level) max_level = std::max(max_level, lv);
            pp.levels = max_level + 1;
            std::vector<int> group(static_cast<std::size_t>(max_level) + 1, 0);
            for (const auto& [unit, lv] : level) ++group[static_cast<std::size_t>(lv)];
            pp.max_group = *std::max_element(group.begin(), group.end());
            rep.phases.push_back(std::move(pp));
        }
        level.clear();
        phase_open = false;
    };

    for (std::size_t t = 0; t < trace.events.size(); ++t) {
        const Event& ev = trace.events[t];
        if (ev.iter != cur_iter || ev.phase != cur_phase) {
            flush();
            cur_iter = ev.iter;
            cur_phase = ev.phase;
            phase_open = true;
        }
        const bool track_levels = cur_iter == measured && ev.access != Access::Sink;
        if (track_levels) level.emplace(ev.unit, 0);

        auto& ld = last_def[static_cast<std::size_t>(ev.space)][static_cast<std::size_t>(ev.index)];
        if (ev.access == Access::Def) {
            ld = static_cast<std::int64_t>(t);
            continue;
        }
        if (ld < 0) continue;  // reads the all-zero initial state
        const Event& d = trace.events[static_cast<std::size_t>(ld)];
        if (d.iter != ev.iter || d.phase != ev.phase) continue;  // phase barrier in between
        if (ev.access == Access::Sink) continue;  // hardening read, not FU work

        if (track_levels && d.unit != ev.unit) {
            const int dl = level[d.unit];
            auto& ul = level[ev.unit];
            ul = std::max(ul, dl + 1);
        }

        const bool lockstep_ok = ev.lane >= 0 && d.lane == ev.lane &&
                                 (d.step < ev.step || (d.step == ev.step && d.unit == ev.unit));
        if (!lockstep_ok && rep.lockstep_legal) {
            rep.lockstep_legal = false;
            LockstepViolation v;
            v.space = ev.space;
            v.index = ev.index;
            v.phase_name = phase_name_of(trace, ev.phase);
            v.def_unit = d.unit;
            v.use_unit = ev.unit;
            v.def_lane = d.lane;
            v.use_lane = ev.lane;
            v.def_step = d.step;
            v.use_step = ev.step;
            rep.violation = std::move(v);
        }
    }
    flush();
    return rep;
}

LivenessReport analyze_liveness(const Trace& trace) {
    LivenessReport rep;
    const auto extents = space_extents(trace);
    std::array<std::vector<std::int64_t>, kSpaceCount> def_t, use_t;
    for (int s = 0; s < kSpaceCount; ++s) {
        def_t[static_cast<std::size_t>(s)].assign(extents[static_cast<std::size_t>(s)], -1);
        use_t[static_cast<std::size_t>(s)].assign(extents[static_cast<std::size_t>(s)], -1);
    }
    // Value intervals [def time, last read time], per space.
    std::array<std::vector<std::pair<std::int64_t, std::int64_t>>, kSpaceCount> intervals;

    const int measured = measured_iteration(trace);
    std::int64_t win_lo = -1, win_hi = -1;

    for (std::size_t t = 0; t < trace.events.size(); ++t) {
        const Event& ev = trace.events[t];
        if (ev.iter == measured) {
            if (win_lo < 0) win_lo = static_cast<std::int64_t>(t);
            win_hi = static_cast<std::int64_t>(t);
        }
        const auto s = static_cast<std::size_t>(ev.space);
        const auto i = static_cast<std::size_t>(ev.index);
        if (ev.access == Access::Def) {
            if (def_t[s][i] >= 0) intervals[s].emplace_back(def_t[s][i], use_t[s][i]);
            def_t[s][i] = static_cast<std::int64_t>(t);
            use_t[s][i] = static_cast<std::int64_t>(t);
        } else if (def_t[s][i] >= 0) {
            use_t[s][i] = static_cast<std::int64_t>(t);
        }
    }
    for (int s = 0; s < kSpaceCount; ++s)
        for (std::size_t i = 0; i < extents[static_cast<std::size_t>(s)]; ++i)
            if (def_t[static_cast<std::size_t>(s)][i] >= 0)
                intervals[static_cast<std::size_t>(s)].emplace_back(
                    def_t[static_cast<std::size_t>(s)][i], use_t[static_cast<std::size_t>(s)][i]);

    if (win_lo < 0) return rep;  // empty trace
    for (int s = 0; s < kSpaceCount; ++s) {
        std::vector<std::pair<std::int64_t, int>> delta;
        for (const auto& [a, b] : intervals[static_cast<std::size_t>(s)]) {
            if (b < win_lo || a > win_hi) continue;
            delta.emplace_back(std::max(a, win_lo), +1);
            delta.emplace_back(std::min(b, win_hi) + 1, -1);
        }
        std::sort(delta.begin(), delta.end());
        int live = 0, peak = 0;
        for (const auto& [time, d] : delta) {
            live += d;
            peak = std::max(peak, live);
        }
        rep.peak_live[static_cast<std::size_t>(s)] = peak;
    }
    return rep;
}

namespace {

ScheduleClass classify_one(core::Schedule s) {
    const Trace trace = build_schedule_trace(s, TraceDims{});
    const ParallelismReport par = analyze_parallelism(trace);
    ScheduleClass c;
    c.schedule = s;
    c.group_parallel_legal = par.lockstep_legal;
    if (par.violation) c.group_parallel_obstruction = par.violation->describe();
    return c;
}

}  // namespace

const ScheduleClass& classify_schedule(core::Schedule schedule) {
    static const std::array<ScheduleClass, 5> table = [] {
        std::array<ScheduleClass, 5> t{};
        for (core::Schedule s :
             {core::Schedule::TwoPhase, core::Schedule::ZigzagForward,
              core::Schedule::ZigzagSegmented, core::Schedule::ZigzagMap,
              core::Schedule::Layered})
            t[static_cast<std::size_t>(s)] = classify_one(s);
        return t;
    }();
    const auto i = static_cast<std::size_t>(schedule);
    DVBS2_REQUIRE(i < table.size(), "unknown schedule value " + std::to_string(i));
    return table[i];
}

std::vector<SlotIssue> verify_slot_stream(const std::vector<SlotOp>& ops,
                                          const SlotStreamDims& dims,
                                          std::size_t max_issues) {
    std::vector<SlotIssue> issues;
    const auto report = [&](SlotIssue si) {
        if (issues.size() < max_issues) issues.push_back(si);
    };
    if (dims.q <= 0 || dims.slots_per_cn <= 0 || dims.ram_words <= 0) {
        report(SlotIssue{SlotIssueKind::UnitRange, -1, dims.ram_words, dims.q, -1, 0});
        return issues;
    }

    std::vector<int> reads(static_cast<std::size_t>(dims.ram_words), 0);
    std::vector<int> last(static_cast<std::size_t>(dims.q), -1);
    std::vector<int> slots(static_cast<std::size_t>(dims.q), 0);
    std::vector<char> in_range(ops.size(), 0);
    for (std::size_t t = 0; t < ops.size(); ++t) {
        const SlotOp& op = ops[t];
        bool ok = true;
        if (op.addr < 0 || op.addr >= dims.ram_words) {
            report(SlotIssue{SlotIssueKind::AddrRange, static_cast<int>(t), op.addr, op.unit, -1, 0});
            ok = false;
        }
        if (op.unit < 0 || op.unit >= dims.q) {
            report(SlotIssue{SlotIssueKind::UnitRange, static_cast<int>(t), op.addr, op.unit, -1, 0});
            ok = false;
        }
        if (!ok) continue;
        in_range[t] = 1;
        ++reads[static_cast<std::size_t>(op.addr)];
        ++slots[static_cast<std::size_t>(op.unit)];
        last[static_cast<std::size_t>(op.unit)] = static_cast<int>(t);
    }

    // Read-once: every RAM word is consumed exactly once per check phase —
    // the in-place c2v/v2c discipline breaks under any other count.
    for (int a = 0; a < dims.ram_words; ++a)
        if (reads[static_cast<std::size_t>(a)] != 1)
            report(SlotIssue{SlotIssueKind::ReadCount, -1, a, -1, -1,
                             reads[static_cast<std::size_t>(a)]});

    // Chain def-use order: CN r's forward input is defined when CN r-1
    // completes, so completion times must ascend along the zigzag chain.
    for (int r = 1; r < dims.q; ++r)
        if (last[static_cast<std::size_t>(r)] >= 0 && last[static_cast<std::size_t>(r - 1)] >= 0 &&
            last[static_cast<std::size_t>(r)] < last[static_cast<std::size_t>(r - 1)])
            report(SlotIssue{SlotIssueKind::UseBeforeDef, last[static_cast<std::size_t>(r)], -1, r,
                             r - 1, 0});

    // Serial-FU windows: a functional unit accumulates one CN at a time, so
    // no other CN's slots may appear before the active CN's last slot.
    int active = -1;
    for (std::size_t t = 0; t < ops.size(); ++t) {
        if (!in_range[t]) continue;
        const int u = ops[t].unit;
        if (u != active) {
            if (active >= 0 && static_cast<int>(t) <= last[static_cast<std::size_t>(active)])
                report(SlotIssue{SlotIssueKind::SerialOverlap, static_cast<int>(t), ops[t].addr, u,
                                 active, 0});
            active = u;
        }
    }

    // Run length: each CN combines exactly slots_per_cn information edges.
    // With contiguous windows and ascending completion this pins the stream
    // to q runs of slots_per_cn slots in local CN order.
    for (int r = 0; r < dims.q; ++r)
        if (slots[static_cast<std::size_t>(r)] != dims.slots_per_cn)
            report(SlotIssue{SlotIssueKind::RunLength, last[static_cast<std::size_t>(r)], -1, r,
                             -1, slots[static_cast<std::size_t>(r)]});
    return issues;
}

}  // namespace dvbs2::analysis::ir
