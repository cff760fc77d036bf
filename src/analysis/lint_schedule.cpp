#include "analysis/lint_schedule.hpp"

#include <set>
#include <string>
#include <utility>

namespace dvbs2::analysis {

ScheduleModel make_schedule_model(const arch::HardwareMapping& mapping) {
    const auto& cp = mapping.code().params();
    ScheduleModel m;
    m.parallelism = cp.parallelism;
    m.q = cp.q;
    m.slots_per_cn = mapping.slots_per_cn();
    m.ram_words = mapping.ram_words();
    m.slots = mapping.slots();
    m.row_base.reserve(static_cast<std::size_t>(cp.groups()));
    m.row_degree.reserve(static_cast<std::size_t>(cp.groups()));
    for (int g = 0; g < cp.groups(); ++g) {
        m.row_base.push_back(mapping.row_base(g));
        m.row_degree.push_back(g < cp.groups_hi() ? cp.deg_hi : cp.deg_lo);
    }
    return m;
}

Report lint_schedule(const arch::HardwareMapping& mapping) {
    return lint_schedule(make_schedule_model(mapping));
}

namespace {

std::string slot_loc(std::size_t t) { return "slot " + std::to_string(t); }

}  // namespace

Report lint_schedule(const ScheduleModel& m) {
    Report rep;
    if (m.parallelism <= 0 || m.q <= 0 || m.slots_per_cn <= 0 || m.ram_words <= 0) {
        rep.add("sched.slot-count", Severity::Error, "model",
                "degenerate schedule dimensions (P=" + std::to_string(m.parallelism) + ", q=" +
                    std::to_string(m.q) + ", kc=" + std::to_string(m.slots_per_cn) + ", words=" +
                    std::to_string(m.ram_words) + ")",
                "build the model from a valid HardwareMapping");
        return rep;
    }

    const auto expected =
        static_cast<std::size_t>(m.q) * static_cast<std::size_t>(m.slots_per_cn);
    if (m.slots.size() != expected || static_cast<std::size_t>(m.ram_words) != expected)
        rep.add("sched.slot-count", Severity::Error, "rom",
                "schedule has " + std::to_string(m.slots.size()) + " slots over " +
                    std::to_string(m.ram_words) + " RAM words, expected q*(check_deg-2)=" +
                    std::to_string(expected) + " of each",
                "one read cycle per information edge group per check phase (Eq. 6)");

    // Per-slot field legality: realizable shuffle offsets, in-RAM addresses
    // consistent with the row layout.
    const auto groups = static_cast<int>(m.row_base.size());
    for (std::size_t t = 0; t < m.slots.size(); ++t) {
        const arch::RomSlot& s = m.slots[t];
        if (s.shift < 0 || s.shift >= m.parallelism)
            rep.add("sched.shuffle-range", Severity::Error, slot_loc(t),
                    "cyclic shift " + std::to_string(s.shift) + " outside [0, P=" +
                        std::to_string(m.parallelism) + ")",
                    "shift = floor(x/q) of an address x in [0, N-K)");
        if (s.local_cn < 0 || s.local_cn >= m.q)
            rep.add("sched.shuffle-range", Severity::Error, slot_loc(t),
                    "local check index " + std::to_string(s.local_cn) + " outside [0, q=" +
                        std::to_string(m.q) + ")",
                    "local index = x mod q");
        if (s.group < 0 || s.group >= groups || s.entry < 0 ||
            (s.group >= 0 && s.group < groups &&
             s.entry >= m.row_degree[static_cast<std::size_t>(s.group)])) {
            rep.add("sched.addr-consistency", Severity::Error, slot_loc(t),
                    "slot references group " + std::to_string(s.group) + " entry " +
                        std::to_string(s.entry) + " outside the row layout",
                    "group in [0, K/P), entry below the group's degree");
            continue;
        }
        const int want = m.row_base[static_cast<std::size_t>(s.group)] + s.entry;
        if (s.addr != want || s.addr < 0 || s.addr >= m.ram_words)
            rep.add("sched.addr-consistency", Severity::Error, slot_loc(t),
                    "address " + std::to_string(s.addr) + " != row_base+entry=" +
                        std::to_string(want),
                    "addresses are assigned contiguously per group (Fig. 3)");
    }

    if (m.slots.size() == expected) {
        // Edge coverage inside each run: two slots with the same (group,
        // shift) deliver the same variable to every FU — one edge combined
        // twice, another starved.
        for (int r = 0; r < m.q; ++r) {
            std::set<std::pair<int, int>> seen;
            for (int u = 0; u < m.slots_per_cn; ++u) {
                const std::size_t t = static_cast<std::size_t>(r) *
                                          static_cast<std::size_t>(m.slots_per_cn) +
                                      static_cast<std::size_t>(u);
                if (t >= m.slots.size()) break;
                const arch::RomSlot& s = m.slots[t];
                if (!seen.insert({s.group, s.shift}).second)
                    rep.add("sched.edge-coverage", Severity::Error, slot_loc(t),
                            "run " + std::to_string(r) + " already serves (group=" +
                                std::to_string(s.group) + ", shift=" + std::to_string(s.shift) +
                                "): same message for every FU",
                            "each run must carry check_deg-2 distinct (group, shift) pairs");
            }
        }
    }

    return rep;
}

}  // namespace dvbs2::analysis
