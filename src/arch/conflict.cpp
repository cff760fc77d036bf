#include "arch/conflict.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace dvbs2::arch {

std::string memory_config_error(const MemoryConfig& cfg) {
    if (cfg.num_banks < 2)
        return "num_banks = " + std::to_string(cfg.num_banks) +
               ": need at least two single-port banks, so a write can go beside the read";
    if (cfg.max_writes_per_cycle < 1)
        return "max_writes_per_cycle = " + std::to_string(cfg.max_writes_per_cycle) +
               ": need at least one write port, or the conflict buffer never drains";
    if (cfg.pipeline_latency < 0)
        return "pipeline_latency = " + std::to_string(cfg.pipeline_latency) +
               ": a write-back cannot be ready before its last read";
    return {};
}

namespace {

void require_valid(const MemoryConfig& cfg) {
    const std::string err = memory_config_error(cfg);
    DVBS2_REQUIRE(err.empty(), err);
}

}  // namespace

ConflictStats simulate_phase(const PhaseSchedule& sched, const MemoryConfig& cfg) {
    require_valid(cfg);
    DVBS2_REQUIRE(sched.ready_at.size() >= sched.read_addr.size(),
                  "ready_at must cover all read cycles");

    ConflictStats stats;
    stats.read_cycles = static_cast<int>(sched.read_addr.size());

    std::deque<int> buffer;  // pending write addresses, FIFO order
    std::size_t cycle = 0;
    auto bank_of = [&](int addr) { return addr % cfg.num_banks; };

    auto step = [&](bool has_read, int read_bank) {
        // Enqueue writes that became ready this cycle.
        if (cycle < sched.ready_at.size())
            for (int a : sched.ready_at[cycle]) buffer.push_back(a);
        if (static_cast<int>(buffer.size()) > stats.peak_buffer)
            stats.peak_buffer = static_cast<int>(buffer.size());

        // Issue up to max_writes_per_cycle writes to banks that are free
        // (not the read bank, not already written this cycle). FIFO with
        // lookahead: scan from the head, take the first eligible entries —
        // hardware realizes this with a small CAM over the buffer.
        int issued = 0;
        std::vector<char> bank_busy(static_cast<std::size_t>(cfg.num_banks), 0);
        if (has_read) bank_busy[static_cast<std::size_t>(read_bank)] = 1;
        for (auto it = buffer.begin(); it != buffer.end() && issued < cfg.max_writes_per_cycle;) {
            const int b = bank_of(*it);
            if (!bank_busy[static_cast<std::size_t>(b)]) {
                bank_busy[static_cast<std::size_t>(b)] = 1;
                it = buffer.erase(it);
                ++issued;
            } else {
                ++stats.blocked_write_events;
                ++it;
            }
        }
        stats.buffer_word_cycles += static_cast<long long>(buffer.size());
        ++cycle;
    };

    for (std::size_t t = 0; t < sched.read_addr.size(); ++t)
        step(/*has_read=*/true, bank_of(sched.read_addr[t]));
    // Remaining ready events (latency tail) and buffer drain: no reads, all
    // banks available for writes.
    while (cycle < sched.ready_at.size() || !buffer.empty()) step(/*has_read=*/false, 0);

    stats.total_cycles = static_cast<int>(cycle);
    return stats;
}

PhaseSchedule make_check_phase_schedule(const std::vector<RomSlot>& slots, int slots_per_cn,
                                        const MemoryConfig& cfg) {
    require_valid(cfg);
    DVBS2_REQUIRE(slots_per_cn >= 1, "slots_per_cn must be positive");
    const auto kc = static_cast<std::size_t>(slots_per_cn);
    PhaseSchedule sched;
    sched.read_addr.reserve(slots.size());
    for (const auto& s : slots) sched.read_addr.push_back(s.addr);

    // A serial functional unit "produces at most one updated message per
    // clock cycle" (paper Sec. 3): the kc write-backs of local CN r emerge
    // one per cycle, starting pipeline_latency cycles after its last read
    // (slot (r+1)·kc − 1).
    const auto latency = static_cast<std::size_t>(cfg.pipeline_latency);
    sched.ready_at.assign(slots.size() + latency + kc + 1, {});
    for (std::size_t s = 0; s < slots.size(); ++s) {
        const std::size_t run_end = (s / kc + 1) * kc - 1;
        sched.ready_at[run_end + latency + s % kc].push_back(slots[s].addr);
    }
    return sched;
}

PhaseSchedule make_check_phase_schedule(const HardwareMapping& mapping, const MemoryConfig& cfg) {
    return make_check_phase_schedule(mapping.slots(), mapping.slots_per_cn(), cfg);
}

PhaseSchedule make_variable_phase_schedule(int ram_words, const std::vector<int>& row_base,
                                           const std::vector<int>& row_degree,
                                           const MemoryConfig& cfg) {
    require_valid(cfg);
    DVBS2_REQUIRE(ram_words >= 0 && row_base.size() == row_degree.size(),
                  "need a non-negative RAM size and one degree per row base");
    PhaseSchedule sched;
    sched.read_addr.reserve(static_cast<std::size_t>(ram_words));
    for (int a = 0; a < ram_words; ++a) sched.read_addr.push_back(a);

    int max_deg = 0;
    for (int d : row_degree) max_deg = std::max(max_deg, d);
    const auto latency = static_cast<std::size_t>(cfg.pipeline_latency);
    sched.ready_at.assign(static_cast<std::size_t>(ram_words + max_deg) + latency + 1, {});
    // Node group g's messages live at row_base[g] .. row_base[g]+deg−1 and
    // are all read by cycle row_base[g]+deg−1; the updated messages emerge
    // from the serial FU one per cycle and go back to the same addresses.
    for (std::size_t g = 0; g < row_base.size(); ++g) {
        const int base = row_base[g];
        const int deg = row_degree[g];
        DVBS2_REQUIRE(base >= 0 && deg >= 0 && base + deg <= ram_words,
                      "row " + std::to_string(g) + " leaves the " + std::to_string(ram_words) +
                          "-word RAM");
        for (int l = 0; l < deg; ++l)
            sched.ready_at[static_cast<std::size_t>(base + deg - 1 + l) + latency].push_back(
                base + l);
    }
    return sched;
}

PhaseSchedule make_variable_phase_schedule(const HardwareMapping& mapping,
                                           const MemoryConfig& cfg) {
    const auto& cp = mapping.code().params();
    std::vector<int> row_base, row_degree;
    for (int g = 0; g < cp.groups(); ++g) {
        row_base.push_back(mapping.row_base(g));
        row_degree.push_back(g < cp.groups_hi() ? cp.deg_hi : cp.deg_lo);
    }
    return make_variable_phase_schedule(mapping.ram_words(), row_base, row_degree, cfg);
}

IterationStats simulate_iteration(const HardwareMapping& mapping, const MemoryConfig& cfg) {
    IterationStats st;
    st.variable_phase = simulate_phase(make_variable_phase_schedule(mapping, cfg), cfg);
    st.check_phase = simulate_phase(make_check_phase_schedule(mapping, cfg), cfg);
    return st;
}

}  // namespace dvbs2::arch
