// Single-port RAM partition and write-conflict model (paper Sec. 4, Fig. 5).
//
// The IN message memory is one P-lane-wide word per address, partitioned
// into `num_banks` single-port RAMs by the low address bits. Every cycle the
// decoder reads one word (the port of that bank is consumed) and may write
// back at most `max_writes_per_cycle` words to *other*, mutually distinct
// banks. Updated words that cannot be written immediately wait in a FIFO
// buffer — the paper minimizes this buffer with simulated annealing and
// reports that a single small buffer suffices for all code rates.
//
// This is the one RAM-port model in the tree: the static analyzer's
// schedule.dataflow.ports rules drain the same phase schedules through
// simulate_phase, built from the plain-data slot list and row layout of a
// (possibly corrupted) lint schedule model.
#pragma once

#include <string>
#include <vector>

#include "arch/mapping.hpp"

namespace dvbs2::arch {

/// Hardware parameters of the memory subsystem.
struct MemoryConfig {
    int num_banks = 4;             ///< partitions (2 LSBs of the address)
    int max_writes_per_cycle = 2;  ///< write ports across the other banks
    int pipeline_latency = 4;      ///< cycles from last read of a node to its
                                   ///< write-back data being ready
};

/// Why `cfg` cannot drive the conflict model, naming the offending field
/// ("max_writes_per_cycle = 0: ..."), or empty when it can. Every function
/// below throws std::runtime_error with this message on a bad config: a
/// phase never drains without a write port, a negative latency indexes
/// before the first cycle, and one single-port bank cannot serve a read and
/// a write in the same cycle.
std::string memory_config_error(const MemoryConfig& cfg);

/// One phase's memory traffic: reads happen one per cycle in order; writes
/// become ready in groups (one group per completed node) and drain through
/// the buffer.
struct PhaseSchedule {
    std::vector<int> read_addr;                 ///< cycle t reads read_addr[t]
    std::vector<std::vector<int>> ready_at;     ///< per cycle, write addresses
                                                ///< becoming ready (size ≥ reads;
                                                ///< trailing cycles = epilogue)
};

/// Result of simulating one phase.
struct ConflictStats {
    int read_cycles = 0;       ///< cycles with a read
    int total_cycles = 0;      ///< reads + drain epilogue
    int peak_buffer = 0;       ///< maximum FIFO occupancy (words)
    long long buffer_word_cycles = 0;  ///< total residency (pressure metric)
    long long blocked_write_events = 0;  ///< write attempts deferred by bank conflicts
};

/// Simulates the phase cycle by cycle: per cycle the read consumes its bank,
/// then at most max_writes_per_cycle pending writes issue to free, mutually
/// distinct banks, scanned FIFO from the head with lookahead (the paper's
/// small-CAM buffer policy).
ConflictStats simulate_phase(const PhaseSchedule& sched, const MemoryConfig& cfg);

/// Builds the check-phase schedule: reads follow the ROM slot order; slot s
/// belongs to run ⌊s/slots_per_cn⌋, and a run's write-backs become ready one
/// per cycle from `cfg.pipeline_latency` cycles after the run's last slot.
/// Only the given slots are read and written back, so a short or corrupted
/// slot list is modelled as it stands.
PhaseSchedule make_check_phase_schedule(const std::vector<RomSlot>& slots, int slots_per_cn,
                                        const MemoryConfig& cfg);
PhaseSchedule make_check_phase_schedule(const HardwareMapping& mapping, const MemoryConfig& cfg);

/// Builds the variable-phase schedule: reads sweep addresses 0..W−1; node
/// group g's write-backs (addresses row_base[g] .. row_base[g]+row_degree[g]−1)
/// become ready after its last message was read. Each row must lie inside
/// the W-word RAM.
PhaseSchedule make_variable_phase_schedule(int ram_words, const std::vector<int>& row_base,
                                           const std::vector<int>& row_degree,
                                           const MemoryConfig& cfg);
PhaseSchedule make_variable_phase_schedule(const HardwareMapping& mapping,
                                           const MemoryConfig& cfg);

/// Convenience: both phases of one iteration simulated with `cfg`.
struct IterationStats {
    ConflictStats variable_phase;
    ConflictStats check_phase;
    int cycles_per_iteration() const {
        return variable_phase.total_cycles + check_phase.total_cycles;
    }
    int peak_buffer() const {
        return variable_phase.peak_buffer > check_phase.peak_buffer
                   ? variable_phase.peak_buffer
                   : check_phase.peak_buffer;
    }
};

IterationStats simulate_iteration(const HardwareMapping& mapping, const MemoryConfig& cfg);

}  // namespace dvbs2::arch
