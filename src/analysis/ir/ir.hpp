// Schedule dataflow IR (paper Secs. 2.2-4): a finite trace of message
// def/use events that makes every schedule's data movement explicit, so
// generic analyses can *derive* the properties the paper argues by hand —
// sequential legality of the zigzag update, the halved parity-message
// storage of Fig. 2b, and the P-way lockstep independence that Eq. 2
// guarantees.
//
// The trace models storage the way the hardware provides it: one word per
// message *location*, with both travel directions of an edge alternating in
// place (the same in-place discipline the IN-message RAM uses for c2v/v2c).
// A def writes a word, a use reads the value the latest def left there, and
// a sink is a posterior-hardening read (it extends a value's lifetime but is
// not functional-unit work, so it constrains liveness and not the lockstep
// schedule). Every event carries hardware coordinates: the iteration, the
// phase, the producing/consuming unit, the SIMD lane the unit maps to, and
// the lockstep step within the phase.
//
// Traces are built from dimensions only (P, q, check_in_degree) or, when the
// per-edge variable map is supplied, from the full (code, schedule) pair —
// the analyses in analyses.hpp are independent of which.
//
// This library is deliberately self-contained (links only dvbs2_util): it
// sits *below* core so that the engine registry can consult its schedule
// classification (core/engine.cpp) without a dependency cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace dvbs2::analysis::ir {

/// What an event does to its storage word.
enum class Access : std::uint8_t {
    Def,   ///< writes a new value into the word
    Use,   ///< reads the latest value as a message-update input
    Sink,  ///< reads the latest value for posterior hardening (liveness
           ///< only — excluded from lockstep-legality and level analysis)
};

/// Storage spaces of the message state. Each space is an array of words
/// indexed independently; all spaces are frame-local (no state is shared
/// between frames, which is what makes frame-per-lane batching legal for
/// every schedule).
enum class Space : std::uint8_t {
    MsgWord,     ///< information-edge words (E_IN; c2v/v2c alternate in place)
    ZigzagFwd,   ///< word of edge (p_j, CN_j): down_j, and pn_a_j in flooding
    ZigzagBwd,   ///< word of edge (p_j, CN_{j+1}): up_j, and pn_c_j in flooding
    MapFwd,      ///< MAP forward recursion storage (fwd_d_)
    UpSnapshot,  ///< segmented-schedule per-FU boundary registers for up
    PostInfo,    ///< layered running posterior totals, information nodes
    PostParity,  ///< layered running posterior totals, parity nodes
};
inline constexpr int kSpaceCount = 7;

const char* to_string(Space s);

/// One def/use/sink with full hardware coordinates. Trace position is the
/// event's time; defs dominate later uses of the same (space, index) until
/// the next def.
struct Event {
    Access access{};
    Space space{};
    std::int32_t index = 0;  ///< word index within the space
    std::int16_t iter = 0;   ///< decoding iteration
    std::int16_t phase = 0;  ///< phase within the iteration (see Trace::phase_names)
    std::int32_t unit = 0;   ///< producing/consuming unit (CN c -> c; others above m)
    std::int16_t lane = -1;  ///< SIMD lane of the unit under the Eq. 2 group-
                             ///< parallel mapping; -1 = not lane-mapped
    std::int32_t step = 0;   ///< lockstep step within the phase; -1 = prologue
};

/// One-line description of an event for diagnostics ("use of msg-word[5]
/// by unit 7 (iter 1, phase 0)"); range certificates and engine validation
/// quote offending events with it.
std::string describe_event(const Event& ev);

/// Dimensions a schedule trace is built from. The defaults are the smallest
/// dimensions that exhibit every dependence class (>= 2 segment boundaries,
/// >= 3 chain steps per segment); classification results are dimension-
/// independent because every dependence in the builders is a fixed pattern
/// repeated per unit.
struct TraceDims {
    int parallelism = 4;     ///< P functional units / lanes
    int q = 3;               ///< local check nodes per FU (m = P*q)
    int check_in_degree = 2; ///< information edges per CN (check_deg - 2)
    int iterations = 3;      ///< >= 3 so the middle iteration has live-in and
                             ///< live-out values on both sides
    /// Optional: information-bit index of every check-major edge (size
    /// m*check_in_degree). When present, variable-phase events group by
    /// information node and layered traces carry PostInfo dependences.
    std::vector<std::int32_t> edge_variable;
    int num_info_nodes = 0;  ///< K; required when edge_variable is set

    int m() const noexcept { return parallelism * q; }
    long long e_in() const noexcept {
        return static_cast<long long>(m()) * check_in_degree;
    }
};

/// The default (scaled) dims carrying a code's worst per-firing fan-ins:
/// `check_in_degree` information edges per check node, and information node
/// 0 of degree `info_degree` (capped at the edge count), every other edge
/// its own degree-1 node. Range bounds grow only with fan-in, never with m
/// or N, so a range certificate at these dims covers the full-size code.
TraceDims fan_in_trace_dims(int check_in_degree, int info_degree);

/// A compiled schedule: the event sequence plus its shape metadata.
struct Trace {
    core::Schedule schedule{};
    TraceDims dims;
    std::vector<std::string> phase_names;     ///< phase id -> display name
    std::vector<std::int32_t> space_size;     ///< words per space (kSpaceCount)
    std::vector<Event> events;
};

/// Compiles `schedule` into its def/use trace over `dims.iterations`
/// iterations. Event order is execution order: the segmented schedule is
/// emitted in lockstep (step-major) order, the MAP backward sweep in
/// descending CN order, everything else in ascending CN order — so reaching
/// definitions fall out of trace position alone, with no special cases.
Trace build_schedule_trace(core::Schedule schedule, const TraceDims& dims);

}  // namespace dvbs2::analysis::ir
