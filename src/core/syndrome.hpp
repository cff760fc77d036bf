// The one post-iteration syndrome evaluation shared by every decode
// backend.
//
// All three historic call sites of the scalar MpDecoder (the tracing path,
// the early-stop path and the no-early-stop post-loop fallback) and the
// SIMD group-parallel decoder route through check_syndrome(), so the
// convergence decision cannot drift between backends. The frame-per-lane
// batch decoder evaluates the same predicate lane-parallel from a sign
// plane of the posteriors (unsatisfied_lanes in batch_decoder.cpp); its
// agreement with this routine is pinned per lane, and by the bit-identical
// iteration-count invariant, in tests/test_convergence.cpp.
//
// Two cost/precision flavors, selected by `count_unsatisfied`:
//   * false (the decode hot path): the allocation-free early-exit walk of
//     code::Dvbs2Code::is_codeword — O(E) worst case but it bails at the
//     first unsatisfied check, which is almost immediate for frames still
//     far from convergence. `unsatisfied` is reported as -1 (not counted).
//   * true (tracing only): the full syndrome weight via Dvbs2Code::syndrome,
//     which materializes the M-bit syndrome vector (allocates) and never
//     exits early — observers need the exact count, not just a verdict.
#pragma once

#include "code/tanner.hpp"
#include "util/bitvec.hpp"

namespace dvbs2::core {

/// Outcome of one hard-decision syndrome evaluation.
struct SyndromeOutcome {
    bool satisfied = false;  ///< x·Hᵀ = 0, i.e. `codeword` is a codeword
    int unsatisfied = -1;    ///< syndrome weight; -1 when not counted
};

inline SyndromeOutcome check_syndrome(const code::Dvbs2Code& code,
                                      const util::BitVec& codeword,
                                      bool count_unsatisfied = false) {
    if (count_unsatisfied) {
        const int unsat = static_cast<int>(code.syndrome(codeword).count());
        return {unsat == 0, unsat};
    }
    return {code.is_codeword(codeword), -1};
}

}  // namespace dvbs2::core
