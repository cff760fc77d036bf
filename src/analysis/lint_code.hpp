// Rule family `code.*`: structural lint of an IRA code table against its
// declared parameters — the invariants of paper Sec. 2/3 that the whole
// architecture is built on, provable from the (params, tables) pair alone,
// BEFORE a Dvbs2Code is constructed (construction throws on violations; the
// lint explains them instead).
//
// Rules:
//   code.params           N/K/P/q consistency and Eq. 6 edge balance
//   code.row-count        number of table rows != K/P groups
//   code.degree-profile   row degrees disagree with the (deg_hi, deg_lo)
//                         profile of the standard's parameter set
//   code.entry-range      accumulator address outside [0, N-K)
//   code.duplicate-entry  repeated address in one row (a double edge)
//   code.check-regularity residue class r mod q does not hold exactly
//                         check_deg-2 entries (breaks the slot schedule)
//   code.girth4-info      4-cycle inside the information part
//   code.girth4-zigzag    row contains chain-adjacent addresses x, x±1
//                         (a 4-cycle through the zigzag chain)
#pragma once

#include "analysis/diag.hpp"
#include "code/params.hpp"
#include "code/tables.hpp"

namespace dvbs2::analysis {

/// Lints `tables` against `params`. Never throws on bad input — every
/// violation becomes a Diagnostic. Rules that would be meaningless under an
/// earlier failure (e.g. girth counting with q <= 0) are skipped.
Report lint_code_structure(const code::CodeParams& params, const code::IraTables& tables);

/// Convenience: generates the tables for `params` first (the shipped-table
/// path used by the CLI).
Report lint_code_structure(const code::CodeParams& params);

}  // namespace dvbs2::analysis
