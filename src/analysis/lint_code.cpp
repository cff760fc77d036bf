#include "analysis/lint_code.hpp"

#include <set>
#include <string>
#include <vector>

namespace dvbs2::analysis {

namespace {

std::string row_loc(std::size_t g) { return "row " + std::to_string(g); }

std::string entry_loc(std::size_t g, std::size_t l, std::uint32_t x) {
    return "row " + std::to_string(g) + " entry " + std::to_string(l) + " (x=" +
           std::to_string(x) + ")";
}

/// Basic parameter algebra; returns false when later table rules cannot run.
bool lint_params(const code::CodeParams& cp, Report& rep) {
    bool usable = true;
    auto fail = [&](const std::string& msg, const std::string& hint) {
        rep.add("code.params", Severity::Error, "params " + cp.name, msg, hint);
    };
    if (cp.n <= 0 || cp.k <= 0 || cp.k >= cp.n) {
        fail("need 0 < K < N (N=" + std::to_string(cp.n) + ", K=" + std::to_string(cp.k) + ")",
             "use a parameter set from standard_params()/toy_params()");
        return false;
    }
    if (cp.parallelism <= 0 || cp.q <= 0) {
        fail("parallelism and q must be positive", "P=360 and q=(N-K)/P for DVB-S2 codes");
        return false;
    }
    if (cp.q * cp.parallelism != cp.m()) {
        fail("q*P != N-K (" + std::to_string(cp.q) + "*" + std::to_string(cp.parallelism) +
                 " != " + std::to_string(cp.m()) + ")",
             "set q = (N-K)/P with P dividing N-K (Eq. 2)");
        usable = false;
    }
    if (cp.k % cp.parallelism != 0) {
        fail("K not divisible by P, information bits do not form whole groups",
             "choose K as a multiple of the parallelism");
        usable = false;
    }
    if (cp.n_hi < 0 || cp.n_hi > cp.k || cp.n_hi % cp.parallelism != 0) {
        fail("n_hi must be a group-aligned count in [0, K]",
             "align the degree boundary to a multiple of P");
        usable = false;
    }
    if (cp.deg_hi < 2 || cp.deg_lo < 2) {
        fail("information-node degrees must be >= 2", "DVB-S2 uses deg_lo=3");
        usable = false;
    }
    if (cp.check_deg < 3) {
        fail("check degree must be >= 3 (two zigzag edges + information edges)",
             "use the per-rate check degree of paper Table 1");
        usable = false;
    }
    // Eq. 6: E_IN = P*q*(check_deg-2) is what balances the per-FU load.
    if (usable && cp.e_in() != static_cast<long long>(cp.parallelism) * cp.q * (cp.check_deg - 2)) {
        fail("degree profile violates Eq. 6: E_IN=" + std::to_string(cp.e_in()) +
                 " but P*q*(check_deg-2)=" +
                 std::to_string(static_cast<long long>(cp.parallelism) * cp.q * (cp.check_deg - 2)),
             "adjust n_hi/deg_hi so the edge total matches the check-node capacity");
        usable = false;
    }
    return usable;
}

}  // namespace

Report lint_code_structure(const code::CodeParams& cp, const code::IraTables& tables) {
    Report rep;
    if (!lint_params(cp, rep)) return rep;

    const int m = cp.m();
    const int q = cp.q;

    // Row count and per-row degrees against the declared profile.
    const auto groups = static_cast<std::size_t>(cp.groups());
    if (tables.rows.size() != groups)
        rep.add("code.row-count", Severity::Error, "table",
                "table has " + std::to_string(tables.rows.size()) + " rows, expected K/P=" +
                    std::to_string(groups),
                "one row per group of P information bits");
    const auto groups_hi = static_cast<std::size_t>(cp.groups_hi());
    for (std::size_t g = 0; g < tables.rows.size(); ++g) {
        const std::size_t want =
            g < groups_hi ? static_cast<std::size_t>(cp.deg_hi) : static_cast<std::size_t>(cp.deg_lo);
        if (g < groups && tables.rows[g].size() != want)
            rep.add("code.degree-profile", Severity::Error, row_loc(g),
                    "row degree " + std::to_string(tables.rows[g].size()) + " != declared " +
                        std::to_string(want),
                    "high-degree groups come first (n_hi/P rows of deg_hi, then deg_lo)");
    }

    // Entry range and duplicates; out-of-range entries are excluded from the
    // arithmetic rules below so one corruption does not cascade.
    bool ranges_ok = true;
    for (std::size_t g = 0; g < tables.rows.size(); ++g) {
        std::set<std::uint32_t> seen;
        for (std::size_t l = 0; l < tables.rows[g].size(); ++l) {
            const std::uint32_t x = tables.rows[g][l];
            if (x >= static_cast<std::uint32_t>(m)) {
                rep.add("code.entry-range", Severity::Error, entry_loc(g, l, x),
                        "address beyond N-K=" + std::to_string(m),
                        "accumulator addresses live in [0, N-K)");
                ranges_ok = false;
                continue;
            }
            if (!seen.insert(x).second)
                rep.add("code.duplicate-entry", Severity::Error, entry_loc(g, l, x),
                        "address repeated within the row — a double edge between one "
                        "information group and one check-node group",
                        "every address in a row must be distinct");
        }
    }
    if (!ranges_ok) return rep;

    // Check regularity: residue class r must hold exactly check_deg-2
    // entries, which is what turns the slot schedule into q uniform runs.
    std::vector<long long> residue_count(static_cast<std::size_t>(q), 0);
    for (const auto& row : tables.rows)
        for (std::uint32_t x : row) ++residue_count[static_cast<std::size_t>(x % static_cast<std::uint32_t>(q))];
    const long long kc = cp.check_deg - 2;
    for (int r = 0; r < q; ++r) {
        if (residue_count[static_cast<std::size_t>(r)] != kc)
            rep.add("code.check-regularity", Severity::Error, "residue " + std::to_string(r),
                    "class holds " + std::to_string(residue_count[static_cast<std::size_t>(r)]) +
                        " entries, expected check_deg-2=" + std::to_string(kc),
                    "rebalance entries across residue classes mod q");
    }

    // Group-shift legality (Eq. 2) needs no rule of its own: lint_params
    // proved q·P = N−K and the entry-range rule x < N−K, so lane i of entry x
    // reaches (x + i·q) mod (N−K) = (x mod q) + q·((⌊x/q⌋ + i) mod P) — one
    // common local CN x mod q on every FU, visited once each as a cyclic
    // shift by ⌊x/q⌋.

    // Girth-4 inside the information part (collision-key count shared with
    // the generator) ...
    const long long cycles = code::count_information_4cycles(cp, tables);
    if (cycles != 0)
        rep.add("code.girth4-info", Severity::Error, "table",
                std::to_string(cycles) + " length-4 cycle(s) in the information part",
                "regenerate with the constrained generator or repair the colliding rows");

    // ... and through the zigzag chain: x and x+1 (mod N-K) in one row puts
    // an information bit on two chain-adjacent check nodes, closing a
    // 4-cycle with the parity bit between them.
    for (std::size_t g = 0; g < tables.rows.size(); ++g) {
        const auto& row = tables.rows[g];
        for (std::size_t a = 0; a < row.size(); ++a) {
            for (std::size_t b = a + 1; b < row.size(); ++b) {
                const auto d = static_cast<long long>(row[a]) - static_cast<long long>(row[b]);
                const long long dm = ((d % m) + m) % m;
                if (dm == 1 || dm == m - 1)
                    rep.add("code.girth4-zigzag", Severity::Error,
                            entry_loc(g, b, row[b]),
                            "chain-adjacent to entry " + std::to_string(a) + " (x=" +
                                std::to_string(row[a]) + "): 4-cycle through parity bit",
                            "keep per-row addresses at chain distance >= 2");
            }
        }
    }

    return rep;
}

Report lint_code_structure(const code::CodeParams& params) {
    return lint_code_structure(params, code::generate_tables(params));
}

}  // namespace dvbs2::analysis
