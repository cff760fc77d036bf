// Schedule-trace builders: compile each core::Schedule into its def/use
// event sequence. The emission mirrors core/mp_decoder.hpp statement by
// statement, with storage collapsed onto hardware words: both travel
// directions of a zigzag edge share one word (down/pn_a on the (p_j, CN_j)
// edge, up/pn_c on the (p_j, CN_{j+1}) edge), exactly as the flooding
// hardware stores them — which is what lets liveness *derive* the paper's
// 2m-1 (flooding) vs m+1 (zigzag) parity-word footprints instead of
// assuming them.
#include "analysis/ir/ir.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dvbs2::analysis::ir {

const char* to_string(Space s) {
    switch (s) {
        case Space::MsgWord: return "msg-word";
        case Space::ZigzagFwd: return "zigzag-fwd";
        case Space::ZigzagBwd: return "zigzag-bwd";
        case Space::MapFwd: return "map-fwd";
        case Space::UpSnapshot: return "up-snapshot";
        case Space::PostInfo: return "post-info";
        case Space::PostParity: return "post-parity";
    }
    return "?";
}

TraceDims fan_in_trace_dims(int check_in_degree, int info_degree) {
    TraceDims d;
    d.check_in_degree = check_in_degree;
    const long long e = d.e_in();
    d.edge_variable.assign(static_cast<std::size_t>(e), 0);
    std::int32_t next = 1;
    for (long long ed = std::min<long long>(info_degree, e); ed < e; ++ed)
        d.edge_variable[static_cast<std::size_t>(ed)] = next++;
    d.num_info_nodes = next;
    return d;
}

std::string describe_event(const Event& ev) {
    const char* access = ev.access == Access::Def   ? "def"
                         : ev.access == Access::Use ? "use"
                                                    : "sink";
    return std::string(access) + " of " + to_string(ev.space) + "[" + std::to_string(ev.index) +
           "] by unit " + std::to_string(ev.unit) + " (iter " + std::to_string(ev.iter) +
           ", phase " + std::to_string(ev.phase) + ")";
}

namespace {

/// Emission context: current event coordinates plus the output vector.
struct Builder {
    Trace trace;
    std::int16_t iter = 0;
    std::int16_t phase = 0;
    std::int32_t unit = 0;
    std::int16_t lane = -1;
    std::int32_t step = 0;

    void at(std::int32_t u, std::int16_t l, std::int32_t s) {
        unit = u;
        lane = l;
        step = s;
    }
    void emit(Access a, Space sp, long long index) {
        trace.events.push_back(Event{a, sp, static_cast<std::int32_t>(index), iter, phase, unit,
                                     lane, step});
    }
    void def(Space sp, long long i) { emit(Access::Def, sp, i); }
    void use(Space sp, long long i) { emit(Access::Use, sp, i); }
    void sink(Space sp, long long i) { emit(Access::Sink, sp, i); }
};

/// Information-node update (Eq. 4): every message word of the node is read,
/// then every one is written back — the in-place v2c refresh. Without an
/// edge-variable map each word is its own degree-1 node, which preserves
/// every cross-phase dependence the analyses consume.
void emit_variable_phase(Builder& b, const TraceDims& d,
                         const std::vector<std::vector<long long>>& vedges) {
    const int m = d.m();
    const long long e = d.e_in();
    if (!vedges.empty()) {
        for (int v = 0; v < d.num_info_nodes; ++v) {
            b.at(m + v, static_cast<std::int16_t>(v % d.parallelism), v / d.parallelism);
            for (long long ed : vedges[static_cast<std::size_t>(v)]) b.use(Space::MsgWord, ed);
            for (long long ed : vedges[static_cast<std::size_t>(v)]) b.def(Space::MsgWord, ed);
        }
    } else {
        for (long long w = 0; w < e; ++w) {
            b.at(static_cast<std::int32_t>(m + w), -1, static_cast<std::int32_t>(w));
            b.use(Space::MsgWord, w);
            b.def(Space::MsgWord, w);
        }
    }
}

/// Flooding parity-node update: parity node j reads the c2v values of its
/// two edge words (up_j, down_j) and overwrites them with its v2c replies
/// (pn_a_j = ch+up into the forward word, pn_c_j = ch+down into the
/// backward word). Keeping both directions in one word per edge is legal
/// here because each word is read exactly once before its in-place rewrite.
void emit_two_phase_parity_nodes(Builder& b, const TraceDims& d, int unit_base) {
    const int m = d.m();
    for (int j = 0; j < m; ++j) {
        b.at(unit_base + j, -1, j);
        if (j < m - 1) {
            b.use(Space::ZigzagBwd, j);  // up_j feeds pn_a_j
            b.use(Space::ZigzagFwd, j);  // down_j feeds pn_c_j
        }
        b.def(Space::ZigzagFwd, j);      // pn_a_j (ch only at j = m-1)
        if (j < m - 1) b.def(Space::ZigzagBwd, j);  // pn_c_j
    }
}

void emit_msg_uses(Builder& b, const TraceDims& d, int c) {
    const long long base = static_cast<long long>(c) * d.check_in_degree;
    for (int t = 0; t < d.check_in_degree; ++t) b.use(Space::MsgWord, base + t);
}

void emit_msg_defs(Builder& b, const TraceDims& d, int c) {
    const long long base = static_cast<long long>(c) * d.check_in_degree;
    for (int t = 0; t < d.check_in_degree; ++t) b.def(Space::MsgWord, base + t);
}

/// Flooding check phase (Fig. 2a): every parity input was materialized by
/// the variable phase, so check nodes have no intra-sweep dependences — the
/// whole sweep is one lockstep level (the derivation target).
void emit_check_two_phase(Builder& b, const TraceDims& d) {
    const int m = d.m();
    for (int c = 0; c < m; ++c) {
        b.at(c, static_cast<std::int16_t>(c / d.q), c % d.q);
        emit_msg_uses(b, d, c);
        if (c > 0) b.use(Space::ZigzagBwd, c - 1);  // left input pn_c_{c-1}
        b.use(Space::ZigzagFwd, c);                 // right input pn_a_c
        emit_msg_defs(b, d, c);
        b.def(Space::ZigzagFwd, c);                 // down_c
        if (c > 0) b.def(Space::ZigzagBwd, c - 1);  // up_{c-1}
        // Posterior of p_{c-1} = ch + down_{c-1} + up_{c-1} hardens on the
        // fly, one step after down_{c-1} was produced.
        if (c > 0) {
            b.sink(Space::ZigzagFwd, c - 1);
            b.sink(Space::ZigzagBwd, c - 1);
        }
        if (c == m - 1) b.sink(Space::ZigzagFwd, m - 1);
    }
}

/// Sequential zigzag sweep (Fig. 2b): the forward message is a wire
/// (ch + down_{c-1}, read straight from the word CN c-1 just wrote), so no
/// v2c parity message is ever stored — the storage halving falls out of the
/// liveness analysis over exactly these events.
void emit_check_zigzag_forward(Builder& b, const TraceDims& d) {
    const int m = d.m();
    for (int c = 0; c < m; ++c) {
        b.at(c, static_cast<std::int16_t>(c / d.q), c % d.q);
        emit_msg_uses(b, d, c);
        if (c > 0) b.use(Space::ZigzagFwd, c - 1);      // fresh down_{c-1} (this sweep)
        if (c < m - 1) b.use(Space::ZigzagBwd, c);      // up_c from the previous iteration
        emit_msg_defs(b, d, c);
        b.def(Space::ZigzagFwd, c);
        if (c > 0) b.def(Space::ZigzagBwd, c - 1);
        if (c > 0) {
            b.sink(Space::ZigzagFwd, c - 1);
            b.sink(Space::ZigzagBwd, c - 1);
        }
        if (c == m - 1) b.sink(Space::ZigzagFwd, m - 1);
    }
}

/// Hardware realization of Fig. 2b: P functional units sweep their q-CN
/// segments in lockstep (step-major emission). FU f restarts its forward
/// recursion from the previous iteration's boundary value (the trace order
/// makes that the reaching def — no snapshot needed for down), but the
/// previous iteration's up at a segment boundary *is* snapshotted into a
/// per-FU register at step -1, because the neighbouring FU overwrites the
/// word at step 0 while the owner only consumes it at step q-1.
void emit_check_zigzag_segmented(Builder& b, const TraceDims& d) {
    const int m = d.m();
    const int q = d.q;
    const int p = d.parallelism;
    for (int f = 0; f + 1 < p; ++f) {
        const int boundary = (f + 1) * q - 1;  // last CN of FU f
        b.at(boundary, static_cast<std::int16_t>(f), -1);
        b.use(Space::ZigzagBwd, boundary);
        b.def(Space::UpSnapshot, f);
    }
    for (int s = 0; s < q; ++s) {
        for (int f = 0; f < p; ++f) {
            const int c = f * q + s;
            b.at(c, static_cast<std::int16_t>(f), s);
            emit_msg_uses(b, d, c);
            if (c > 0) b.use(Space::ZigzagFwd, c - 1);
            if (c < m - 1) {
                if (s == q - 1)
                    b.use(Space::UpSnapshot, f);   // neighbour overwrote the word at step 0
                else
                    b.use(Space::ZigzagBwd, c);    // previous iteration's up_c
            }
            emit_msg_defs(b, d, c);
            b.def(Space::ZigzagFwd, c);
            if (c > 0) b.def(Space::ZigzagBwd, c - 1);
            // Posterior of p_j hardens at the first step where both down_j
            // and up_j of this iteration exist: p_{c-1} at step s > 0, and
            // the FU's own last parity p_c at step q-1 (its up was written
            // by the neighbouring FU at step 0).
            if (s > 0) {
                b.sink(Space::ZigzagFwd, c - 1);
                b.sink(Space::ZigzagBwd, c - 1);
            }
            if (s == q - 1) {
                b.sink(Space::ZigzagFwd, c);
                if (c < m - 1) b.sink(Space::ZigzagBwd, c);
            }
        }
    }
}

/// MAP variant: a forward sweep stores the whole recursion (MapFwd), then a
/// backward sweep produces fresh up messages and the c2v outputs. Message
/// words are read twice per iteration (once per sweep) and all m forward
/// words are simultaneously live at the turn-around — both facts surface in
/// the analyses as the cost of the MAP schedule.
void emit_check_zigzag_map(Builder& b, const TraceDims& d) {
    const int m = d.m();
    b.phase = 1;  // "check-forward"
    for (int c = 0; c < m; ++c) {
        b.at(c, static_cast<std::int16_t>(c / d.q), c % d.q);
        emit_msg_uses(b, d, c);
        if (c > 0) b.use(Space::MapFwd, c - 1);
        if (c < m - 1) b.use(Space::ZigzagBwd, c);  // previous iteration's up_c
        b.def(Space::MapFwd, c);
    }
    b.phase = 2;  // "check-backward"
    for (int c = m - 1; c >= 0; --c) {
        b.at(c, static_cast<std::int16_t>(c / d.q), c % d.q);
        emit_msg_uses(b, d, c);
        if (c > 0) b.use(Space::MapFwd, c - 1);
        if (c < m - 1) b.use(Space::ZigzagBwd, c);  // fresh up_c (written by CN c+1)
        emit_msg_defs(b, d, c);
        if (c > 0) b.def(Space::ZigzagBwd, c - 1);
        b.sink(Space::MapFwd, c);                   // posterior down_c = fwd_d_c
        if (c < m - 1) b.sink(Space::ZigzagBwd, c);
    }
}

/// Row-layered sweep: check nodes subtract their previous contribution from
/// the running totals and fold the fresh extrinsics back immediately. The
/// PostParity chain (CN c reads the total CN c-1 just updated) is the
/// sequential dependence that makes the sweep lockstep-illegal.
void emit_layered(Builder& b, const TraceDims& d,
                  const std::vector<std::int32_t>& edge_variable) {
    const int m = d.m();
    const bool grouped = !edge_variable.empty();
    for (int c = 0; c < m; ++c) {
        const long long base = static_cast<long long>(c) * d.check_in_degree;
        b.at(c, static_cast<std::int16_t>(c / d.q), c % d.q);
        for (int t = 0; t < d.check_in_degree; ++t) {
            if (grouped) b.use(Space::PostInfo, edge_variable[static_cast<std::size_t>(base + t)]);
            b.use(Space::MsgWord, base + t);
        }
        if (c > 0) {
            b.use(Space::PostParity, c - 1);
            b.use(Space::ZigzagBwd, c - 1);
        }
        b.use(Space::PostParity, c);
        b.use(Space::ZigzagFwd, c);
        for (int t = 0; t < d.check_in_degree; ++t) {
            b.def(Space::MsgWord, base + t);
            if (grouped) b.def(Space::PostInfo, edge_variable[static_cast<std::size_t>(base + t)]);
        }
        if (c > 0) {
            b.def(Space::ZigzagBwd, c - 1);
            b.def(Space::PostParity, c - 1);
        }
        b.def(Space::ZigzagFwd, c);
        b.def(Space::PostParity, c);
    }
}

}  // namespace

Trace build_schedule_trace(core::Schedule schedule, const TraceDims& dims) {
    DVBS2_REQUIRE(dims.parallelism >= 1 && dims.q >= 1 && dims.check_in_degree >= 1,
                  "trace dims need parallelism, q, check_in_degree >= 1");
    DVBS2_REQUIRE(dims.iterations >= 1, "trace needs at least one iteration");
    const int m = dims.m();
    const long long e = dims.e_in();
    std::vector<std::vector<long long>> vedges;
    if (!dims.edge_variable.empty()) {
        DVBS2_REQUIRE(static_cast<long long>(dims.edge_variable.size()) == e,
                      "edge_variable must have one entry per information edge");
        DVBS2_REQUIRE(dims.num_info_nodes >= 1, "edge_variable needs num_info_nodes");
        vedges.resize(static_cast<std::size_t>(dims.num_info_nodes));
        for (long long ed = 0; ed < e; ++ed) {
            const std::int32_t v = dims.edge_variable[static_cast<std::size_t>(ed)];
            DVBS2_REQUIRE(v >= 0 && v < dims.num_info_nodes,
                          "edge_variable entry out of range");
            vedges[static_cast<std::size_t>(v)].push_back(ed);
        }
    }

    Builder b;
    b.trace.schedule = schedule;
    b.trace.dims = dims;
    b.trace.space_size.assign(kSpaceCount, 0);
    b.trace.space_size[static_cast<int>(Space::MsgWord)] = static_cast<std::int32_t>(e);
    b.trace.space_size[static_cast<int>(Space::ZigzagFwd)] = m;
    b.trace.space_size[static_cast<int>(Space::ZigzagBwd)] = m > 0 ? m - 1 : 0;
    b.trace.space_size[static_cast<int>(Space::MapFwd)] =
        schedule == core::Schedule::ZigzagMap ? m : 0;
    b.trace.space_size[static_cast<int>(Space::UpSnapshot)] =
        schedule == core::Schedule::ZigzagSegmented ? dims.parallelism : 0;
    b.trace.space_size[static_cast<int>(Space::PostInfo)] =
        schedule == core::Schedule::Layered ? dims.num_info_nodes : 0;
    b.trace.space_size[static_cast<int>(Space::PostParity)] =
        schedule == core::Schedule::Layered ? m : 0;

    switch (schedule) {
        case core::Schedule::ZigzagMap:
            b.trace.phase_names = {"variable", "check-forward", "check-backward"};
            break;
        case core::Schedule::Layered: b.trace.phase_names = {"layered"}; break;
        default: b.trace.phase_names = {"variable", "check"}; break;
    }

    const int parity_unit_base =
        m + (vedges.empty() ? static_cast<int>(e) : dims.num_info_nodes);
    for (int it = 0; it < dims.iterations; ++it) {
        b.iter = static_cast<std::int16_t>(it);
        if (schedule == core::Schedule::Layered) {
            b.phase = 0;
            emit_layered(b, dims, dims.edge_variable);
            continue;
        }
        b.phase = 0;
        emit_variable_phase(b, dims, vedges);
        if (schedule == core::Schedule::TwoPhase)
            emit_two_phase_parity_nodes(b, dims, parity_unit_base);
        b.phase = 1;
        switch (schedule) {
            case core::Schedule::TwoPhase: emit_check_two_phase(b, dims); break;
            case core::Schedule::ZigzagForward: emit_check_zigzag_forward(b, dims); break;
            case core::Schedule::ZigzagSegmented: emit_check_zigzag_segmented(b, dims); break;
            case core::Schedule::ZigzagMap: emit_check_zigzag_map(b, dims); break;
            case core::Schedule::Layered: break;  // handled above
        }
    }
    return b.trace;
}

}  // namespace dvbs2::analysis::ir
