// Abstract interpreter and independent certificate checker for per-event
// fixed-point range certification (see absint.hpp for the domain design).
//
// File layout: the interpreter (firing scanner, transfer functions,
// fixpoint driver, annotation pass) sits in the anonymous namespace up
// top; the checker at the bottom is a deliberately separate implementation
// that recomputes every transfer from the certificate's claims — the two
// halves share the trace format and nothing else, so a bug in one is
// caught by the other (translation validation).
#include "analysis/ir/absint.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstddef>
#include <map>

#include "util/error.hpp"

namespace dvbs2::analysis::ir {

namespace {

/// All bound arithmetic is clamped here: large enough that no legal
/// configuration ever reaches it, small enough that sums of a full check
/// row (<= 41 terms) and the x16 normalization product cannot overflow a
/// long long. A word stuck at kTop reads as an overflow against any real
/// capacity, which is exactly what widening wants.
constexpr long long kTop = 1LL << 56;

long long cap_top(long long v) { return v > kTop ? kTop : v; }

/// Stage capacities, by stable stage name. The wide stages live in the
/// accumulator word; channel-quantize and finalize-offset land in a stored
/// message word.
long long stage_capacity(const std::string& stage, const AbsintSpec& spec) {
    if (stage == "channel-quantize" || stage == "finalize-offset") return spec.max_raw;
    return spec.wide_capacity;
}

// --------------------------------------------------------------------------
// Interpreter
// --------------------------------------------------------------------------

/// One firing: a maximal run of events sharing (iter, phase, unit, step).
struct Firing {
    std::size_t begin = 0;
    std::size_t end = 0;
};

std::vector<Firing> scan_firings(const Trace& t) {
    std::vector<Firing> out;
    const auto& ev = t.events;
    std::size_t i = 0;
    while (i < ev.size()) {
        std::size_t j = i + 1;
        while (j < ev.size() && ev[j].iter == ev[i].iter && ev[j].phase == ev[i].phase &&
               ev[j].unit == ev[i].unit && ev[j].step == ev[i].step)
            ++j;
        out.push_back({i, j});
        i = j;
    }
    return out;
}

/// Abstract state: per-word magnitude bound, plus — for the layered
/// sum-shape accumulator domain — the bound each contribution word last
/// folded into its posterior total (invariant: bound(post) = channel +
/// sum of folded contributions over the node's edges).
struct AbsState {
    std::array<std::vector<long long>, kSpaceCount> word;
    std::array<std::vector<long long>, kSpaceCount> folded;

    bool same_as(const AbsState& o) const { return word == o.word && folded == o.folded; }
};

/// Real decoder initial values, abstracted: message, zigzag, MAP and
/// snapshot words start at zero (no check or variable update has run), the
/// layered posterior totals start at the bare channel with no contribution
/// folded. The fixpoint S* dominates this state (messages are >= 0 bounds,
/// posterior bounds are channel + non-negative folded sums), which is what
/// makes annotating every iteration from S* sound for a run of any length.
AbsState initial_state(const Trace& t, const AbsintSpec& spec) {
    AbsState st;
    for (int s = 0; s < kSpaceCount; ++s) {
        const bool posterior = static_cast<Space>(s) == Space::PostInfo ||
                               static_cast<Space>(s) == Space::PostParity;
        st.word[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(t.space_size[static_cast<std::size_t>(s)]),
            posterior ? spec.channel_clamp : 0);
        st.folded[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(t.space_size[static_cast<std::size_t>(s)]), 0);
    }
    return st;
}

/// Named-stage accumulator: tracks the peak (with its event) and the first
/// event at which the stage exceeded its capacity.
struct StageAcc {
    const AbsintSpec* spec = nullptr;
    std::vector<StageBound> stages;
    std::int64_t first_bad_event = -1;
    std::string first_bad_stage;

    void see(const char* name, long long worst, std::int64_t event) {
        worst = cap_top(worst);
        const long long capacity = stage_capacity(name, *spec);
        if (worst > capacity && first_bad_event < 0) {
            first_bad_event = event;
            first_bad_stage = name;
        }
        for (StageBound& s : stages)
            if (s.stage == name) {
                if (worst > s.worst) {
                    s.worst = worst;
                    s.event = event;
                }
                return;
            }
        stages.push_back(StageBound{name, worst, capacity, event});
    }
};

/// Shared context of one interpretation pass. `annot` is null during
/// fixpointing and set during the annotation pass, where every event
/// records the bound it writes (Def) or observes (Use/Sink).
struct Interp {
    const Trace& trace;
    const AbsintSpec& spec;
    AbsState& st;
    StageAcc* stages = nullptr;
    std::vector<long long>* annot = nullptr;
    int parity_unit_base = 0;

    long long rd(std::size_t ei) const {
        const Event& e = trace.events[ei];
        return st.word[static_cast<std::size_t>(e.space)][static_cast<std::size_t>(e.index)];
    }
    void observe(std::size_t ei) {
        if (annot) (*annot)[ei] = rd(ei);
    }
    void wr(std::size_t ei, long long v) {
        v = cap_top(v);
        const Event& e = trace.events[ei];
        st.word[static_cast<std::size_t>(e.space)][static_cast<std::size_t>(e.index)] = v;
        if (annot) (*annot)[ei] = v;
    }
    void stage(const char* name, long long worst, std::size_t ei) {
        if (stages) stages->see(name, worst, static_cast<std::int64_t>(ei));
    }
};

long long second_smallest(const std::vector<long long>& v) {
    long long m1 = kTop, m2 = kTop;
    for (long long x : v) {
        if (x < m1) {
            m2 = m1;
            m1 = x;
        } else if (x < m2) {
            m2 = x;
        }
    }
    return m2;
}

/// Bound on a check node's strongest output: every output combines all
/// inputs but its own, so the worst case over outputs excludes the
/// smallest input — second_min for the min rules, plus the correction-LUT
/// peak (pre-saturation) for the exact rule. An empty combine is the
/// boxplus identity, which saturates.
long long combine_all_but_one(Interp& in, const std::vector<long long>& inputs,
                              std::size_t stage_event) {
    const AbsintSpec& spec = in.spec;
    long long presat;
    if (inputs.size() <= 1) {
        presat = spec.max_raw;
    } else {
        presat = second_smallest(inputs);
        if (spec.rule == core::CheckRule::Exact) presat = cap_top(presat + spec.corr_peak);
    }
    in.stage("cn-combine", presat, stage_event);
    return std::min(presat, spec.max_raw);
}

/// Finalize step of the check-node update (FixedArith::finalize). The offset
/// rule's result is deliberately NOT capped at max_raw: a negative offset
/// grows messages past the quantizer bound, and the stored-word capacity
/// check is what reports it.
long long finalize_bound(Interp& in, long long comb, std::size_t stage_event) {
    const AbsintSpec& spec = in.spec;
    switch (spec.rule) {
        case core::CheckRule::Exact:
        case core::CheckRule::MinSum: return comb;
        case core::CheckRule::NormalizedMinSum: {
            const long long pre = cap_top(comb * std::llabs(spec.norm_num) + 8);
            in.stage("finalize-normalize", pre, stage_event);
            return std::min(pre >> 4, spec.max_raw);
        }
        case core::CheckRule::OffsetMinSum: {
            const long long val = spec.offset_raw >= 0
                                      ? std::max(0LL, comb - spec.offset_raw)
                                      : cap_top(comb - spec.offset_raw);
            in.stage("finalize-offset", val, stage_event);
            return val;
        }
    }
    return comb;
}

void split_events(const Trace& t, const Firing& f, std::vector<std::size_t>& uses,
                  std::vector<std::size_t>& defs, std::vector<std::size_t>& sinks) {
    uses.clear();
    defs.clear();
    sinks.clear();
    for (std::size_t i = f.begin; i < f.end; ++i) {
        switch (t.events[i].access) {
            case Access::Use: uses.push_back(i); break;
            case Access::Def: defs.push_back(i); break;
            case Access::Sink: sinks.push_back(i); break;
        }
    }
}

/// Posterior hardening: the sinks of one firing, grouped by word index,
/// are the down/up (or fwd/up) pair of one parity bit; its posterior is
/// channel + the pair.
void sink_posteriors(Interp& in, const std::vector<std::size_t>& sinks) {
    std::map<std::int32_t, std::pair<long long, std::size_t>> groups;
    for (std::size_t ei : sinks) {
        in.observe(ei);
        const Event& e = in.trace.events[ei];
        auto [it, fresh] = groups.try_emplace(e.index, std::make_pair(0LL, ei));
        it->second.first = cap_top(it->second.first + in.rd(ei));
        if (fresh) it->second.second = ei;
    }
    for (const auto& [index, acc] : groups) {
        (void)index;
        in.stage("parity-posterior", cap_top(in.spec.channel_clamp + acc.first), acc.second);
    }
}

/// Eq. 4 information-node update.
void fire_variable(Interp& in, const std::vector<std::size_t>& uses,
                   const std::vector<std::size_t>& defs) {
    const AbsintSpec& spec = in.spec;
    long long sum = 0;
    for (std::size_t u : uses) {
        in.observe(u);
        sum = cap_top(sum + in.rd(u));
    }
    const std::size_t mark = defs.empty() ? (uses.empty() ? 0 : uses.front()) : defs.front();
    in.stage("vn-accumulate", cap_top(spec.channel_clamp + sum), mark);
    for (std::size_t k = 0; k < defs.size(); ++k) {
        const long long excl = k < uses.size() ? in.rd(uses[k]) : 0;
        const long long pre = cap_top(spec.channel_clamp + sum - excl);
        in.stage("vn-extrinsic", pre, defs[k]);
        in.wr(defs[k], std::min(pre, spec.max_raw));
    }
}

/// Flooding parity-node firing: pn_a = sat(ch + up), pn_c = sat(ch + down).
void fire_parity_node(Interp& in, const std::vector<std::size_t>& uses,
                      const std::vector<std::size_t>& defs) {
    const AbsintSpec& spec = in.spec;
    long long up = 0, down = 0;
    for (std::size_t u : uses) {
        in.observe(u);
        (in.trace.events[u].space == Space::ZigzagBwd ? up : down) = in.rd(u);
    }
    for (std::size_t d : defs) {
        const Event& e = in.trace.events[d];
        const long long partner = e.space == Space::ZigzagFwd ? up : down;
        const long long pre = cap_top(spec.channel_clamp + partner);
        in.stage("zigzag-chain-add", pre, d);
        in.wr(d, std::min(pre, spec.max_raw));
    }
}

/// Check-node firing of every non-layered schedule, including the MAP
/// forward sweep (whose only def is the recursion word). Parity-side
/// inputs are stored pn values under the flooding schedule and chain
/// wire-adds (sat(ch + stored)) under the zigzag family.
void fire_check(Interp& in, const std::vector<std::size_t>& uses,
                const std::vector<std::size_t>& defs) {
    const AbsintSpec& spec = in.spec;
    const std::size_t mark = defs.empty() ? (uses.empty() ? 0 : uses.front()) : defs.front();

    std::vector<long long> inputs;
    inputs.reserve(uses.size());
    for (std::size_t u : uses) {
        in.observe(u);
        const long long b = in.rd(u);
        if (in.trace.events[u].space == Space::MsgWord ||
            in.trace.schedule == core::Schedule::TwoPhase) {
            inputs.push_back(b);
        } else {
            const long long pre = cap_top(spec.channel_clamp + b);
            in.stage("zigzag-chain-add", pre, u);
            inputs.push_back(std::min(pre, spec.max_raw));
        }
    }

    const long long comb = combine_all_but_one(in, inputs, mark);
    const long long fin = finalize_bound(in, comb, mark);
    for (std::size_t d : defs) in.wr(d, fin);
}

/// Layered firing: gathers are posterior-minus-contribution (bounded via
/// the sum-shape invariant), fresh extrinsics fold back as replacement of
/// the edge's previous contribution. Event pairing follows trace.cpp: a
/// posterior Use immediately precedes its contribution-word Use, a
/// posterior Def immediately follows its contribution-word Def.
void fire_layered(Interp& in, const std::vector<std::size_t>& uses,
                  const std::vector<std::size_t>& defs) {
    const AbsintSpec& spec = in.spec;
    auto is_post = [](Space s) { return s == Space::PostInfo || s == Space::PostParity; };

    std::vector<long long> inputs;
    for (std::size_t k = 0; k < uses.size(); ++k) {
        const Event& e = in.trace.events[uses[k]];
        in.observe(uses[k]);
        if (!is_post(e.space)) {
            // unpaired contribution word (canonical dims carry no PostInfo
            // words): the gathered input is still narrowed, so saturate.
            inputs.push_back(spec.max_raw);
            continue;
        }
        DVBS2_REQUIRE(k + 1 < uses.size(), "layered posterior use lacks its contribution");
        const Event& ce = in.trace.events[uses[k + 1]];
        in.observe(uses[k + 1]);
        const long long folded =
            in.st.folded[static_cast<std::size_t>(ce.space)][static_cast<std::size_t>(ce.index)];
        const long long pre = cap_top(in.rd(uses[k]) - folded);
        in.stage("layered-gather", pre, uses[k]);
        inputs.push_back(std::min(pre, spec.max_raw));
        ++k;  // the contribution use is consumed by this pair
    }

    const std::size_t mark = defs.empty() ? uses.front() : defs.front();
    const long long fresh = finalize_bound(in, combine_all_but_one(in, inputs, mark), mark);

    for (std::size_t k = 0; k < defs.size(); ++k) {
        const Event& ce = in.trace.events[defs[k]];
        DVBS2_REQUIRE(!is_post(ce.space), "layered posterior def lacks its contribution");
        const bool paired =
            k + 1 < defs.size() && is_post(in.trace.events[defs[k + 1]].space);
        if (!paired) {  // unpaired contribution word (canonical dims)
            in.wr(defs[k], fresh);
            continue;
        }
        const Event& pe = in.trace.events[defs[k + 1]];
        long long& folded =
            in.st.folded[static_cast<std::size_t>(ce.space)][static_cast<std::size_t>(ce.index)];
        const long long post =
            in.st.word[static_cast<std::size_t>(pe.space)][static_cast<std::size_t>(pe.index)];
        in.wr(defs[k], fresh);
        const long long post_new = cap_top(post - folded + fresh);
        folded = fresh;
        in.wr(defs[k + 1], post_new);
        in.stage("layered-posterior", post_new, defs[k + 1]);
        ++k;
    }
}

void fire(Interp& in, const Firing& f) {
    const Trace& t = in.trace;
    const Event& head = t.events[f.begin];
    std::vector<std::size_t> uses, defs, sinks;
    split_events(t, f, uses, defs, sinks);

    if (t.schedule == core::Schedule::Layered) {
        fire_layered(in, uses, defs);
        return;
    }
    // Segmented boundary snapshot: a plain copy into the per-FU register.
    if (defs.size() == 1 && t.events[defs.front()].space == Space::UpSnapshot) {
        for (std::size_t u : uses) in.observe(u);
        in.wr(defs.front(), uses.empty() ? 0 : in.rd(uses.front()));
        return;
    }
    if (head.phase == 0) {
        if (head.unit >= in.parity_unit_base)
            fire_parity_node(in, uses, defs);
        else
            fire_variable(in, uses, defs);
    } else {
        fire_check(in, uses, defs);
    }
    sink_posteriors(in, sinks);
}

void interpret(Interp& in, const std::vector<Firing>& firings, std::size_t begin,
               std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fire(in, firings[i]);
}

int parity_unit_base_of(const Trace& t) {
    return t.dims.m() + (t.dims.edge_variable.empty() ? static_cast<int>(t.dims.e_in())
                                                      : t.dims.num_info_nodes);
}

}  // namespace

long long space_capacity(Space s, const AbsintSpec& spec) {
    if (s == Space::PostInfo || s == Space::PostParity) return spec.wide_capacity;
    return spec.max_raw;
}

RangeCertificate certify_ranges(const Trace& trace, const AbsintSpec& spec) {
    DVBS2_REQUIRE(spec.max_raw >= 1 && spec.channel_clamp >= 0,
                  "absint spec needs channel_clamp >= 0 and max_raw >= 1");
    // the channel is quantized, so it cannot exceed the word bound
    DVBS2_REQUIRE(spec.channel_clamp <= spec.max_raw,
                  "channel clamp exceeds the quantizer bound");
    DVBS2_REQUIRE(spec.wide_capacity >= spec.max_raw, "wide capacity below message bound");
    DVBS2_REQUIRE(static_cast<int>(trace.space_size.size()) == kSpaceCount,
                  "trace space table malformed");

    RangeCertificate cert;
    cert.schedule = trace.schedule;
    cert.spec = spec;

    const std::vector<Firing> firings = scan_firings(trace);
    std::size_t block_end = firings.size();  // firings of iteration 0
    for (std::size_t i = 0; i < firings.size(); ++i)
        if (trace.events[firings[i].begin].iter != 0) {
            block_end = i;
            break;
        }

    // --- fixpoint over the first iteration block ---
    AbsState st = initial_state(trace, spec);
    Interp in{trace, spec, st, nullptr, nullptr, parity_unit_base_of(trace)};
    constexpr int kWidenAfter = 8;
    constexpr int kMaxRounds = 64;
    for (;;) {
        ++cert.fixpoint_rounds;
        AbsState prev = st;
        interpret(in, firings, 0, block_end);
        if (st.same_as(prev)) break;
        if (cert.fixpoint_rounds >= kWidenAfter) {
            // widen every still-moving word to top; kTop is absorbing under
            // all transfers, so the next round closes.
            for (int s = 0; s < kSpaceCount; ++s)
                for (std::size_t w = 0; w < st.word[static_cast<std::size_t>(s)].size(); ++w)
                    if (st.word[static_cast<std::size_t>(s)][w] !=
                        prev.word[static_cast<std::size_t>(s)][w]) {
                        st.word[static_cast<std::size_t>(s)][w] = kTop;
                        ++cert.widenings;
                    }
        }
        DVBS2_REQUIRE(cert.fixpoint_rounds < kMaxRounds,
                      "range fixpoint failed to close after widening");
    }

    // --- annotation pass over the whole trace from the fixpoint state ---
    // S* covers the real initial state, so the recorded bounds hold for
    // every iteration of any run length, and the final block's annotations
    // are stationary (what the checker's closure replay verifies).
    cert.event_bound.assign(trace.events.size(), 0);
    StageAcc acc;
    acc.spec = &spec;
    acc.see("channel-quantize", spec.channel_clamp, -1);
    in.stages = &acc;
    in.annot = &cert.event_bound;
    interpret(in, firings, 0, firings.size());

    cert.space_bound.assign(kSpaceCount, 0);
    std::int64_t first_space_bad = -1;
    Space first_space_bad_space{};
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        const Event& e = trace.events[i];
        const int s = static_cast<int>(e.space);
        cert.space_bound[static_cast<std::size_t>(s)] =
            std::max(cert.space_bound[static_cast<std::size_t>(s)], cert.event_bound[i]);
        if (first_space_bad < 0 && cert.event_bound[i] > space_capacity(e.space, spec)) {
            first_space_bad = static_cast<std::int64_t>(i);
            first_space_bad_space = e.space;
        }
    }

    cert.stages = acc.stages;
    std::sort(cert.stages.begin(), cert.stages.end(),
              [](const StageBound& a, const StageBound& b) { return a.stage < b.stage; });

    cert.ok = first_space_bad < 0 && acc.first_bad_event < 0;
    for (const StageBound& s : cert.stages)
        if (!s.fits()) cert.ok = false;
    if (!cert.ok) {
        // the exact first offending event, in trace order; a static stage
        // violation (event -1) only wins when nothing dynamic fired first.
        const bool stage_first =
            acc.first_bad_event >= 0 &&
            (first_space_bad < 0 || acc.first_bad_event <= first_space_bad);
        if (stage_first || first_space_bad < 0) {
            cert.first_offender = acc.first_bad_event;
            cert.offender_stage = acc.first_bad_stage;
        } else {
            cert.first_offender = first_space_bad;
            cert.offender_stage = std::string("stored word of ") + to_string(first_space_bad_space);
        }
    }
    return cert;
}

// --------------------------------------------------------------------------
// Independent checker. Everything below re-derives the firing structure
// and transfer math from scratch against the certificate's CLAIMS: a def's
// claimed bound must contain the transfer output recomputed from the
// claimed bounds of its inputs, a use's claim must contain the claim the
// reaching def left in the word, capacities must hold, and replaying the
// final iteration block from the end state must keep every claim valid
// (post-fixpoint closure; transfers are monotone in their inputs, so
// closure at the final block extends the bounds to any iteration count).
// --------------------------------------------------------------------------

namespace {

struct Replay {
    const Trace& trace;
    const AbsintSpec& spec;
    const RangeCertificate& cert;
    std::array<std::vector<long long>, kSpaceCount> claim;    // current word claims
    std::array<std::vector<long long>, kSpaceCount> contrib;  // layered folded claims
    // the checker's own sum-shape model of the layered posterior totals
    // (channel + folded contribution claims); recomputing the fold from the
    // posterior's *claim* would double-count, because the fixpoint claim
    // already includes every contribution
    std::array<std::vector<long long>, kSpaceCount> post_model;
    std::map<std::string, long long> stage_peak;              // recomputed stage maxima
    std::int64_t first_violation = -1;                        // capacity, in trace order
    std::string first_violation_what;
    std::optional<RangeRejection> rejection;                  // claim inconsistency

    void reject(const std::string& reason, std::int64_t ev) {
        if (!rejection) rejection = RangeRejection{reason, ev};
    }
    void violation(const std::string& what, std::int64_t ev) {
        if (first_violation < 0) {
            first_violation = ev;
            first_violation_what = what;
        }
    }
    void stage_hit(const std::string& name, long long value, std::int64_t ev) {
        value = cap_top(value);
        auto [it, inserted] = stage_peak.try_emplace(name, value);
        if (!inserted) it->second = std::max(it->second, value);
        if (value > stage_capacity(name, spec)) violation("stage " + name, ev);
    }
};

long long replay_second_min(const std::vector<long long>& v) {
    if (v.size() < 2) return v.empty() ? kTop : v.front();
    std::vector<long long> c = v;
    std::nth_element(c.begin(), c.begin() + 1, c.end());
    return c[1];
}

long long replay_finalize(Replay& r, long long comb, std::int64_t ev) {
    switch (r.spec.rule) {
        case core::CheckRule::Exact:
        case core::CheckRule::MinSum: return comb;
        case core::CheckRule::NormalizedMinSum: {
            const long long pre = cap_top(comb * std::llabs(r.spec.norm_num) + 8);
            r.stage_hit("finalize-normalize", pre, ev);
            return std::min(pre >> 4, r.spec.max_raw);
        }
        case core::CheckRule::OffsetMinSum: {
            const long long val = r.spec.offset_raw >= 0
                                      ? std::max(0LL, comb - r.spec.offset_raw)
                                      : cap_top(comb - r.spec.offset_raw);
            r.stage_hit("finalize-offset", val, ev);
            return val;
        }
    }
    return comb;
}

/// Recomputes the def bounds of one firing from the claimed use bounds.
/// `claim_of(ei)` is the bound the replay charges event ei with (the
/// certificate's claim in the main walk, and again in the closure walk).
/// Returns per-def recomputed outputs aligned with `defs`.
std::vector<long long> replay_firing_defs(Replay& r, const std::vector<std::size_t>& uses,
                                          const std::vector<std::size_t>& defs,
                                          int parity_base) {
    const Trace& t = r.trace;
    const AbsintSpec& spec = r.spec;
    std::vector<long long> out(defs.size(), 0);
    if (defs.empty()) return out;
    const Event& head = t.events[defs.front()];
    auto uclaim = [&](std::size_t ei) {
        return r.claim[static_cast<std::size_t>(t.events[ei].space)]
                      [static_cast<std::size_t>(t.events[ei].index)];
    };
    const std::int64_t mark = static_cast<std::int64_t>(defs.front());

    // segmented boundary snapshot: plain copy
    if (defs.size() == 1 && head.space == Space::UpSnapshot) {
        out[0] = uses.empty() ? 0 : uclaim(uses.front());
        return out;
    }

    if (t.schedule == core::Schedule::Layered) {
        std::vector<long long> inputs;
        for (std::size_t k = 0; k < uses.size(); ++k) {
            const Event& e = t.events[uses[k]];
            if (e.space != Space::PostInfo && e.space != Space::PostParity) {
                inputs.push_back(spec.max_raw);  // unpaired word, narrowed input
                continue;
            }
            if (k + 1 >= uses.size()) {
                r.reject("layered posterior use without contribution",
                         static_cast<std::int64_t>(uses[k]));
                return out;
            }
            const Event& ce = t.events[uses[k + 1]];
            const long long folded = r.contrib[static_cast<std::size_t>(ce.space)]
                                              [static_cast<std::size_t>(ce.index)];
            // gather from the checker's own sum-shape model of the posterior:
            // the word's fixpoint claim already includes contributions this
            // walk has not folded yet, so claim - folded would over-count
            const long long model = r.post_model[static_cast<std::size_t>(e.space)]
                                                [static_cast<std::size_t>(e.index)];
            const long long pre = cap_top(model - folded);
            r.stage_hit("layered-gather", pre, static_cast<std::int64_t>(uses[k]));
            inputs.push_back(std::min(pre, spec.max_raw));
            ++k;
        }
        long long presat = inputs.size() <= 1 ? spec.max_raw : replay_second_min(inputs);
        if (inputs.size() > 1 && spec.rule == core::CheckRule::Exact)
            presat = cap_top(presat + spec.corr_peak);
        r.stage_hit("cn-combine", presat, mark);
        const long long fresh = replay_finalize(r, std::min(presat, spec.max_raw), mark);
        for (std::size_t k = 0; k < defs.size(); ++k) {
            const Event& ce = t.events[defs[k]];
            if (ce.space == Space::PostInfo || ce.space == Space::PostParity) {
                r.reject("layered def pairing malformed", static_cast<std::int64_t>(defs[k]));
                return out;
            }
            const bool post_next =
                k + 1 < defs.size() && (t.events[defs[k + 1]].space == Space::PostInfo ||
                                        t.events[defs[k + 1]].space == Space::PostParity);
            if (!post_next) {  // unpaired contribution word
                out[k] = fresh;
                continue;
            }
            const Event& pe = t.events[defs[k + 1]];
            long long& folded = r.contrib[static_cast<std::size_t>(ce.space)]
                                         [static_cast<std::size_t>(ce.index)];
            long long& model = r.post_model[static_cast<std::size_t>(pe.space)]
                                           [static_cast<std::size_t>(pe.index)];
            out[k] = fresh;
            // fold the contribution's CLAIM (already verified to contain
            // `fresh` by the caller) so the model stays sound end-to-end
            const long long folded_claim = r.cert.event_bound[defs[k]];
            model = cap_top(model - folded + folded_claim);
            folded = folded_claim;
            out[k + 1] = model;
            r.stage_hit("layered-posterior", model, static_cast<std::int64_t>(defs[k + 1]));
            ++k;
        }
        return out;
    }

    if (head.phase == 0 && head.unit >= parity_base) {  // flooding parity node
        long long up = 0, down = 0;
        for (std::size_t u : uses)
            (t.events[u].space == Space::ZigzagBwd ? up : down) = uclaim(u);
        for (std::size_t k = 0; k < defs.size(); ++k) {
            const long long partner = t.events[defs[k]].space == Space::ZigzagFwd ? up : down;
            const long long pre = cap_top(spec.channel_clamp + partner);
            r.stage_hit("zigzag-chain-add", pre, static_cast<std::int64_t>(defs[k]));
            out[k] = std::min(pre, spec.max_raw);
        }
        return out;
    }

    if (head.phase == 0) {  // information-node update
        long long sum = 0;
        for (std::size_t u : uses) sum = cap_top(sum + uclaim(u));
        r.stage_hit("vn-accumulate", cap_top(spec.channel_clamp + sum), mark);
        for (std::size_t k = 0; k < defs.size(); ++k) {
            const long long excl = k < uses.size() ? uclaim(uses[k]) : 0;
            const long long pre = cap_top(spec.channel_clamp + sum - excl);
            r.stage_hit("vn-extrinsic", pre, static_cast<std::int64_t>(defs[k]));
            out[k] = std::min(pre, spec.max_raw);
        }
        return out;
    }

    // check-node firing (incl. the MAP forward sweep)
    std::vector<long long> inputs;
    for (std::size_t u : uses) {
        const long long b = uclaim(u);
        if (t.events[u].space == Space::MsgWord || t.schedule == core::Schedule::TwoPhase) {
            inputs.push_back(b);
        } else {
            const long long pre = cap_top(spec.channel_clamp + b);
            r.stage_hit("zigzag-chain-add", pre, static_cast<std::int64_t>(u));
            inputs.push_back(std::min(pre, spec.max_raw));
        }
    }
    long long presat = inputs.size() <= 1 ? spec.max_raw : replay_second_min(inputs);
    if (inputs.size() > 1 && spec.rule == core::CheckRule::Exact)
        presat = cap_top(presat + spec.corr_peak);
    r.stage_hit("cn-combine", presat, mark);
    const long long fin = replay_finalize(r, std::min(presat, spec.max_raw), mark);
    for (std::size_t k = 0; k < defs.size(); ++k) out[k] = fin;
    return out;
}

/// Walks one firing in the main replay: verifies use/sink claims contain
/// the reaching-def claim, def claims contain the recomputed transfers,
/// tracks capacities, and commits def claims into the word state.
void replay_walk_firing(Replay& r, std::size_t fb, std::size_t fe, int parity_base) {
    const Trace& t = r.trace;
    std::vector<std::size_t> uses, defs, sinks;
    for (std::size_t i = fb; i < fe; ++i) {
        switch (t.events[i].access) {
            case Access::Use: uses.push_back(i); break;
            case Access::Def: defs.push_back(i); break;
            case Access::Sink: sinks.push_back(i); break;
        }
    }
    auto word_claim = [&](std::size_t ei) -> long long& {
        return r.claim[static_cast<std::size_t>(t.events[ei].space)]
                      [static_cast<std::size_t>(t.events[ei].index)];
    };
    for (std::size_t u : uses)
        if (r.cert.event_bound[u] < word_claim(u))
            r.reject("use claim below the reaching def's claim", static_cast<std::int64_t>(u));

    const std::vector<long long> recomputed = replay_firing_defs(r, uses, defs, parity_base);
    for (std::size_t k = 0; k < defs.size(); ++k) {
        const std::size_t d = defs[k];
        if (r.cert.event_bound[d] < recomputed[k])
            r.reject("def claim below the recomputed transfer bound",
                     static_cast<std::int64_t>(d));
        if (r.cert.event_bound[d] > space_capacity(t.events[d].space, r.spec))
            r.violation(std::string("stored word of ") + to_string(t.events[d].space),
                        static_cast<std::int64_t>(d));
        word_claim(d) = r.cert.event_bound[d];
    }

    // posterior-hardening sinks: claims must contain the word claim, and
    // the per-parity posterior (channel + sunk pair) must fit the wide word
    std::map<std::int32_t, long long> groups;
    for (std::size_t s : sinks) {
        if (r.cert.event_bound[s] < word_claim(s))
            r.reject("sink claim below the reaching def's claim", static_cast<std::int64_t>(s));
        groups[t.events[s].index] = cap_top(groups[t.events[s].index] + word_claim(s));
    }
    for (std::size_t s : sinks) {
        auto it = groups.find(t.events[s].index);
        if (it == groups.end()) continue;
        r.stage_hit("parity-posterior", cap_top(r.spec.channel_clamp + it->second),
                    static_cast<std::int64_t>(s));
        groups.erase(it);
    }
}

}  // namespace

RangeCheck check_range_certificate(const Trace& trace, const AbsintSpec& spec,
                                   const RangeCertificate& cert) {
    auto fail = [](std::string reason, std::int64_t ev = -1) {
        return RangeCheck{false, RangeRejection{std::move(reason), ev}};
    };
    if (cert.schedule != trace.schedule) return fail("certificate is for another schedule");
    if (cert.event_bound.size() != trace.events.size())
        return fail("event-bound table does not match the trace");
    if (cert.space_bound.size() != static_cast<std::size_t>(kSpaceCount))
        return fail("space-bound table malformed");

    Replay r{trace, spec, cert, {}, {}, {}, {}, -1, {}, std::nullopt};
    for (int s = 0; s < kSpaceCount; ++s) {
        // real inits: zero message/zigzag/recursion words, channel-valued
        // posterior totals (re-derived here, independent of the interpreter)
        const bool posterior = static_cast<Space>(s) == Space::PostInfo ||
                               static_cast<Space>(s) == Space::PostParity;
        r.claim[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(trace.space_size[static_cast<std::size_t>(s)]),
            posterior ? spec.channel_clamp : 0);
        r.contrib[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(trace.space_size[static_cast<std::size_t>(s)]), 0);
        r.post_model[static_cast<std::size_t>(s)].assign(
            static_cast<std::size_t>(trace.space_size[static_cast<std::size_t>(s)]),
            spec.channel_clamp);
    }
    const int parity_base =
        trace.dims.m() + (trace.dims.edge_variable.empty()
                              ? static_cast<int>(trace.dims.e_in())
                              : trace.dims.num_info_nodes);

    // main walk, firing by firing
    std::size_t i = 0;
    std::size_t last_block_begin = 0;
    const std::int16_t last_iter =
        trace.events.empty() ? 0 : trace.events[trace.events.size() - 1].iter;
    while (i < trace.events.size()) {
        std::size_t j = i + 1;
        while (j < trace.events.size() && trace.events[j].iter == trace.events[i].iter &&
               trace.events[j].phase == trace.events[i].phase &&
               trace.events[j].unit == trace.events[i].unit &&
               trace.events[j].step == trace.events[i].step)
            ++j;
        if (trace.events[i].iter == last_iter && last_block_begin == 0 && last_iter != 0)
            last_block_begin = i;
        replay_walk_firing(r, i, j, parity_base);
        if (r.rejection) return RangeCheck{false, r.rejection};
        i = j;
    }

    // per-space maxima must be claimed
    std::array<long long, kSpaceCount> seen{};
    for (std::size_t e = 0; e < trace.events.size(); ++e) {
        const int s = static_cast<int>(trace.events[e].space);
        seen[static_cast<std::size_t>(s)] =
            std::max(seen[static_cast<std::size_t>(s)], cert.event_bound[e]);
    }
    for (int s = 0; s < kSpaceCount; ++s)
        if (cert.space_bound[static_cast<std::size_t>(s)] < seen[static_cast<std::size_t>(s)])
            return fail(std::string("space bound below its events' claims: ") +
                        to_string(static_cast<Space>(s)));

    // recomputed stage peaks must be covered by the certificate's table
    for (const auto& [name, peak] : r.stage_peak) {
        const StageBound* found = nullptr;
        for (const StageBound& s : cert.stages)
            if (s.stage == name) found = &s;
        if (!found) return fail("certificate lacks stage " + name);
        if (found->worst < peak)
            return fail("stage " + name + " claim below the recomputed peak");
        if (found->capacity != stage_capacity(name, spec))
            return fail("stage " + name + " carries the wrong capacity");
    }

    // post-fixpoint closure: replay the final iteration block once more
    // from the end state; every claim must still contain the recomputed
    // bounds, which (transfers being monotone) extends the certificate to
    // any iteration count.
    i = last_block_begin;
    while (i < trace.events.size()) {
        std::size_t j = i + 1;
        while (j < trace.events.size() && trace.events[j].iter == trace.events[i].iter &&
               trace.events[j].phase == trace.events[i].phase &&
               trace.events[j].unit == trace.events[i].unit &&
               trace.events[j].step == trace.events[i].step)
            ++j;
        replay_walk_firing(r, i, j, parity_base);
        if (r.rejection)
            return fail("claims are not a post-fixpoint: " + r.rejection->reason,
                        r.rejection->event);
        i = j;
    }

    // verdict consistency
    if (cert.ok && r.first_violation >= 0)
        return fail("certificate claims ok but " + r.first_violation_what +
                        " exceeds its capacity",
                    r.first_violation);
    if (!cert.ok) {
        bool stage_overflow = false;
        for (const StageBound& s : cert.stages)
            if (!s.fits()) stage_overflow = true;
        if (r.first_violation < 0 && !stage_overflow)
            return fail("certificate claims overflow but the replay found none");
        // the interpreter annotates every iteration from S*, so its first
        // offender may be EARLIER than the replay's first violation (the
        // replay's iteration-0 inputs are the tighter real inits), but never
        // later, and it must itself violate a capacity at claim level
        if (r.first_violation >= 0 && cert.first_offender > r.first_violation)
            return fail("first offender is later than the replay's first violation",
                        r.first_violation);
        if (cert.first_offender >= 0) {
            const Event& oe = trace.events[static_cast<std::size_t>(cert.first_offender)];
            bool genuine = cert.event_bound[static_cast<std::size_t>(cert.first_offender)] >
                           space_capacity(oe.space, spec);
            for (const StageBound& s : cert.stages)
                if (s.stage == cert.offender_stage && !s.fits()) genuine = true;
            if (!genuine)
                return fail("named first offender does not violate any capacity",
                            cert.first_offender);
        }
    }
    return RangeCheck{true, std::nullopt};
}

// --------------------------------------------------------------------------
// Witness concretizer
// --------------------------------------------------------------------------

RangeWitness concretize_witness(const RangeCertificate& cert) {
    // the all-zero codeword at saturating magnitude: every v2c and c2v pins
    // at the quantizer bound, posteriors at ch + deg*F.
    return RangeWitness{1e6, cert.space_bound};
}

std::vector<double> witness_llrs(const RangeWitness& witness, long long n) {
    DVBS2_REQUIRE(n >= 0, "witness needs a non-negative length");
    return std::vector<double>(static_cast<std::size_t>(n), witness.channel_magnitude);
}

}  // namespace dvbs2::analysis::ir
