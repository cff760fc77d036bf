// Per-event fixed-point range certification: an interval-domain abstract
// interpreter over the schedule dataflow IR (ir.hpp), for the fixed-point
// message-passing datapath.
//
// The interpreter walks the compiled Def/Use/Sink event trace of a schedule
// and maintains, per storage word, a proven magnitude bound (a symmetric
// interval [-b, +b]; every transfer function of the datapath is odd, so
// symmetric intervals lose nothing). Each firing — a maximal run of events
// from one (iteration, phase, unit) — applies the abstract transfer
// function of its node update: Eq. 4 variable-node accumulation and
// per-edge extrinsic subtraction, zigzag chain wire-adds, the check-node
// combine (min for the min-sum rules, min + correction peak for the exact
// boxplus LUT), and the finalize step (normalization's (v*n+8)>>4 or the
// offset subtraction), with saturation at the quantizer bound.
//
// Layered posterior words are the one place plain interval iteration
// diverges (post += new - old grows without bound in the abstract), so they
// use a sum-shape accumulator domain: the bound is maintained as
// channel + sum of per-contribution bounds, and the paired def events of a
// layered firing (contribution word immediately followed by its posterior
// word, as trace.cpp emits them) are interpreted as *replacement* of that
// contribution. The independent checker re-verifies the pairing from the
// event stream.
//
// Iteration blocks are interpreted repeatedly, widening slow-moving words,
// until a fixpoint state S*; the whole trace is then annotated from S*, so
// every event carries a bound valid for ANY iteration count (S* covers the
// real initial state). The result is a RangeCertificate: per-space and
// per-named-stage proven bounds, a bound for every trace event, and the
// exact first offending event when a bound exceeds its capacity.
//
// Following a search -> certificate -> independent-check pattern
// (translation validation), `check_range_certificate` shares no code with the
// interpreter: it replays the claimed bounds event-by-event (recomputing
// every transfer from the claims, enforcing capacities, re-deriving the
// layered pairing) and replays the final iteration block once more to
// confirm S* is closed. A witness concretizer turns the proven peaks into
// an adversarial LLR input that drives the real decoder to the bounds in
// tests (tightness), see tests/test_absint.cpp.
//
// Like the rest of dvbs2_ir this header is below core and quant: the word
// format is passed as plain numbers (AbsintSpec), which core::absint_spec_of
// derives from a quant::QuantSpec (core/engine.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ir/ir.hpp"

namespace dvbs2::analysis::ir {

/// Plain-number description of the fixed-point datapath a trace is
/// certified against. core::absint_spec_of derives it from a
/// quant::QuantSpec plus the DecoderConfig knobs; keeping it numeric keeps
/// dvbs2_ir below dvbs2_quant.
struct AbsintSpec {
    core::CheckRule rule = core::CheckRule::Exact;  ///< check-node combine rule
    long long max_raw = 31;         ///< R: message saturation bound of the quantizer
    long long channel_clamp = 31;   ///< bound on |quantized channel LLR| (<= max_raw)
    long long corr_peak = 0;        ///< exact-rule correction LUT peak, raw units
    long long wide_capacity = 2147483647;  ///< accumulator word capacity
    long long norm_num = 12;        ///< normalized-rule numerator (normalization * 16)
    long long offset_raw = 0;       ///< offset-rule subtrahend, raw units (sign kept)
};

/// One named checkpoint of the abstract run. Stage names are stable
/// identifiers: channel-quantize, vn-accumulate, vn-extrinsic,
/// zigzag-chain-add, parity-posterior, layered-gather, layered-posterior,
/// cn-combine, finalize-normalize and finalize-offset.
struct StageBound {
    std::string stage;
    long long worst = 0;
    long long capacity = 0;
    std::int64_t event = -1;  ///< trace event where the peak occurs (-1 = static)
    bool fits() const noexcept { return worst <= capacity; }
};

/// The interpreter's output: machine-checkable proven bounds for one
/// (trace, AbsintSpec) pair. `event_bound[i]` bounds the value event i
/// writes (Def) or observes (Use/Sink); `space_bound[s]` is the maximum
/// over the space's events; `stages` carries the named checkpoints.
/// On overflow, `first_offender` is the first event (in trace order) whose
/// bound exceeds its capacity and `offender_stage` names the violated
/// stage or storage space.
struct RangeCertificate {
    core::Schedule schedule{};
    AbsintSpec spec;
    bool ok = false;
    std::vector<long long> space_bound;   ///< kSpaceCount entries
    std::vector<long long> event_bound;   ///< one entry per trace event
    std::vector<StageBound> stages;
    std::int64_t first_offender = -1;
    std::string offender_stage;
    int fixpoint_rounds = 0;  ///< abstract iterations until the state closed
    int widenings = 0;        ///< words widened to top during fixpointing
};

/// Storage capacity of a space under `spec` (the quantizer bound for the
/// fixed message words, the wide accumulator capacity for posterior totals).
long long space_capacity(Space s, const AbsintSpec& spec);

/// Runs the abstract interpreter over `trace` and emits the certificate.
/// Never throws on overflow — an unsound configuration yields ok == false
/// with the offender named; throws only on malformed traces.
RangeCertificate certify_ranges(const Trace& trace, const AbsintSpec& spec);

struct RangeRejection {
    std::string reason;
    std::int64_t event = -1;  ///< offending trace event, -1 = certificate-level
};

struct RangeCheck {
    bool ok = false;
    std::optional<RangeRejection> rejection;
};

/// Independent certificate checker (shares no code with certify_ranges):
/// replays `cert` event-by-event against `trace`, recomputing every
/// transfer from the claimed bounds, enforcing space and stage capacities,
/// and re-running the final iteration block to prove the claimed state is
/// a post-fixpoint. Accepts ok certificates whose claims hold everywhere,
/// and overflow certificates whose named first offender matches the first
/// violation the replay finds.
RangeCheck check_range_certificate(const Trace& trace, const AbsintSpec& spec,
                                   const RangeCertificate& cert);

/// Adversarial input concretized from a certificate: every channel LLR at
/// the saturation bound (the all-zero codeword). Decoding it drives the
/// stored words to finalize(max_raw) and the posteriors to the vn sums, the
/// per-space proven peaks. `peaks` echoes the certificate bounds the
/// witness is expected to attain (raw units).
struct RangeWitness {
    double channel_magnitude = 0;  ///< |LLR| every channel input is driven at
    std::vector<long long> peaks;  ///< kSpaceCount expected per-space bounds
};

/// Builds the witness recipe for `cert`; `witness_llrs` expands it.
RangeWitness concretize_witness(const RangeCertificate& cert);

/// Expands a witness to n channel LLRs.
std::vector<double> witness_llrs(const RangeWitness& witness, long long n);

}  // namespace dvbs2::analysis::ir
