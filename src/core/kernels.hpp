// Shared node-processing kernels.
//
// Both the algorithmic decoder (core/mp_decoder.hpp) and the cycle-driven
// architecture model (arch/rtl_model) compute check-node extrinsics through
// this one function, which is what guarantees their bit-exactness: same
// combine operator, same prefix/suffix order over the same input sequence.
#pragma once

namespace dvbs2::core {

/// Computes, for d inputs ins[0..d), outs[i] = combine of all inputs except
/// i, using two passes of the arithmetic's pairwise combine (serial
/// forward/backward recursion — the structure of a hardware functional
/// unit). The forward pass stores its prefixes in pre[]; the backward pass
/// keeps its suffix in one running value and combines each output as it
/// goes, so every combine takes the same operands as a stored suffix array
/// would give it, and the suffix chain runs in the same order. Outputs are
/// un-finalized; the caller applies Arith::finalize. Requires 2 ≤ d, a
/// caller-provided prefix buffer of at least d − 1 entries, and outs not
/// aliasing ins. The full products pre[d−1] and suffix 0 feed no output, so
/// they are not formed.
template <class Arith>
void compute_extrinsics(const Arith& arith, const typename Arith::Value* ins, int d,
                        typename Arith::Value* outs, typename Arith::Value* pre) {
    pre[0] = ins[0];
    for (int i = 1; i < d - 1; ++i) pre[i] = arith.combine(pre[i - 1], ins[i]);
    typename Arith::Value suf = ins[d - 1];  // combine of ins[i+1..d)
    outs[d - 1] = pre[d - 2];
    for (int i = d - 2; i >= 1; --i) {
        outs[i] = arith.combine(pre[i - 1], suf);
        suf = arith.combine(ins[i], suf);
    }
    outs[0] = suf;
}

}  // namespace dvbs2::core
