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
/// unit). Outputs are un-finalized; the caller applies Arith::finalize.
/// Requires 2 ≤ d and caller-provided buffers of at least d entries. The
/// full products pre[d−1] and suf[0] feed no output, so they are not formed.
template <class Arith>
void compute_extrinsics(const Arith& arith, const typename Arith::Value* ins, int d,
                        typename Arith::Value* outs, typename Arith::Value* pre,
                        typename Arith::Value* suf) {
    pre[0] = ins[0];
    for (int i = 1; i < d - 1; ++i) pre[i] = arith.combine(pre[i - 1], ins[i]);
    suf[d - 1] = ins[d - 1];
    for (int i = d - 2; i >= 1; --i) suf[i] = arith.combine(ins[i], suf[i + 1]);
    outs[0] = suf[1];
    outs[d - 1] = pre[d - 2];
    for (int i = 1; i < d - 1; ++i) outs[i] = arith.combine(pre[i - 1], suf[i + 1]);
}

}  // namespace dvbs2::core
