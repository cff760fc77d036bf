// Packed bit vector used for codewords, syndromes and hard decisions.
//
// Dense 64-bit-word storage with O(n/64) XOR/popcount; indexing is bounds-
// checked in debug builds only. Semantics are value-like (regular type).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace dvbs2::util {

/// Fixed-size (after construction) vector of bits packed into 64-bit words.
class BitVec {
public:
    BitVec() = default;

    /// Creates `n` bits, all zero.
    explicit BitVec(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    bool get(std::size_t i) const noexcept {
        DVBS2_ASSERT(i < size_);
        return (words_[i >> 6] >> (i & 63)) & 1u;
    }

    void set(std::size_t i, bool v) noexcept {
        DVBS2_ASSERT(i < size_);
        const std::uint64_t mask = std::uint64_t{1} << (i & 63);
        if (v)
            words_[i >> 6] |= mask;
        else
            words_[i >> 6] &= ~mask;
    }

    /// XOR-toggles bit i (the core operation of IRA accumulation).
    void flip(std::size_t i) noexcept {
        DVBS2_ASSERT(i < size_);
        words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
    }

    /// Sets all bits to zero, keeping the size.
    void clear() noexcept {
        for (auto& w : words_) w = 0;
    }

    /// Sets every bit i < size() to bit(i), packing 64 bits into each word
    /// store with no branch per bit. Bits past size() stay zero, which
    /// operator== relies on: it compares whole words.
    template <class BitFn>
    void assign(BitFn bit) {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            const std::size_t base = w << 6;
            const std::size_t len = size_ - base < 64 ? size_ - base : 64;
            std::uint64_t word = 0;
            for (std::size_t b = 0; b < len; ++b)
                word |= static_cast<std::uint64_t>(bit(base + b) ? 1u : 0u) << b;
            words_[w] = word;
        }
    }

    /// Overwrites this vector with the first size() bits of `src` (which
    /// must be at least as long), a word at a time.
    void assign_prefix(const BitVec& src);

    /// Number of set bits.
    std::size_t count() const noexcept;

    /// True if every bit is zero (e.g. a satisfied syndrome).
    bool none() const noexcept;

    /// Element-wise XOR; both operands must have equal size.
    BitVec& operator^=(const BitVec& other);

    friend BitVec operator^(BitVec a, const BitVec& b) {
        a ^= b;
        return a;
    }

    friend bool operator==(const BitVec& a, const BitVec& b) noexcept {
        return a.size_ == b.size_ && a.words_ == b.words_;
    }

    /// Number of positions where `a` and `b` differ (Hamming distance);
    /// sizes must match.
    static std::size_t hamming_distance(const BitVec& a, const BitVec& b);

private:
    std::size_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

}  // namespace dvbs2::util
