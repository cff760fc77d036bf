#include "util/bitvec.hpp"

#include <algorithm>
#include <bit>

namespace dvbs2::util {

std::size_t BitVec::count() const noexcept {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
}

bool BitVec::none() const noexcept {
    for (auto w : words_)
        if (w != 0) return false;
    return true;
}

void BitVec::assign_prefix(const BitVec& src) {
    DVBS2_REQUIRE(src.size_ >= size_, "BitVec prefix source shorter than the destination");
    if (words_.empty()) return;
    std::copy_n(src.words_.begin(), words_.size(), words_.begin());
    if (const std::size_t tail = size_ & 63; tail != 0)
        words_.back() &= (std::uint64_t{1} << tail) - 1;
}

BitVec& BitVec::operator^=(const BitVec& other) {
    DVBS2_REQUIRE(size_ == other.size_, "BitVec XOR size mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
    return *this;
}

std::size_t BitVec::hamming_distance(const BitVec& a, const BitVec& b) {
    DVBS2_REQUIRE(a.size_ == b.size_, "hamming_distance size mismatch");
    std::size_t d = 0;
    for (std::size_t i = 0; i < a.words_.size(); ++i)
        d += static_cast<std::size_t>(std::popcount(a.words_[i] ^ b.words_[i]));
    return d;
}

}  // namespace dvbs2::util
