// Word-parallel bitset kernels over raw uint64_t rows.
//
// The large-graph hot paths (WCG H-relation, scheduling-set coverage,
// clique compatibility probes) all reduce to dense set algebra over
// operation/resource universes of a few thousand elements. These kernels
// keep every such set as packed 64-bit words so membership is one test,
// intersection/union are a handful of word ops, and iteration visits set
// bits in ascending index order -- the same order the sorted adjacency
// vectors used, which is what keeps the rework bit-identical.
//
// Free functions operate on caller-owned word spans (rows of a flat
// matrix, arena rows); dyn_bitset owns its words for standalone use.

#ifndef MWL_SUPPORT_BITSET_HPP
#define MWL_SUPPORT_BITSET_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mwl {

/// Words needed to hold `bits` bits.
[[nodiscard]] constexpr std::size_t bits_words(std::size_t bits)
{
    return (bits + 63) / 64;
}

inline void bits_set(std::uint64_t* words, std::size_t i)
{
    words[i / 64] |= std::uint64_t{1} << (i % 64);
}

inline void bits_reset(std::uint64_t* words, std::size_t i)
{
    words[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

[[nodiscard]] inline bool bits_test(const std::uint64_t* words, std::size_t i)
{
    return (words[i / 64] >> (i % 64)) & 1;
}

/// Set bits in one word, inline on every target. Without POPCNT in the
/// target flags (the default x86-64 build passes no -mpopcnt / -march),
/// __builtin_popcountll is a call into libgcc, so the SWAR count stands in.
[[nodiscard]] inline std::size_t bits_popcount(std::uint64_t word)
{
#if defined(__POPCNT__)
    return static_cast<std::size_t>(__builtin_popcountll(word));
#else
    word -= (word >> 1) & 0x5555555555555555U;
    word = (word & 0x3333333333333333U) + ((word >> 2) & 0x3333333333333333U);
    word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fU;
    return static_cast<std::size_t>((word * 0x0101010101010101U) >> 56);
#endif
}

[[nodiscard]] inline std::size_t bits_count(const std::uint64_t* words,
                                            std::size_t n_words)
{
    std::size_t total = 0;
    for (std::size_t w = 0; w < n_words; ++w) {
        total += bits_popcount(words[w]);
    }
    return total;
}

inline void bits_or(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t n_words)
{
    for (std::size_t w = 0; w < n_words; ++w) {
        dst[w] |= src[w];
    }
}

inline void bits_and(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n_words)
{
    for (std::size_t w = 0; w < n_words; ++w) {
        dst[w] &= src[w];
    }
}

/// popcount(a & ~b): how many elements of a are not in b.
[[nodiscard]] inline std::size_t bits_andnot_count(const std::uint64_t* a,
                                                   const std::uint64_t* b,
                                                   std::size_t n_words)
{
    std::size_t total = 0;
    for (std::size_t w = 0; w < n_words; ++w) {
        total += bits_popcount(a[w] & ~b[w]);
    }
    return total;
}

/// True iff a and b share no element.
[[nodiscard]] inline bool bits_disjoint(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::size_t n_words)
{
    for (std::size_t w = 0; w < n_words; ++w) {
        if ((a[w] & b[w]) != 0) {
            return false;
        }
    }
    return true;
}

/// True iff a is a subset of b.
[[nodiscard]] inline bool bits_subset(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::size_t n_words)
{
    for (std::size_t w = 0; w < n_words; ++w) {
        if ((a[w] & ~b[w]) != 0) {
            return false;
        }
    }
    return true;
}

[[nodiscard]] inline bool bits_any(const std::uint64_t* words,
                                   std::size_t n_words)
{
    for (std::size_t w = 0; w < n_words; ++w) {
        if (words[w] != 0) {
            return true;
        }
    }
    return false;
}

/// Visit every set bit in ascending index order.
template <typename Visit>
void bits_for_each(const std::uint64_t* words, std::size_t n_words,
                   Visit&& visit)
{
    for (std::size_t w = 0; w < n_words; ++w) {
        std::uint64_t word = words[w];
        while (word != 0) {
            const std::size_t bit =
                static_cast<std::size_t>(__builtin_ctzll(word));
            visit(w * 64 + bit);
            word &= word - 1;
        }
    }
}

/// Owning fixed-width bitset; width is set at construction or assign().
class dyn_bitset {
public:
    dyn_bitset() = default;
    explicit dyn_bitset(std::size_t bits)
        : bits_(bits), words_(bits_words(bits), 0)
    {
    }

    /// Resize to `bits` bits, all zero. Keeps capacity.
    void assign(std::size_t bits)
    {
        bits_ = bits;
        words_.assign(bits_words(bits), 0);
    }

    void set(std::size_t i) { bits_set(words_.data(), i); }
    void reset(std::size_t i) { bits_reset(words_.data(), i); }
    [[nodiscard]] bool test(std::size_t i) const
    {
        return bits_test(words_.data(), i);
    }
    [[nodiscard]] std::size_t count() const
    {
        return bits_count(words_.data(), words_.size());
    }
    [[nodiscard]] std::size_t size() const { return bits_; }
    [[nodiscard]] std::size_t word_count() const { return words_.size(); }
    [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }
    [[nodiscard]] std::uint64_t* words() { return words_.data(); }

    /// True iff every one of the `size()` real bits is set. Bits past
    /// size() in the last word are invariantly zero.
    [[nodiscard]] bool all_set() const { return count() == bits_; }

    void or_with(const std::uint64_t* other)
    {
        bits_or(words_.data(), other, words_.size());
    }

    /// Index of the first zero bit, or size() if none.
    [[nodiscard]] std::size_t first_unset() const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            if (words_[w] == ~std::uint64_t{0}) {
                continue;
            }
            const std::size_t i =
                w * 64 +
                static_cast<std::size_t>(__builtin_ctzll(~words_[w]));
            return i < bits_ ? i : bits_;
        }
        return bits_;
    }

private:
    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace mwl

#endif // MWL_SUPPORT_BITSET_HPP
