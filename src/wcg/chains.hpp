// Chain (clique) utilities on the schedule-derived orientation C.
//
// Once start times are fixed, "o1 completes before o2 starts" defines an
// interval order on operations; C is its transitive orientation, and the
// subgraph of G'(O, C) induced by any O(r) is a comparability graph whose
// cliques are exactly chains of pairwise non-overlapping, ordered
// operations (Golumbic [11]). Maximum cliques are therefore longest chains,
// found in polynomial time -- the observation the paper leans on in §2.3.
//
// Two kernels serve BindSelect:
//  * longest_chain: the *canonical* longest chain -- item for item the
//    chain the original O(k^2) DP returned -- by an O(k log k) sorted
//    sweep. BindSelect's output depends on which maximum chain is taken,
//    so this is the one that builds cliques.
//  * greedy_longest_chain: only the *length* of a longest chain (plus one
//    witness chain), in O(k) over a bit row of finish-ordered candidates.
//    On an interval order a longest chain is a maximum set of disjoint
//    intervals, which earliest-finish greedy finds exactly; BindSelect
//    keys its selection heap with it.
// Both are property-tested against the DP oracle in
// tests/chains_property_test.cpp.

#ifndef MWL_WCG_CHAINS_HPP
#define MWL_WCG_CHAINS_HPP

#include "support/ids.hpp"

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace mwl {

/// One operation with its scheduled interval [start, start + latency).
struct timed_op {
    op_id op;
    int start = 0;
    int latency = 1;

    [[nodiscard]] int finish() const { return start + latency; }
};

/// True iff a precedes b in C: a finishes no later than b starts.
[[nodiscard]] inline bool precedes(const timed_op& a, const timed_op& b)
{
    return a.finish() <= b.start;
}

/// Reusable buffers for longest_chain, so a caller invoking it in a loop
/// (bind/bind_select.cpp does, once per Chvátal round for the winning
/// resource) performs no per-call allocations beyond the returned chain.
struct chain_scratch {
    std::vector<timed_op> sorted;
    std::vector<std::size_t> by_finish;
    std::vector<std::size_t> dp;
    std::vector<std::size_t> back;
};

/// Maximum-cardinality chain among `items` under `precedes`. Deterministic:
/// ties are broken towards earlier start, then smaller op id. Returns the
/// chosen items in chain (time) order. O(k log k).
[[nodiscard]] std::vector<timed_op> longest_chain(
    std::span<const timed_op> items);

/// As above, reusing `scratch`'s buffers.
[[nodiscard]] std::vector<timed_op> longest_chain(
    std::span<const timed_op> items, chain_scratch& scratch);

/// As above, writing the chain into `out` (cleared first) so a looping
/// caller reuses its capacity. This is the zero-allocation form.
void longest_chain_into(std::span<const timed_op> items,
                        chain_scratch& scratch, std::vector<timed_op>& out);

/// Earliest-finish greedy for a longest chain. Fed candidates in
/// ascending finish order, it picks each one that starts no earlier than
/// the last pick finished. On an interval order that is exact: a longest
/// chain is a maximum set of disjoint intervals, and swapping a maximum
/// set's first member for the earliest finisher keeps it disjoint. So
/// after any prefix of the candidates, `length` is the longest-chain
/// length among them and the picks form one such chain.
struct greedy_chain {
    int free_at = std::numeric_limits<int>::min(); ///< last pick's finish
    std::size_t length = 0;                        ///< picks so far

    /// Offer the next candidate in finish order; true iff it is picked.
    bool offer(const timed_op& item)
    {
        if (item.start < free_at) {
            return false;
        }
        free_at = item.finish();
        ++length;
        return true;
    }
};

/// Runs greedy_chain over the candidates `row & ~covered`, where bit i of
/// each bit row stands for `by_finish[i]` and `by_finish` is ordered by
/// ascending finish (ties in any order). Returns the final state, whose
/// `length` is the longest-chain length, and writes the picks -- one
/// longest chain -- to `witness`. All three rows hold
/// bits_words(by_finish.size()) words. O(words + candidates).
[[nodiscard]] greedy_chain greedy_longest_chain(
    std::span<const timed_op> by_finish, std::span<const std::uint64_t> row,
    std::span<const std::uint64_t> covered, std::span<std::uint64_t> witness);

/// True iff every pair of `items` is ordered by `precedes` one way or the
/// other, i.e. the set is a clique of G'(O, C). O(k log k):
/// sort by start and check adjacent pairs (precedes is transitive).
[[nodiscard]] bool is_chain(std::span<const timed_op> items);

} // namespace mwl

#endif // MWL_WCG_CHAINS_HPP
