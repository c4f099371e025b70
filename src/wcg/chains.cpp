#include "wcg/chains.hpp"

#include "support/bitset.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <numeric>

namespace mwl {
namespace {

/// Canonical processing order shared with the original quadratic DP:
/// ascending start, then finish, then op id. A chain visits strictly
/// ascending starts, so this order lists every possible predecessor of an
/// item before the item itself.
bool canonical_less(const timed_op& a, const timed_op& b)
{
    if (a.start != b.start) {
        return a.start < b.start;
    }
    if (a.finish() != b.finish()) {
        return a.finish() < b.finish();
    }
    return a.op < b.op;
}

} // namespace

std::vector<timed_op> longest_chain(std::span<const timed_op> items)
{
    chain_scratch scratch;
    return longest_chain(items, scratch);
}

std::vector<timed_op> longest_chain(std::span<const timed_op> items,
                                    chain_scratch& scratch)
{
    std::vector<timed_op> out;
    longest_chain_into(items, scratch, out);
    return out;
}

void longest_chain_into(std::span<const timed_op> items,
                        chain_scratch& scratch, std::vector<timed_op>& out)
{
    out.clear();
    if (items.empty()) {
        return;
    }
    if (items.size() == 1) {
        out.push_back(items[0]);
        return;
    }
    if (items.size() == 2) {
        // Mirrors the general sweep: with the pair in canonical order, the
        // later-starting item can never precede the earlier one (latencies
        // are >= 1), so the chain is either both items or, on a tie in
        // length, the canonically first.
        const bool swapped = canonical_less(items[1], items[0]);
        const timed_op& a = swapped ? items[1] : items[0];
        const timed_op& b = swapped ? items[0] : items[1];
        out.push_back(a);
        if (precedes(a, b)) {
            out.push_back(b);
        }
        return;
    }

    std::vector<timed_op>& sorted = scratch.sorted;
    sorted.assign(items.begin(), items.end());
    std::sort(sorted.begin(), sorted.end(), canonical_less);
    const std::size_t n = sorted.size();
    constexpr std::size_t npos = static_cast<std::size_t>(-1);

    // Small inputs (the common case in BindSelect's late Chvátal rounds):
    // the quadratic DP over the canonical order beats the sweep's extra
    // finish-order sort, and computes the identical dp/back values -- on
    // strict improvement only, so back[i] is the first maximal predecessor.
    if (n <= 16) {
        std::vector<std::size_t>& dp = scratch.dp;
        std::vector<std::size_t>& back = scratch.back;
        dp.assign(n, 1);
        back.assign(n, npos);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < i; ++j) {
                if (precedes(sorted[j], sorted[i]) && dp[j] + 1 > dp[i]) {
                    dp[i] = dp[j] + 1;
                    back[i] = j;
                }
            }
        }
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (dp[i] > dp[best]) {
                best = i;
            }
        }
        out.reserve(dp[best]);
        for (std::size_t at = best; at != npos; at = back[at]) {
            out.push_back(sorted[at]);
        }
        std::reverse(out.begin(), out.end());
        return;
    }

    // dp[i]: length of the longest chain ending at sorted[i]; back[i]: the
    // smallest canonical index attaining dp[i]-1 among predecessors of i,
    // or npos. These are exactly the values the original O(k^2) DP
    // computed (its scan updated on strict improvement only, so it kept
    // the first maximal predecessor); computed here by a sweep in O(k log k).
    //
    // Predecessors of i are the items with finish <= start_i. Since every
    // latency is >= 1, such items start (and therefore sort) strictly
    // before i, so processing items in canonical order and absorbing them
    // into a pool ordered by finish keeps the pool exactly equal to i's
    // predecessor set -- the pool only ever grows because start is
    // non-decreasing along the sweep.
    std::vector<std::size_t>& by_finish = scratch.by_finish;
    by_finish.resize(n);
    std::iota(by_finish.begin(), by_finish.end(), std::size_t{0});
    std::sort(by_finish.begin(), by_finish.end(),
              [&](std::size_t a, std::size_t b) {
                  if (sorted[a].finish() != sorted[b].finish()) {
                      return sorted[a].finish() < sorted[b].finish();
                  }
                  return a < b;
              });

    std::vector<std::size_t>& dp = scratch.dp;
    std::vector<std::size_t>& back = scratch.back;
    dp.assign(n, 1);
    back.assign(n, npos);
    std::size_t pool_best = npos; // min canonical index with maximal dp
    std::size_t absorbed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        while (absorbed < n &&
               sorted[by_finish[absorbed]].finish() <= sorted[i].start) {
            const std::size_t j = by_finish[absorbed++];
            if (pool_best == npos || dp[j] > dp[pool_best] ||
                (dp[j] == dp[pool_best] && j < pool_best)) {
                pool_best = j;
            }
        }
        if (pool_best != npos) {
            dp[i] = dp[pool_best] + 1;
            back[i] = pool_best;
        }
    }

    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
        if (dp[i] > dp[best]) {
            best = i;
        }
    }

    out.reserve(dp[best]);
    for (std::size_t at = best; at != npos; at = back[at]) {
        out.push_back(sorted[at]);
    }
    std::reverse(out.begin(), out.end());
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
        MWL_ASSERT(precedes(out[i], out[i + 1]));
    }
}

greedy_chain greedy_longest_chain(std::span<const timed_op> by_finish,
                                  std::span<const std::uint64_t> row,
                                  std::span<const std::uint64_t> covered,
                                  std::span<std::uint64_t> witness)
{
    const std::size_t n_words = bits_words(by_finish.size());
    MWL_ASSERT(row.size() >= n_words && covered.size() >= n_words &&
               witness.size() >= n_words);
    greedy_chain greedy;
    for (std::size_t w = 0; w < n_words; ++w) {
        std::uint64_t word = row[w] & ~covered[w];
        std::uint64_t picks = 0;
        while (word != 0) {
            const int bit = __builtin_ctzll(word);
            if (greedy.offer(
                    by_finish[w * 64 + static_cast<std::size_t>(bit)])) {
                picks |= std::uint64_t{1} << bit;
            }
            word &= word - 1;
        }
        witness[w] = picks;
    }
    return greedy;
}

bool is_chain(std::span<const timed_op> items)
{
    if (items.size() < 2) {
        return true;
    }
    // `precedes` is transitive and two items can only be comparable with
    // the earlier-starting one first, so after sorting by start the set is
    // a chain iff every adjacent pair is ordered (two items sharing a
    // start never are, as latencies are >= 1).
    std::vector<timed_op> sorted(items.begin(), items.end());
    std::sort(sorted.begin(), sorted.end(), canonical_less);
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        if (!precedes(sorted[i], sorted[i + 1])) {
            return false;
        }
    }
    return true;
}

} // namespace mwl
