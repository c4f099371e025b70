// Property / fuzz tests for the chain utilities against the original
// quadratic implementations, kept here as oracles.
//
// longest_chain's sweep is required to reproduce the original DP *exactly*
// (same chain, not merely the same length): BindSelect's output -- and
// hence every DPAlloc allocation -- depends on which maximum chain is
// picked, and the incremental-vs-reference regression suite
// (incremental_regression_test.cpp) relies on bit-identical results.

#include "support/bitset.hpp"
#include "support/rng.hpp"
#include "wcg/chains.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace mwl {
namespace {

/// The original O(k^2) longest-chain DP, verbatim: canonical sort, strict
/// improvement scan (keeps the first maximal predecessor), first-index
/// argmax over chain ends.
std::vector<timed_op> longest_chain_dp(std::span<const timed_op> items)
{
    if (items.empty()) {
        return {};
    }

    std::vector<timed_op> sorted(items.begin(), items.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const timed_op& a, const timed_op& b) {
                  if (a.start != b.start) {
                      return a.start < b.start;
                  }
                  if (a.finish() != b.finish()) {
                      return a.finish() < b.finish();
                  }
                  return a.op < b.op;
              });

    const std::size_t n = sorted.size();
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> dp(n, 1);
    std::vector<std::size_t> back(n, npos);
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

    std::vector<timed_op> chain;
    for (std::size_t at = best; at != npos; at = back[at]) {
        chain.push_back(sorted[at]);
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

/// The original all-pairs is_chain.
bool is_chain_pairwise(std::span<const timed_op> items)
{
    for (std::size_t i = 0; i < items.size(); ++i) {
        for (std::size_t j = i + 1; j < items.size(); ++j) {
            if (!precedes(items[i], items[j]) &&
                !precedes(items[j], items[i])) {
                return false;
            }
        }
    }
    return true;
}

std::vector<timed_op> random_items(rng& random, std::size_t max_k,
                                   int max_start, int max_latency)
{
    const std::size_t k = random.uniform(0, max_k);
    std::vector<timed_op> items;
    items.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        items.push_back(timed_op{op_id(i), random.uniform_int(0, max_start),
                                 random.uniform_int(1, max_latency)});
    }
    return items;
}

/// greedy_longest_chain over all of `items` (one bit row, nothing
/// covered) must reach the longest-chain length, and its picks must form
/// a chain.
void expect_greedy_exact(const std::vector<timed_op>& items, int trial)
{
    std::vector<timed_op> by_finish = items;
    std::stable_sort(by_finish.begin(), by_finish.end(),
                     [](const timed_op& a, const timed_op& b) {
                         return a.finish() < b.finish();
                     });
    const std::size_t words = bits_words(items.size());
    std::vector<std::uint64_t> row(words, 0);
    const std::vector<std::uint64_t> covered(words, 0);
    std::vector<std::uint64_t> witness(words, 0);
    for (std::size_t i = 0; i < items.size(); ++i) {
        bits_set(row.data(), i);
    }
    const greedy_chain greedy =
        greedy_longest_chain(by_finish, row, covered, witness);
    std::vector<timed_op> picks;
    bits_for_each(witness.data(), words,
                  [&](std::size_t i) { picks.push_back(by_finish[i]); });
    EXPECT_EQ(greedy.length, longest_chain_dp(items).size())
        << "trial " << trial;
    EXPECT_EQ(picks.size(), greedy.length) << "trial " << trial;
    EXPECT_TRUE(is_chain(picks)) << "trial " << trial;
}

void expect_same_chain(const std::vector<timed_op>& items, int trial)
{
    const std::vector<timed_op> oracle = longest_chain_dp(items);
    const std::vector<timed_op> sweep = longest_chain(items);
    ASSERT_EQ(sweep.size(), oracle.size()) << "trial " << trial;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(sweep[i].op, oracle[i].op) << "trial " << trial;
        EXPECT_EQ(sweep[i].start, oracle[i].start) << "trial " << trial;
        EXPECT_EQ(sweep[i].latency, oracle[i].latency) << "trial " << trial;
    }
}

TEST(ChainsProperty, SweepReproducesDpOnDenseRandomSets)
{
    // Heavily overlapping intervals: many ties, small chains.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A1);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 400; ++trial) {
        const std::vector<timed_op> items = random_items(random, 40, 12, 6);
        expect_same_chain(items, trial);
        expect_greedy_exact(items, trial);
    }
}

TEST(ChainsProperty, SweepReproducesDpOnSparseRandomSets)
{
    // Spread-out intervals: long chains, few ties.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A2);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 400; ++trial) {
        const std::vector<timed_op> items = random_items(random, 40, 200, 4);
        expect_same_chain(items, trial);
        expect_greedy_exact(items, trial);
    }
}

TEST(ChainsProperty, SweepReproducesDpAroundSmallInputCutover)
{
    // longest_chain switches implementation around k = 16 and has
    // dedicated k <= 2 fast paths; hammer exactly those sizes.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A3);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 800; ++trial) {
        const std::size_t k = random.uniform(0, 18);
        std::vector<timed_op> items;
        for (std::size_t i = 0; i < k; ++i) {
            items.push_back(timed_op{op_id(i), random.uniform_int(0, 6),
                                     random.uniform_int(1, 4)});
        }
        expect_same_chain(items, trial);
    }
}

TEST(ChainsProperty, SweepReproducesDpWithDuplicateIntervals)
{
    // Identical (start, latency) pairs on distinct ops exercise every
    // tie-break level.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A4);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t k = random.uniform(0, 24);
        std::vector<timed_op> items;
        for (std::size_t i = 0; i < k; ++i) {
            items.push_back(timed_op{op_id(i), random.uniform_int(0, 3),
                                     random.uniform_int(1, 2)});
        }
        expect_same_chain(items, trial);
        expect_greedy_exact(items, trial);
    }
}

TEST(ChainsProperty, IsChainMatchesPairwiseOracle)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A5);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    int chains_seen = 0;
    for (int trial = 0; trial < 1000; ++trial) {
        const std::vector<timed_op> items =
            random_items(random, 8, 10, 3);
        const bool expected = is_chain_pairwise(items);
        EXPECT_EQ(is_chain(items), expected) << "trial " << trial;
        chains_seen += expected ? 1 : 0;
    }
    // The distribution must actually exercise both outcomes.
    EXPECT_GT(chains_seen, 0);
}

TEST(ChainsProperty, LongestChainIntoReusesCapacity)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A6);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    chain_scratch scratch;
    std::vector<timed_op> out;
    for (int trial = 0; trial < 100; ++trial) {
        const std::vector<timed_op> items = random_items(random, 30, 50, 5);
        longest_chain_into(items, scratch, out);
        const std::vector<timed_op> fresh = longest_chain(items);
        ASSERT_EQ(out.size(), fresh.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i].op, fresh[i].op);
        }
    }
}

} // namespace
} // namespace mwl
