// Algorithm BindSelect (paper §2.3): combined resource binding and
// wordlength selection on a scheduled wordlength compatibility graph.
//
// The problem is weighted unate covering over the implicit column set of
// all feasible cliques (Eqn. 4/6); the algorithm is Chvátal's greedy ratio
// heuristic made implicit: per candidate resource type the best column is
// always a *maximum* clique of still-uncovered operations, and because the
// schedule-induced orientation is transitive those are longest chains,
// found in polynomial time. Two paper refinements are included:
//  * restrict candidate cliques to maximum size per resource type (all
//    cliques of a type cost the same, so only maximal ones can win);
//  * a growth pass compensating for greed: after selecting a clique, try to
//    grow it to swallow previously selected cliques, deleting them.
//
// Each round needs every resource's longest-chain *length* but only the
// winner's chain. This keeps each O(r) as a bit row over finish ranks,
// ranks resources in a lazy max-heap keyed by exact lengths from an
// earliest-finish greedy (wcg/chains.hpp, greedy_longest_chain), whose
// picks stay on as a witness that proves a key still exact, and builds the
// canonical chain (longest_chain_into) for the winner alone.
//
// The paper closes BindSelect with a pass that moves each clique to the
// cheapest resource type still satisfying Eqn. 4. It is not run here: the
// ratio rule already selects each clique's cheapest common resource
// (DESIGN.md §2.3), so the pass would move nothing. The paper's algorithm
// whole -- the quadratic-DP column search, the copying absorption probe
// and that pass by full scan -- is oracle::bind_select_reference in
// tests/oracle, and the parity suites pin this binding to it.

#ifndef MWL_BIND_BIND_SELECT_HPP
#define MWL_BIND_BIND_SELECT_HPP

#include "bind/binding.hpp"
#include "wcg/chains.hpp"
#include "wcg/wcg.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mwl {

struct bind_options {
    /// Enable the growth/absorption pass (paper default). Off for ablation.
    bool enable_growth = true;
    /// Selects nothing: the ratio rule already gives every clique its
    /// cheapest common resource (DESIGN.md §2.3). Kept only because
    /// perfbench/src/replay.cpp assigns it.
    bool reassign_cheapest = true;
    /// Selects nothing: the bit-row selection is the one column search
    /// (the quadratic-DP reference is in tests/oracle). Kept only because
    /// perfbench/src/replay.cpp assigns it.
    bool cache_chains = true;
};

/// Selection key of the lazy Chvátal heap (see bind_select.cpp); public
/// only so bind_scratch can own the heap storage. Orders by ratio, then
/// chain length, then the smaller res_id -- the tie order of the oracle's
/// reference scan. res_ids are distinct, so keys are totally ordered.
struct bind_chain_key {
    double ratio = -1.0;
    std::size_t length = 0;
    res_id r;

    [[nodiscard]] bool operator<(const bind_chain_key& other) const
    {
        if (ratio != other.ratio) {
            return ratio < other.ratio;
        }
        if (length != other.length) {
            return length < other.length;
        }
        return r > other.r;
    }
};

/// Reusable buffers for bind_select, so repeated binds allocate almost
/// nothing; dpalloc keeps one per thread in its workspace
/// (core/dpalloc.cpp), shared by every call on that thread. Pure scratch:
/// contents are reset on every call and carry no information between
/// calls, whatever graph the previous call bound.
struct bind_scratch {
    std::vector<timed_op> ranked;              ///< operations by finish rank
    std::vector<std::uint32_t> rank_of;        ///< op id -> finish rank
    std::vector<std::uint32_t> count;          ///< counting-sort histogram
    std::vector<std::uint64_t> rows;           ///< O(r) over ranks, per r
    std::vector<std::uint64_t> witness;        ///< greedy's picks, per r
    std::vector<greedy_chain> greedy;          ///< greedy's state, per r
    std::vector<std::uint64_t> covered;        ///< covered ranks
    std::vector<bind_chain_key> heap;          ///< lazy selection heap
    std::vector<timed_op> candidates;          ///< the winner's members
    std::vector<timed_op> best_chain;
    std::vector<timed_op> merge_tmp;
    chain_scratch chains;
};

/// Bind every operation of `wcg.graph()`.
///
/// `start_times` is the schedule; `latencies` must be the latency values
/// the schedule was produced with (DPAlloc: the upper bounds L_o), since
/// they define the orientation C: o1 -> o2 iff
/// start(o1) + latency(o1) <= start(o2).
///
/// Every emitted clique satisfies Eqn. 4 under the current H edges, so the
/// bound latency of each operation never exceeds its scheduled latency.
[[nodiscard]] binding bind_select(const wordlength_compatibility_graph& wcg,
                                  std::span<const int> start_times,
                                  std::span<const int> latencies,
                                  const bind_options& options = {},
                                  bind_scratch* scratch = nullptr);

} // namespace mwl

#endif // MWL_BIND_BIND_SELECT_HPP
