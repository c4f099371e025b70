// Minimum-cardinality scheduling set (paper §2.2).
//
// "Before any scheduling, a minimum cardinality subset S of R is found such
// that every operation has an H edge to some member of S."  The paper does
// not give a method; minimum set cover is NP-hard, but the instances here
// are tiny (|O| <= tens, |R| <= a few hundred), so we solve it *exactly*
// with branch and bound seeded by Chvátal's greedy bound, after removing
// coverage-dominated resources. A node cap keeps the worst case polynomial
// in practice; if it is ever hit we fall back to the greedy cover (still a
// valid scheduling set, merely possibly non-minimum) -- the flag in the
// result records which happened.

#ifndef MWL_SCHED_SCHEDULING_SET_HPP
#define MWL_SCHED_SCHEDULING_SET_HPP

#include "support/ids.hpp"
#include "wcg/wcg.hpp"

#include <cstdint>
#include <vector>

namespace mwl {

struct scheduling_set_result {
    /// Members of S, ascending res_id.
    std::vector<res_id> members;
    /// True if the branch-and-bound proved minimality (always true in the
    /// paper-scale experiments).
    bool proven_minimum = true;
};

/// Memo for min_scheduling_set across DPAlloc iterations, keyed on the
/// WCG's serial and edge version (see PERF.md, "The carried cover"). On the
/// same serial:
///  * same edge version -> the H edges are identical, so the cached cover
///    is returned without any search (every capacity-escalation iteration,
///    and every repeated query within one iteration);
///  * later edge version -> H has only shrunk, so two carried facts bound
///    the new optimum without changing which cover the search returns:
///    the last *proven* optimum size is a lower bound (a cover of the new
///    H covers the old one too), and the previous cover, if it still
///    covers, an upper bound. The search returns Chvátal's greedy cover
///    outright when it already meets the lower bound and otherwise stops
///    at its first cover that does; the upper bound only prunes. A search
///    that hits the node cap under either bound is rerun cold, so a capped
///    query also matches the cold overload; the only possible divergence
///    is a bounded query that completes (or whose greedy cover meets the
///    lower bound) where the cold search would have capped -- the cached
///    path then returns a proven minimum instead of the cold path's capped
///    fallback (the same members in every case tested, see
///    SchedulingSetCacheHitsAndWarmStarts).
/// Each resource's last dominator is kept as a witness and tested first
/// by the domination filter (same predicate, so the same kept set).
struct scheduling_set_cache {
    std::uint64_t wcg_serial = 0; ///< serial() of the source WCG, 0 = none
    std::uint64_t edge_version = 0;
    std::size_t node_cap = 0; ///< cap the cached result was computed under
    scheduling_set_result result;
    /// Largest cover size proven minimum on this WCG so far; 0 = none.
    std::size_t min_size = 0;
    /// witness[r]: the resource that last dominated r, or UINT32_MAX.
    std::vector<std::uint32_t> witness;

    // Search scratch, reset per query.
    struct candidate {
        res_id id;
        double area = 0.0;
        std::size_t count = 0;              ///< |O(r)|
        const std::uint64_t* cov = nullptr; ///< the WCG's ops_row(r)
    };
    std::vector<candidate> cands_ws; ///< indexed by res_id
    std::vector<candidate> kept_ws;
    /// Domination-filter order, the live candidates compacted to its front.
    std::vector<std::size_t> order_ws;
    std::vector<std::uint8_t> is_live_ws; ///< per resource
    /// Covered-set rows: one per search depth.
    std::vector<std::uint64_t> rows_ws;
    /// Per-operation cover lists as a flat table.
    std::vector<std::uint32_t> cover_off_ws;
    std::vector<std::uint32_t> cover_flat_ws;
};

/// Compute the scheduling set over the current H edges of `wcg`.
/// `node_cap` bounds the branch-and-bound search tree size.
[[nodiscard]] scheduling_set_result
min_scheduling_set(const wordlength_compatibility_graph& wcg,
                   std::size_t node_cap = 200000);

/// Memoized / bounded variant; updates `cache` in place. Returns the same
/// cover as the cold overload whenever the node cap is not hit.
[[nodiscard]] scheduling_set_result
min_scheduling_set(const wordlength_compatibility_graph& wcg,
                   scheduling_set_cache& cache,
                   std::size_t node_cap = 200000);

} // namespace mwl

#endif // MWL_SCHED_SCHEDULING_SET_HPP
