// Algorithm DPAlloc (paper §2): combined scheduling, resource binding and
// wordlength selection by iterative refinement of wordlength information.
//
// Loop (paper pseudo-code):
//   1. compute the scheduling set covering every operation (§2.2),
//   2. derive latency upper bounds L_o from the current H edges,
//   3. list-schedule under the incomplete-wordlength constraint (Eqn. 3'),
//   4. run BindSelect (§2.3); bound latencies never exceed the scheduled
//      upper bounds, so the binding cannot invalidate the schedule,
//   5. if the bound design violates the latency constraint, refine the
//      wordlength information of one operation on the bound critical path
//      (§2.4) and repeat; otherwise record the feasible solution.
//
// Extensions beyond the paper's text (all documented in DESIGN.md):
//   * capacity escalation when refinement is exhausted (the paper is silent
//     on parallelism-starved instances; without this the loop cannot
//     terminate on them),
//   * options to disable individual ingredients for the ablation benches.
//
// The caches and fast paths (PERF.md) are checked against the from-scratch
// reference pipeline in tests/oracle, which shares the steps exported last.

#ifndef MWL_CORE_DPALLOC_HPP
#define MWL_CORE_DPALLOC_HPP

#include "bind/binding.hpp"
#include "core/datapath.hpp"
#include "dfg/sequencing_graph.hpp"
#include "model/hardware_model.hpp"
#include "sched/list_scheduler.hpp"
#include "wcg/wcg.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace mwl {

struct dpalloc_options {
    /// BindSelect growth pass (paper default on; off for ablation).
    bool enable_growth = true;
    /// Cheapest-resource reassignment after covering (wordlength selection).
    bool reassign_cheapest = true;
    /// Ablation: use the classic per-type constraint (Eqn. 2) instead of
    /// the paper's incomplete-wordlength constraint (Eqn. 3').
    bool classic_constraint = false;
    /// Initial instances per scheduling-set member (paper: 1).
    int initial_capacity = 1;
    /// Safety bound on refinement iterations; never reached in practice
    /// (each iteration deletes an H edge or raises capacity).
    std::size_t max_iterations = 1000000;

    /// Equal options produce identical results on identical inputs; the
    /// batch engine's cache key (src/engine/batch_engine.hpp) relies on it.
    friend bool operator==(const dpalloc_options&,
                           const dpalloc_options&) = default;
};

struct dpalloc_stats {
    std::size_t iterations = 0;    ///< schedule/bind rounds executed
    std::size_t refinements = 0;   ///< wordlength refinement steps
    std::size_t edges_deleted = 0; ///< H edges removed by refinement
    int final_capacity = 1;        ///< 1 unless escalation was needed
    std::size_t escalations = 0;   ///< capacity increments (0 = pure paper)
    bool cover_always_minimum = true;
};

struct dpalloc_result {
    datapath path;
    dpalloc_stats stats;
};

/// Allocate a datapath for `graph` under latency constraint `lambda`
/// (control steps). Throws `infeasible_error` when lambda is below the
/// graph's minimum latency, `precondition_error` on malformed input.
/// The result is always feasible and validator-clean.
///
/// Set-up is paid once per thread, not once per call: the loop's
/// scheduler, BindSelect and critical-path scratch live in a
/// `thread_local` workspace that later calls on the same thread reuse.
/// The result never depends on what ran before on the thread (every
/// buffer is rewritten per call, the cover memo keys on the WCG's
/// serial), and dpalloc is never re-entered on one thread, so calls on
/// different threads share nothing. The price is memory: a thread keeps
/// buffers sized to the largest graph it has allocated, about 0.5 MB after
/// an |O| = 700 preset graph, until it exits.
[[nodiscard]] dpalloc_result dpalloc(const sequencing_graph& graph,
                                     const hardware_model& model, int lambda,
                                     const dpalloc_options& options = {});

// -- steps of the loop shared with the reference pipeline -----------------

/// The ablation arm's Eqn. 2 limits: N_y = max(1, capacity x (members of
/// `cover` of kind y)), the classic counterpart of Eqn. 3' on the same S.
[[nodiscard]] type_limits classic_limits(
    const wordlength_compatibility_graph& wcg, std::span<const res_id> cover,
    int capacity);

/// The datapath of a schedule and its binding, one instance per clique.
[[nodiscard]] datapath assemble_datapath(
    const wordlength_compatibility_graph& wcg, std::span<const int> start,
    const binding& bind);

/// The §2.4 metric's inputs, indexed by op id. dpalloc passes the counts
/// the WCG carries across refinements (sharing_pools(),
/// slowest_edge_counts()); the reference pipeline rescans H for them.
struct refinement_counts {
    /// Sum over r in H(o) of |O(r)|: the H edges incident to the resources
    /// o may still use.
    std::span<const std::uint32_t> pool;
    /// The r in H(o) with latency(r) == L_o: the edges refining o deletes.
    std::span<const std::uint32_t> slowest;
};

/// §2.4: the operation to refine when the bound design misses `lambda`,
/// the metric's pick among the refinable operations on the bound critical
/// path `critical`, or off it when it has none (DESIGN.md §2.4). Empty when
/// no operation is refinable at all: the caller escalates capacity.
[[nodiscard]] std::optional<op_id> choose_refinement(
    const wordlength_compatibility_graph& wcg, std::span<const op_id> critical,
    std::span<const int> start, std::span<const int> upper,
    std::span<const int> bound_latencies, const refinement_counts& counts,
    int lambda);

} // namespace mwl

#endif // MWL_CORE_DPALLOC_HPP
