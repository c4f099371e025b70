// Error-budget-driven wordlength optimizer with real dpalloc cost.
//
// The closing loop of the multiple-wordlength literature (FpSynt,
// arXiv:1307.8401): given an output roundoff-noise budget, search
// per-operation fractional wordlengths whose cost is the *actual*
// allocated datapath -- every candidate is re-widthed
// (wordlength/tuned_graph.hpp) and pushed through the batch engine, so
// the cost function is dpalloc's area/latency, not an analytic estimate.
// An analytic model cannot see functional-unit sharing: widening one
// signal can make two multipliers coverable by one resource and *shrink*
// the datapath, which is precisely the effect a search over real
// allocations exploits and an estimate misses.
//
// Search pipeline (all deterministic):
//  1. Water-filling seed from `assign_fractional_widths` -- the noise
//     model's minimum-bits start.
//  2. Greedy descent over +-1 per-operation moves; each step prices
//     every noise-feasible neighbour and takes the lexicographically
//     best strict improvement in (area, total fractional bits,
//     latency). The neighbours are priced concurrently: the calling
//     thread and idle workers of the engine's pool share them through
//     one parallel_for (support/thread_pool.hpp), each re-widthing its
//     candidate, deriving lambda and calling engine.run(), which is safe
//     under an engine shared by concurrent searches; the engine's
//     dedup+LRU cache makes revisited candidates free.
//  3. Optional simulated-annealing refinement: a seeded xoshiro walk of
//     +-1 moves with Metropolis acceptance on area, tracking the best
//     design visited. Each move depends on the last acceptance and its
//     RNG draw, so the walk prices one candidate at a time, inline.
//     Same seed, same result -- byte for byte.
//
// Why concurrent pricing cannot move a result:
//  * Each evaluation is a pure function of (problem, model, options,
//    candidate), and a step's best is chosen by a scan in candidate
//    order, so the design does not depend on which thread priced what,
//    or when.
//  * A step's candidates are distinct. Two that re-width to the same
//    graph (capped widths, or a coefficient wider than the data) both
//    equal the step's centre, which an earlier step already priced and
//    cached, so both are cache hits whichever runs first.
//  * Steps stay sequential, so cross-step cache hits -- and hence
//    `tune_stats::reused` -- are what a serial search sees.
// For one search at a time on its engine (mwl_tune) every tune_stats
// field is therefore exact at any pool size. (`reused` assumes the
// cache keeps a step's centre for the length of the step, which only a
// cache far smaller than one step's candidates breaks.) Searches that
// share an engine concurrently (campaigns) get the same designs, but
// their `reused` depends on what the other searches cached.
//
// The engine is borrowed, so a tool can share one LRU across a whole
// budget sweep (consecutive budgets revisit the same region of the
// search space) and a campaign can share it across points.

#ifndef MWL_WORDLENGTH_OPTIMIZER_HPP
#define MWL_WORDLENGTH_OPTIMIZER_HPP

#include "engine/batch_engine.hpp"
#include "model/hardware_model.hpp"
#include "wordlength/noise_budget.hpp"
#include "wordlength/tuned_graph.hpp"

#include <cstdint>
#include <vector>

namespace mwl {

struct optimizer_options {
    noise_spec noise;            ///< budget + fractional-bit range
    double slack = 0.25;         ///< per-candidate lambda relaxation
    std::uint64_t seed = 2001;   ///< simulated-annealing stream
    std::size_t max_steps = 64;  ///< greedy descent step cap
    std::size_t anneal_iterations = 0; ///< 0 = greedy only
    double anneal_temp = 0.05;   ///< initial temperature, fraction of area
    /// Selects nothing: every search prices its candidates through the
    /// one engine.run() fan-out above. Kept only because
    /// perfbench/src/tune_sweep.cpp and perfbench/src/campaign_layer.cpp
    /// assign it.
    bool batch_neighbors = true;
};

/// The best design found: a fractional assignment plus its allocation.
struct tuned_design {
    std::vector<int> frac_bits;
    double noise_power = 0.0;  ///< achieved output noise (<= budget)
    long long total_frac = 0;  ///< sum of frac_bits
    int lambda = 0;            ///< latency constraint it was allocated at
    int latency = 0;
    double area = 0.0;
};

struct tune_stats {
    std::size_t steps = 0;           ///< accepted greedy moves
    std::size_t evaluations = 0;     ///< candidate allocations requested
    std::size_t reused = 0;          ///< of those, answered by dedup/LRU
    std::size_t anneal_accepted = 0; ///< Metropolis acceptances
    bool interrupted = false;        ///< stopped early on SIGINT/SIGTERM
};

struct tune_result {
    tuned_design best;
    tune_stats stats;
};

/// Run the search. Throws `infeasible_error` when the budget is
/// unreachable even at max_frac_bits (from the water-filling seed),
/// `precondition_error` on malformed inputs, `error` if the seed design
/// cannot be allocated. The best design is deterministic in (problem,
/// model, options) at every pool size and cache capacity; the stats are
/// too, for one search at a time on its engine (see above).
[[nodiscard]] tune_result optimize_wordlengths(const tune_problem& problem,
                                               const hardware_model& model,
                                               const optimizer_options& options,
                                               batch_engine& engine);

} // namespace mwl

#endif // MWL_WORDLENGTH_OPTIMIZER_HPP
