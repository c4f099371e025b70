// Area/latency design-space exploration, priced through the batch engine.
//
// The latency constraint is the designer's knob: sweeping lambda from
// lambda_min upward and keeping the non-dominated (latency, area) points
// yields the trade-off curve a designer actually chooses from (the paper's
// Fig. 3 and Table 2 sweep lambda the same way). The sweep stops early
// once `patience` consecutive lambdas fail to improve the area -- the
// point past which more slack no longer helps.
//
// The loop state -- the frontier and the patience counter -- is
// sequential, but the expensive part, one allocation per lambda, is not.
// So the sweep prices lambdas in waves: one `parallel_for` over
// `engine.run()` per wave, then the serial fold over the wave's results in
// lambda order (`frontier_admits`, `frontier_insert` and the patience
// counter, core/pareto.hpp). The fold alone decides the frontier, so it
// cannot depend on the pool size. The first wave is just wide enough for
// the patience rule to fire (max(pool size, patience + 1) lambdas), and
// each later wave doubles; lambdas past the fold's stopping point are
// speculation whose results are ignored.
//
// Every lambda is an engine job, so identical sweeps share one execution
// per lambda, and so do single allocations at a lambda a sweep visits.

#ifndef MWL_ENGINE_PARETO_SWEEP_HPP
#define MWL_ENGINE_PARETO_SWEEP_HPP

#include "core/pareto.hpp"
#include "engine/batch_engine.hpp"

#include <vector>

namespace mwl {

/// Non-dominated (latency, area) allocations for lambda in
/// [lambda_min, relaxed_lambda(lambda_min, options.max_slack)], ascending
/// latency, strictly descending area; empty for an empty graph, never
/// empty otherwise. Each lambda runs as one `engine.run()` job on
/// `engine.pool()`, so a sweep may itself be an index of another fan-out
/// on that pool. Throws `precondition_error` on a negative slack, a
/// patience below 1 or a range past INT_MAX, and `error` with the
/// engine's message when a lambda the fold reaches fails.
[[nodiscard]] std::vector<pareto_point> pareto_sweep(
    const sequencing_graph& graph, const hardware_model& model,
    const pareto_options& options, batch_engine& engine);

} // namespace mwl

#endif // MWL_ENGINE_PARETO_SWEEP_HPP
