// Concurrent Pareto sweep.
//
// `pareto_sweep` (src/core/pareto.hpp) walks lambda serially because its
// two pieces of state -- the dominance frontier and the patience counter --
// are sequential. But the expensive part, one dpalloc per lambda, is
// independent across lambdas. This sweep partitions the lambda range into
// contiguous chunks, computes them with one `parallel_for` on a thread
// pool (so a sweep may itself be an index of another fan-out on the same
// pool), then replays the serial sweep's *decision sequence* over the
// precomputed results, producing a frontier byte-identical to
// `pareto_sweep` on every input (asserted across pool sizes by
// tests/engine_test.cpp and bench/batch_throughput.cpp).
//
// The range is split adaptively: the first wave covers just enough lambdas
// for the patience rule to be able to fire, and each following wave doubles
// (a range that survives early waves tends to run long). Work past the
// serial sweep's stopping point -- at most the final wave -- is computed
// and discarded; wasted speculation, never a changed answer.

#ifndef MWL_ENGINE_PARALLEL_PARETO_HPP
#define MWL_ENGINE_PARALLEL_PARETO_HPP

#include "core/pareto.hpp"
#include "support/thread_pool.hpp"

namespace mwl {

/// `pareto_sweep(graph, model, options)`, fanned out across `pool`.
/// Byte-identical to the serial sweep; never empty for a non-empty graph.
[[nodiscard]] std::vector<pareto_point> parallel_pareto_sweep(
    const sequencing_graph& graph, const hardware_model& model,
    const pareto_options& options, thread_pool& pool);

/// Convenience overload owning a transient pool of `jobs` workers
/// (0 = hardware concurrency).
[[nodiscard]] std::vector<pareto_point> parallel_pareto_sweep(
    const sequencing_graph& graph, const hardware_model& model,
    const pareto_options& options = {}, std::size_t jobs = 0);

} // namespace mwl

#endif // MWL_ENGINE_PARALLEL_PARETO_HPP
