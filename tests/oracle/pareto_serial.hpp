// The serial Pareto sweep: the reference the engine sweep is compared
// against. Part of the test-only mwl_oracle library (CMakeLists.txt); the
// tests and bench/batch_throughput link it, libmwl never does.
//
// It is the sweep as the paper runs it: one dpalloc per lambda in
// ascending order, each folded into the frontier with core/pareto.hpp's
// `frontier_admits` / `frontier_insert`, stopping after `patience`
// consecutive non-improving lambdas. No engine, no pool, no cache.

#ifndef MWL_TESTS_ORACLE_PARETO_SERIAL_HPP
#define MWL_TESTS_ORACLE_PARETO_SERIAL_HPP

#include "core/pareto.hpp"

#include <vector>

namespace mwl::oracle {

/// pareto_sweep (engine/pareto_sweep.hpp) on the calling thread, one
/// direct dpalloc call per lambda: the same frontier, by contract.
[[nodiscard]] std::vector<pareto_point> pareto_sweep_serial(
    const sequencing_graph& graph, const hardware_model& model,
    const pareto_options& options = {});

} // namespace mwl::oracle

#endif // MWL_TESTS_ORACLE_PARETO_SERIAL_HPP
