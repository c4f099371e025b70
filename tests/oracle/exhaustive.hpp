// Independent exhaustive optimum for tiny instances.
//
// Part of the test-only mwl_oracle library: ilp_test uses it to
// cross-validate the ILP path (formulation + simplex + branch and bound)
// and to sanity-bound the heuristics. It enumerates every (resource type,
// start time) assignment per operation with precedence pruning, evaluating
// the needed instance count per type as the maximum time-overlap (exact
// for equal-length intervals). Exponential by design -- callers must keep
// |O| small (<= ~6).

#ifndef MWL_TESTS_ORACLE_EXHAUSTIVE_HPP
#define MWL_TESTS_ORACLE_EXHAUSTIVE_HPP

#include "dfg/sequencing_graph.hpp"
#include "model/hardware_model.hpp"

#include <cstdint>
#include <optional>

namespace mwl::oracle {

/// Minimum total area over all feasible schedules/bindings/wordlength
/// selections under `lambda`, or nullopt if the enumeration exceeds
/// `max_states` (safety valve) or no feasible solution exists... which
/// cannot happen for lambda >= the graph's minimum latency.
[[nodiscard]] std::optional<double> exhaustive_optimal_area(
    const sequencing_graph& graph, const hardware_model& model, int lambda,
    std::uint64_t max_states = 50000000);

} // namespace mwl::oracle

#endif // MWL_TESTS_ORACLE_EXHAUSTIVE_HPP
