// Classic resource-constrained list scheduling with the standard per-type
// constraint (paper Eqn. 2):  for every control step t and operation type y,
// the number of type-y operations executing at t is at most N_y.
//
// The paper shows this constraint is *too relaxed* for multiple-wordlength
// systems (§2.2); it is provided here as the comparison point and for the
// ablation benches, while sched/incomplete_scheduler.hpp implements the
// paper's replacement.

#ifndef MWL_SCHED_LIST_SCHEDULER_HPP
#define MWL_SCHED_LIST_SCHEDULER_HPP

#include "dfg/sequencing_graph.hpp"
#include "sched/event_engine.hpp"

#include <limits>
#include <span>
#include <vector>

namespace mwl {

/// Per-operation-kind resource limits (N_y of Eqn. 2).
struct type_limits {
    int add = std::numeric_limits<int>::max();
    int mul = std::numeric_limits<int>::max();
};

struct list_schedule_result {
    std::vector<int> start; ///< start control step per operation
    int length = 0;         ///< makespan under the given latencies
};

/// Latency-weighted list scheduling on the event engine. `latencies[o]` is
/// the latency assumed for operation o. Deterministic (critical-path
/// priority, op-id tie-break); places exactly as the full-rescan reference
/// in tests/oracle does. Throws `precondition_error` on non-positive limits
/// or latency/graph size mismatch. `scratch` (optional) reuses the event
/// engine's buffers across calls.
[[nodiscard]] list_schedule_result list_schedule(
    const sequencing_graph& graph, std::span<const int> latencies,
    const type_limits& limits, event_schedule_workspace* scratch = nullptr);

} // namespace mwl

#endif // MWL_SCHED_LIST_SCHEDULER_HPP
