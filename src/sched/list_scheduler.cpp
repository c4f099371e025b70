#include "sched/list_scheduler.hpp"

#include "dfg/analysis.hpp"
#include "sched/priorities.hpp"
#include "support/error.hpp"

#include <array>
#include <numeric>

namespace mwl {

list_schedule_result list_schedule(const sequencing_graph& graph,
                                   std::span<const int> latencies,
                                   const type_limits& limits,
                                   event_schedule_workspace* scratch)
{
    require(latencies.size() == graph.size(),
            "latency vector size must equal the number of operations");
    require(limits.add >= 1 && limits.mul >= 1,
            "resource limits must be at least 1");
    for (const int latency : latencies) {
        require(latency >= 1, "operation latencies must be >= 1");
    }

    list_schedule_result result;
    if (graph.empty()) {
        return result;
    }

    event_schedule_workspace local;
    event_schedule_workspace& ws = scratch ? *scratch : local;

    // Eqn. 2 as the engine's member accounting: member 0 is the adder
    // type and member 1 the multiplier type, each op's row is its own
    // type, and a unit share (scale 1) runs against N_add and N_mul.
    std::vector<std::uint32_t> off(graph.size() + 1);
    std::iota(off.begin(), off.end(), 0U);
    std::vector<std::size_t> type_of(graph.size());
    for (const op_id o : graph.all_ops()) {
        type_of[o.value()] = graph.shape(o).kind() == op_kind::add ? 0 : 1;
    }
    const std::array<std::int64_t, 2> budget{limits.add, limits.mul};

    event_schedule(graph, latencies,
                   critical_path_priorities(graph, latencies),
                   member_table{off, type_of}, 1, budget, result.start, ws);
    result.length = schedule_length(graph, latencies, result.start);
    return result;
}

} // namespace mwl
