#include "sched/list_scheduler.hpp"

#include "dfg/analysis.hpp"
#include "sched/priorities.hpp"
#include "support/error.hpp"

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
    result.start.assign(graph.size(), -1);
    if (graph.empty()) {
        return result;
    }

    event_schedule_workspace local;
    event_schedule_workspace& ws = scratch ? *scratch : local;

    const std::vector<int> priority =
        critical_path_priorities(graph, latencies);

    const int horizon = serial_horizon(latencies);
    // running[y * horizon + t]: type-y operations executing during step t,
    // in the workspace's flat arena.
    auto& running = ws.usage;
    running.assign(2 * static_cast<std::size_t>(horizon), 0);

    const auto try_place = [&](op_id o, int t) {
        const op_kind kind = graph.shape(o).kind();
        const std::size_t base = (kind == op_kind::add ? 0U : 1U) *
                                 static_cast<std::size_t>(horizon);
        const int limit = limits.of(kind);
        const int lat = latencies[o.value()];
        for (int u = t; u < t + lat; ++u) {
            if (running[base + static_cast<std::size_t>(u)] + 1 > limit) {
                return false;
            }
        }
        for (int u = t; u < t + lat; ++u) {
            ++running[base + static_cast<std::size_t>(u)];
        }
        return true;
    };
    event_schedule(graph, latencies, priority, horizon, result.start, ws,
                   try_place);

    result.length = schedule_length(graph, latencies, result.start);
    return result;
}

} // namespace mwl
