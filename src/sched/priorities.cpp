#include "sched/priorities.hpp"

#include "support/error.hpp"

#include <algorithm>

namespace mwl {

std::vector<int> critical_path_priorities(const sequencing_graph& graph,
                                          std::span<const int> latencies)
{
    return critical_path_priorities(graph, latencies,
                                    graph.topological_order());
}

std::vector<int> critical_path_priorities(const sequencing_graph& graph,
                                          std::span<const int> latencies,
                                          std::span<const op_id> order)
{
    require(latencies.size() == graph.size(),
            "latency vector size must equal the number of operations");
    require(order.size() == graph.size(),
            "topological order must list every operation");
    std::vector<int> priority(graph.size(), 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const op_id o = *it;
        int best_succ = 0;
        for (const op_id s : graph.successors(o)) {
            best_succ = std::max(best_succ, priority[s.value()]);
        }
        priority[o.value()] = latencies[o.value()] + best_succ;
    }
    return priority;
}

} // namespace mwl
