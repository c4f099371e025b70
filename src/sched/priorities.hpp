// List-scheduling priority function: longest path from an operation to any
// sink, inclusive of the operation's own latency. Scheduling ops with the
// largest remaining critical path first is the classic latency-weighted
// list-scheduling rule (De Micheli [7]).

#ifndef MWL_SCHED_PRIORITIES_HPP
#define MWL_SCHED_PRIORITIES_HPP

#include "dfg/sequencing_graph.hpp"

#include <span>
#include <vector>

namespace mwl {

/// priority[o] = latencies[o] + max over successors s of priority[s]
/// (= length of the longest dependency path starting at o).
[[nodiscard]] std::vector<int> critical_path_priorities(
    const sequencing_graph& graph, std::span<const int> latencies);

/// As above, over a caller-held topological order of `graph` (e.g. the
/// WCG's), so a looping caller sorts once. The priorities are longest
/// paths, so they do not depend on which topological order is used.
[[nodiscard]] std::vector<int> critical_path_priorities(
    const sequencing_graph& graph, std::span<const int> latencies,
    std::span<const op_id> order);

} // namespace mwl

#endif // MWL_SCHED_PRIORITIES_HPP
