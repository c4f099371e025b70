// Bound critical path (paper §2.4).
//
// When a scheduled-and-bound solution violates the latency constraint, the
// refinement step needs the subset of operations whose latency reduction
// could shorten the design. The paper augments the sequencing graph's edge
// set S with serialisation edges
//
//   S^b = { (o1, o2) : start(o1) + l(o1) == start(o2),
//           o1 and o2 bound to the same resource instance }
//
// (l = bound latency) and defines the *bound critical path* Q^b as the
// operations whose ASAP and ALAP times coincide with respect to the
// augmented graph, with the augmented critical-path length as the ALAP
// horizon.

#ifndef MWL_CORE_CRITICAL_HPP
#define MWL_CORE_CRITICAL_HPP

#include "core/datapath.hpp"
#include "dfg/sequencing_graph.hpp"

#include <span>
#include <vector>

namespace mwl {

struct bound_critical_path {
    std::vector<op_id> ops;      ///< members of Q^b, ascending id
    int augmented_length = 0;    ///< critical-path length of the augmented graph
};

/// Compute Q^b for a (possibly constraint-violating) allocation.
///
/// Precondition (both overloads; `precondition_error` otherwise): the
/// allocation is a schedule. Every start step is >= 0, every bound latency
/// is >= 1, and every dependency o -> s of the sequencing graph has
/// start[s] >= start[o] + bound latency of o. Then every S and S^b edge
/// raises the start step, so ascending start is a topological order of the
/// augmented graph, which is how the ASAP/ALAP sweeps visit it.
[[nodiscard]] bound_critical_path compute_bound_critical_path(
    const sequencing_graph& graph, const datapath& path);

/// Reusable buffers for compute_bound_critical_path; pure scratch, reset
/// per call. dpalloc keeps one per thread in its workspace
/// (core/dpalloc.cpp), shared by every call on that thread.
struct critical_path_scratch {
    std::vector<std::size_t> order;        ///< ops by ascending start
    std::vector<std::size_t> instance_off; ///< instance buckets
    std::vector<std::size_t> by_instance;  ///< ops by (instance, start)
    /// S^b successors of o: sb_to[sb_begin[o] .. sb_end[o]).
    std::vector<std::size_t> sb_begin;
    std::vector<std::size_t> sb_end;
    std::vector<std::size_t> sb_to;
    std::vector<int> asap;
    std::vector<int> alap;
};

/// As above, from the raw ingredients instead of a materialised datapath:
/// `start` / `bound_latencies` per operation and `instance_of_op` grouping
/// operations onto resource instances. The DPAlloc refinement loop uses
/// this form so it never has to assemble a datapath for an allocation it
/// is about to discard. `scratch` (optional) reuses buffers across calls.
[[nodiscard]] bound_critical_path compute_bound_critical_path(
    const sequencing_graph& graph, std::span<const int> start,
    std::span<const int> bound_latencies,
    std::span<const std::size_t> instance_of_op,
    critical_path_scratch* scratch = nullptr);

} // namespace mwl

#endif // MWL_CORE_CRITICAL_HPP
