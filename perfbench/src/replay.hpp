// The DPAlloc loop replayed through its public phase calls, one span per
// phase, so a traced run can split allocation time by layer without any
// instrumentation inside the library:
//
//   wcg.build            wordlength_compatibility_graph(graph, model)
//   sched.cover          min_scheduling_set(wcg, scratch.cover_cache)
//   sched.schedule       schedule_incomplete (its own cover lookup is then a
//                        memo hit on the same edge version)
//   bind.bind_select     bind_select
//   core.critical        compute_bound_critical_path
//   core.refine_select   candidate filter, the §2.4 metric and refine_op
//
// The replay follows core/dpalloc.cpp with default options line for line.
// `same_allocation` compares it against a real dpalloc() call; a traced run
// fails when they differ, so the per-layer split always describes the
// program that was measured end to end.

#ifndef MWL_PERFBENCH_REPLAY_HPP
#define MWL_PERFBENCH_REPLAY_HPP

#include "bench.hpp"
#include "core/dpalloc.hpp"
#include "trace.hpp"

#include <string>

namespace perfbench {

[[nodiscard]] mwl::dpalloc_result replay_dpalloc(
    const mwl::sequencing_graph& graph, const mwl::hardware_model& model,
    int lambda, tracer* trace, std::uint64_t request = 0);

/// Empty when `a` and `b` agree on iterations, refinements, escalations,
/// start times, instance grouping, instance shapes and area; otherwise a
/// description of the first difference.
[[nodiscard]] std::string same_allocation(const mwl::dpalloc_result& a,
                                          const mwl::dpalloc_result& b);

/// Counts and wall times accumulated over the replayed jobs of one run.
struct replay_totals {
    std::size_t replayed = 0;
    std::size_t iterations = 0;
    std::size_t refinements = 0;
    std::size_t escalations = 0;
    double dpalloc_s = 0.0; ///< untraced dpalloc() wall time
    double replay_s = 0.0;  ///< traced replay wall time
};

/// Time dpalloc() untraced, replay the same job traced, and fail the run
/// unless both agree exactly. Returns the dpalloc() result.
mwl::dpalloc_result replay_and_check(const mwl::sequencing_graph& graph,
                                     const mwl::hardware_model& model,
                                     int lambda, tracer& trace,
                                     replay_totals& totals, report& out);

/// Set the dpalloc phase metrics (per replayed job) from the spans.
void report_replay(const tracer& trace, const replay_totals& totals,
                   report& out);

} // namespace perfbench

#endif // MWL_PERFBENCH_REPLAY_HPP
