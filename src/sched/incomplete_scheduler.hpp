// Scheduling with incomplete wordlength information (paper §2.2).
//
// The scheduler is a latency-weighted list scheduler whose resource test is
// the paper's Eqn. 3 (reconstructed as Eqn. 3' -- see DESIGN.md §2.2):
// given the minimum-cardinality scheduling set S covering all operations,
// for every member s of S and control step t
//
//     sum over o in O(s) executing at t of  1/|S(o)|   <=   capacity(s)
//
// where S(o) = members of S compatible with o. Operations compatible with
// several members share their usage equally between them (the "division" in
// the paper). The accounting is done in exact integer arithmetic (scaled by
// the lcm of the |S(o)| values) so no epsilon tuning can change a schedule.
//
// With capacity 1 per member this is DPAlloc's maximal-sharing mode; the
// capacity parameter exists for the driver's escalation path (DESIGN.md,
// "completion for parallelism-starved instances").

#ifndef MWL_SCHED_INCOMPLETE_SCHEDULER_HPP
#define MWL_SCHED_INCOMPLETE_SCHEDULER_HPP

#include "sched/event_engine.hpp"
#include "sched/scheduling_set.hpp"
#include "support/arena.hpp"
#include "wcg/wcg.hpp"

#include <cstdint>
#include <vector>

namespace mwl {

struct incomplete_schedule_result {
    std::vector<int> start;             ///< start step per operation
    int length = 0;                     ///< makespan under upper-bound latencies
    std::vector<res_id> scheduling_set; ///< the S that was used
    bool cover_proven_minimum = true;
};

/// Cross-call state for schedule_incomplete: the event engine's workspace
/// (so repeated passes allocate nothing) and the scheduling-set memo keyed
/// on the WCG's serial and edge version. Everything else is rewritten per
/// call, so one instance may serve any sequence of WCGs: dpalloc keeps one
/// per thread in its workspace (core/dpalloc.cpp).
struct incomplete_sched_scratch {
    event_schedule_workspace ws;
    scheduling_set_cache cover_cache;
    /// S(o) as a flat CSR table: offsets here, row storage and the member
    /// budgets handed out by `arena` (rewound wholesale each call -- no
    /// per-op vectors).
    std::vector<std::uint32_t> members_off;
    std::vector<std::uint32_t> members_cursor;
    bump_arena arena;
};

/// Schedule all operations of `wcg.graph()` using the latency upper bounds
/// L_o derived from the current H edges. `capacity` is the number of
/// resource instances each scheduling-set member may represent (>= 1).
/// `scratch` (optional) carries reusable buffers and the scheduling-set
/// memo across calls. Runs on the event engine (sched/event_engine.hpp) at
/// any cover width and places exactly as the full-rescan reference in
/// tests/oracle does. Throws `error` when the exact accounting's scale,
/// the lcm of the |S(o)| values, overflows 64 bits, rather than schedule
/// on truncated shares. The one-value `sched_engine` selects nothing (kept
/// for perfbench/src/replay.cpp).
[[nodiscard]] incomplete_schedule_result schedule_incomplete(
    const wordlength_compatibility_graph& wcg, int capacity = 1,
    incomplete_sched_scratch* scratch = nullptr,
    sched_engine engine = sched_engine::event);

} // namespace mwl

#endif // MWL_SCHED_INCOMPLETE_SCHEDULER_HPP
