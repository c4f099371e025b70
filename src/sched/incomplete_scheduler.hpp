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

#include <utility>
#include <vector>

namespace mwl {

struct incomplete_schedule_result {
    std::vector<int> start;             ///< start step per operation
    int length = 0;                     ///< makespan under upper-bound latencies
    std::vector<res_id> scheduling_set; ///< the S that was used
    bool cover_proven_minimum = true;
};

/// Cross-iteration state for schedule_incomplete: the event-engine buffers
/// and usage arena (so repeated passes allocate nothing) and the
/// scheduling-set memo keyed on the WCG edge version. One instance lives
/// for the duration of a DPAlloc run (core/dpalloc.cpp).
struct incomplete_sched_scratch {
    event_schedule_workspace ws;
    scheduling_set_cache cover_cache;
    /// S(o) as a flat CSR table: offsets here, row storage handed out by
    /// `arena` (rewound wholesale each call -- no per-op vectors).
    std::vector<std::uint32_t> members_off;
    std::vector<std::uint32_t> members_cursor;
    bump_arena arena;
    /// Signature-tournament fast path (see incomplete_scheduler.cpp):
    /// per-signature ready heaps of packed (priority, id) keys plus the
    /// signature table itself.
    std::vector<std::vector<std::uint64_t>> sig_heap;
    std::vector<std::uint64_t> sig_mask;
    std::vector<std::int64_t> sig_share;
    std::vector<std::uint32_t> sig_of_op;
    std::vector<int> sig_stuck;
    /// Lazy global min-heap over signature fronts: (front key, signature)
    /// entries, stale ones discarded on pop. Selection is O(log) per
    /// attempt instead of a scan over every signature.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> front_heap;
    std::vector<std::uint32_t> stuck_list; ///< signatures stuck at step t
    /// True iff ws.usage is known to be all zeros (the fast path restores
    /// exactly its committed windows before returning, so a looping caller
    /// never pays a full-arena clear).
    bool usage_zeroed = false;
};

/// Schedule all operations of `wcg.graph()` using the latency upper bounds
/// L_o derived from the current H edges. `capacity` is the number of
/// resource instances each scheduling-set member may represent (>= 1).
/// `scratch` (optional) carries reusable buffers and the scheduling-set
/// memo across calls. Covers of up to 64 members take the signature
/// tournament, wider ones the generic event sweep; both place exactly as
/// the full-rescan reference in tests/oracle does. The one-value
/// `sched_engine` selects nothing (kept for perfbench/src/replay.cpp).
[[nodiscard]] incomplete_schedule_result schedule_incomplete(
    const wordlength_compatibility_graph& wcg, int capacity = 1,
    incomplete_sched_scratch* scratch = nullptr,
    sched_engine engine = sched_engine::event);

} // namespace mwl

#endif // MWL_SCHED_INCOMPLETE_SCHEDULER_HPP
