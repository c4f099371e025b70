// The one list-scheduling engine, shared by the classic (Eqn. 2) and
// incomplete-wordlength (Eqn. 3') schedulers.
//
// Both constraints are one accounting over "members". Operation o occupies
// the members in its row, adding scale / |row(o)| units to each of them at
// every step it executes, and member m may never hold more than budget[m]
// units at any step. Eqn. 3' (sched/incomplete_scheduler.hpp) takes S(o),
// the scheduling-set members compatible with o, as the row, the lcm of
// the |S(o)| as the scale and capacity x scale as every budget. Eqn. 2
// (sched/list_scheduler.hpp) is the same accounting with one member per
// operation type: each op's type is its one-member row, the scale is 1 and
// the budgets are N_add and N_mul.
//
// Readiness comes from events, not rescans: each operation carries a
// pending-predecessor counter, and when its last predecessor completes it
// is dropped into a time bucket at its earliest start step. A pass is
// O(V + E) plus the placement work below, where the reference schedulers
// in tests/oracle rescan the whole graph at every control step.
//
// Placement is a signature tournament that places exactly as the
// reference's in-order sweep, which tries every ready operation at step t
// in (priority desc, op id asc) order and places each one that fits. Two
// facts make the shortcut exact:
//
// 1. Placements only ever commit at the current step t, so every committed
//    occupancy window starts at or before t. For u2 > u1 >= t a window
//    covering u2 therefore covers u1 as well: member occupancy at or
//    beyond t is NON-INCREASING in the step. A window [t, t+lat) fits iff
//    its FIRST step fits -- the probe is one comparison per member instead
//    of a lat-step scan.
// 2. Operations with the same row (the same "signature") are
//    interchangeable to the resource test: identical members, identical
//    share. Occupancy only grows during a step, so once the highest-ranked
//    operation of a signature fails at t, every lower-ranked operation of
//    that signature fails at t too.
//
// The ready pool is therefore one binary heap of packed (priority, id) keys
// per signature, and a step is a tournament over the heap fronts: take the
// globally smallest key among signatures not yet stuck at t, probe it at
// step t only, and either place it or mark its whole signature stuck. A
// lazy global min-heap over signature fronts makes each selection O(log)
// amortized. Signatures are keyed by their row folded into 64 bits (member
// mi sets bit mi % 64, exact up to 64 members), and each fold match is
// confirmed by comparing the rows, so covers of any width share one path.
// Regression-tested against the rescan schedulers of tests/oracle
// (tests/incremental_regression_test.cpp,
// tests/large_graph_identity_test.cpp).
//
// All per-pass buffers live in an event_schedule_workspace, so a caller
// iterating schedule/refine rounds (core/dpalloc.cpp keeps one per thread)
// pays no per-iteration allocations: vectors are cleared, never shrunk, and
// the `usage` occupancy rows are one flat arena indexed
// [member * horizon + step].

#ifndef MWL_SCHED_EVENT_ENGINE_HPP
#define MWL_SCHED_EVENT_ENGINE_HPP

#include "dfg/sequencing_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace mwl {

/// The one scheduling engine (the full-rescan reference is in tests/oracle),
/// kept as schedule_incomplete's parameter for perfbench/src/replay.cpp.
enum class sched_engine {
    event,
};

/// Each operation's member row as a flat CSR table: row(o) lists the member
/// indices operation o occupies, ascending.
struct member_table {
    std::span<const std::uint32_t> off; ///< row o is flat[off[o], off[o+1])
    std::span<const std::size_t> flat;

    [[nodiscard]] std::span<const std::size_t> row(std::size_t o) const
    {
        return flat.subspan(off[o], off[o + 1] - off[o]);
    }
};

/// Reusable buffers for event_schedule. Safe to reuse across passes of
/// different sizes; event_schedule reinitialises all of its own state per
/// pass and is the only writer of every member.
struct event_schedule_workspace {
    std::vector<int> pending;            ///< unscheduled predecessor count
    std::vector<int> ready_step;         ///< max completion step of preds
    std::vector<std::vector<op_id>> bucket; ///< ops becoming ready at step t
    std::vector<std::int64_t> usage;     ///< flat occupancy arena
    /// True iff `usage` is known to be all zeros, so a pass may skip its
    /// clear. A pass clears it before its first write and sets it again
    /// only after restoring every cell it wrote, so a pass that throws
    /// part-way leaves the next one a full clear.
    bool usage_zeroed = false;
    /// Signature table: the folded row, an operation holding the row (for
    /// the confirming comparison) and the share, per distinct row.
    std::vector<std::uint64_t> sig_fold;
    std::vector<std::uint32_t> sig_rep;
    std::vector<std::int64_t> sig_share;
    std::vector<std::uint32_t> sig_of_op;
    /// Per-signature ready heaps of packed (priority, id) keys.
    std::vector<std::vector<std::uint64_t>> sig_heap;
    std::vector<int> sig_stuck; ///< the step a signature last got stuck at
    /// Lazy global min-heap of (front key, signature) entries, stale ones
    /// discarded on pop.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> front_heap;
    std::vector<std::uint32_t> stuck_list; ///< signatures stuck at step t
};

/// Run one list-scheduling pass over `graph`. `latencies[o]` is the
/// latency assumed for o and `priority[o]` its list-scheduling priority
/// (larger = first, op id breaks ties). Operation o adds
/// scale / |members.row(o)| to each member of its row at every step it
/// executes, and no member m may exceed `budget[m]`; every row is
/// non-empty, its size divides `scale`, and budget[m] + scale must fit in
/// 64 bits. `start` is resized and filled with each operation's start step.
void event_schedule(const sequencing_graph& graph,
                    std::span<const int> latencies,
                    std::span<const int> priority, const member_table& members,
                    std::int64_t scale, std::span<const std::int64_t> budget,
                    std::vector<int>& start, event_schedule_workspace& ws);

/// Schedule horizon shared by both schedulers: serialising everything is
/// always feasible, and the extra max-latency slack keeps occupancy probes
/// in range near the end.
[[nodiscard]] inline int serial_horizon(std::span<const int> latencies)
{
    int horizon = 0;
    int max_latency = 0;
    for (const int latency : latencies) {
        horizon += latency;
        max_latency = std::max(max_latency, latency);
    }
    return horizon + max_latency;
}

} // namespace mwl

#endif // MWL_SCHED_EVENT_ENGINE_HPP
