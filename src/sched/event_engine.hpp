// Event-driven list-scheduling engine shared by the classic (Eqn. 2) and
// incomplete-wordlength (Eqn. 3') schedulers.
//
// The reference schedulers rescan the whole graph at every control step to
// find ready operations -- O(T * N * deg) for a schedule of length T. This
// engine discovers readiness by *events* instead: each operation carries a
// pending-predecessor counter, and when its last predecessor completes it is
// dropped into a time bucket at its earliest start step. A step then only
// touches the operations that are actually ready, making one full pass
// O(V + E + sum over steps of |ready|), and steps with nothing ready are
// skipped outright by jumping to the next bucket event.
//
// The engine reproduces the reference schedulers' output exactly: at every
// step the ready pool is sorted by the same (priority desc, op id asc) total
// order the reference scan uses, and placement attempts happen in that
// order. Regression-tested against the rescan schedulers of tests/oracle.
//
// All per-pass buffers live in an event_schedule_workspace so a caller
// iterating schedule/refine rounds (core/dpalloc.cpp, which keeps one per
// thread) pays no per-iteration allocations: vectors are cleared, never
// shrunk, and the `usage` / `running` occupancy rows are flat arenas
// indexed [row * horizon + step].

#ifndef MWL_SCHED_EVENT_ENGINE_HPP
#define MWL_SCHED_EVENT_ENGINE_HPP

#include "dfg/sequencing_graph.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

namespace mwl {

/// The one scheduling engine (the full-rescan reference is in tests/oracle),
/// kept as schedule_incomplete's parameter for perfbench/src/replay.cpp.
enum class sched_engine {
    event,
};

/// Reusable buffers for event_schedule and its callers. Safe to reuse
/// across passes of different sizes; event_schedule reinitialises all of
/// its own state per pass.
struct event_schedule_workspace {
    std::vector<int> pending;            ///< unscheduled predecessor count
    std::vector<int> ready_step;         ///< max completion step of preds
    std::vector<std::vector<op_id>> bucket; ///< ops becoming ready at step t
    std::vector<op_id> active;           ///< ready but not yet placed
    std::vector<op_id> merged;           ///< merge buffer for arrivals
    std::vector<std::int64_t> usage;     ///< flat occupancy arena (callers)
    /// True iff `usage` is known to be all zeros, so a caller may skip its
    /// clear. Every writer of `usage` clears it first; only one that
    /// restores every cell it wrote (schedule_incomplete's fast path) sets
    /// it again, after the restore.
    bool usage_zeroed = false;
};

/// Run one event-driven list-scheduling pass.
///
/// `try_place(o, t)` must return true iff operation o fits at step t under
/// the caller's resource constraint, committing its occupancy on success.
/// `start` is resized and filled with the chosen start step per operation.
/// `priority` is the list-scheduling priority (larger = first).
template <typename TryPlace>
void event_schedule(const sequencing_graph& graph,
                    std::span<const int> latencies,
                    std::span<const int> priority, int horizon,
                    std::vector<int>& start, event_schedule_workspace& ws,
                    TryPlace&& try_place)
{
    const std::size_t n = graph.size();
    start.assign(n, -1);
    if (n == 0) {
        return;
    }

    ws.pending.assign(n, 0);
    ws.ready_step.assign(n, 0);
    if (ws.bucket.size() < static_cast<std::size_t>(horizon)) {
        ws.bucket.resize(static_cast<std::size_t>(horizon));
    }
    // Only this pass's horizon: no bucket beyond it is read, and a reused
    // workspace keeps every bucket its largest pass needed.
    for (int t = 0; t < horizon; ++t) {
        ws.bucket[static_cast<std::size_t>(t)].clear();
    }
    ws.active.clear();

    for (const op_id o : graph.all_ops()) {
        const std::size_t n_preds = graph.predecessors(o).size();
        ws.pending[o.value()] = static_cast<int>(n_preds);
        if (n_preds == 0) {
            ws.bucket[0].push_back(o);
        }
    }

    const auto by_priority = [&](op_id a, op_id b) {
        if (priority[a.value()] != priority[b.value()]) {
            return priority[a.value()] > priority[b.value()];
        }
        return a < b;
    };

    std::size_t scheduled = 0;
    for (int t = 0; scheduled < n;) {
        MWL_ASSERT(t < horizon);
        auto& arrivals = ws.bucket[static_cast<std::size_t>(t)];
        if (!arrivals.empty()) {
            // Merge the (few) arrivals into the already-sorted survivors:
            // the (priority, id) order is a strict total order, so the
            // merged pool equals a full re-sort of the union. Merging goes
            // through a reused buffer -- no per-step allocation.
            std::sort(arrivals.begin(), arrivals.end(), by_priority);
            if (ws.active.empty()) {
                ws.active.swap(arrivals);
            } else {
                ws.merged.clear();
                std::merge(ws.active.begin(), ws.active.end(),
                           arrivals.begin(), arrivals.end(),
                           std::back_inserter(ws.merged), by_priority);
                ws.active.swap(ws.merged);
            }
            arrivals.clear();
        }
        if (ws.active.empty()) {
            // Nothing can be placed before the next readiness event.
            ++t;
            while (t < horizon &&
                   ws.bucket[static_cast<std::size_t>(t)].empty()) {
                ++t;
            }
            continue;
        }

        std::size_t kept = 0;
        for (const op_id o : ws.active) {
            if (!try_place(o, t)) {
                ws.active[kept++] = o;
                continue;
            }
            start[o.value()] = t;
            ++scheduled;
            const int done = t + latencies[o.value()];
            for (const op_id s : graph.successors(o)) {
                ws.ready_step[s.value()] =
                    std::max(ws.ready_step[s.value()], done);
                if (--ws.pending[s.value()] == 0) {
                    ws.bucket[static_cast<std::size_t>(
                                  ws.ready_step[s.value()])]
                        .push_back(s);
                }
            }
        }
        ws.active.resize(kept);
        ++t;
    }
}

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
