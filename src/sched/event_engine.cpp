#include "sched/event_engine.hpp"

#include "support/error.hpp"

#include <functional>

namespace mwl {

void event_schedule(const sequencing_graph& graph,
                    std::span<const int> latencies,
                    std::span<const int> priority, const member_table& members,
                    std::int64_t scale, std::span<const std::int64_t> budget,
                    std::vector<int>& start, event_schedule_workspace& ws)
{
    const std::size_t n = graph.size();
    start.assign(n, -1);
    if (n == 0) {
        return;
    }
    MWL_ASSERT(n <= 0xffffffffU); // packed-key id width

    const int horizon = serial_horizon(latencies);
    const auto at = [&](std::size_t mi, int t) {
        return mi * static_cast<std::size_t>(horizon) +
               static_cast<std::size_t>(t);
    };
    // All-zero invariant: the pass re-zeroes exactly the windows it
    // committed before returning, so a looping caller never pays the
    // full-arena memset. Dirty from the first write until the restore loop
    // ends.
    const std::size_t usage_size =
        budget.size() * static_cast<std::size_t>(horizon);
    if (ws.usage.size() < usage_size || !ws.usage_zeroed) {
        ws.usage.assign(std::max(ws.usage.size(), usage_size), 0);
    }
    ws.usage_zeroed = false;
    auto& usage = ws.usage;

    ws.pending.assign(n, 0);
    ws.ready_step.assign(n, 0);
    if (ws.bucket.size() < static_cast<std::size_t>(horizon)) {
        ws.bucket.resize(static_cast<std::size_t>(horizon));
    }
    // Only this pass's horizon: the pass reads no bucket beyond it, and a
    // thread's workspace keeps every bucket its largest graph needed.
    for (int t = 0; t < horizon; ++t) {
        ws.bucket[static_cast<std::size_t>(t)].clear();
    }

    // Signature table: one entry per distinct row, keyed by the row folded
    // into 64 bits and confirmed by one row comparison (folds collide only
    // past 64 members). Linear lookup -- the distinct-signature count is
    // tiny next to n.
    ws.sig_fold.clear();
    ws.sig_rep.clear();
    ws.sig_share.clear();
    ws.sig_of_op.assign(n, 0);
    for (const op_id o : graph.all_ops()) {
        const auto row = members.row(o.value());
        std::uint64_t fold = 0;
        for (const std::size_t mi : row) {
            fold |= std::uint64_t{1} << (mi % 64);
        }
        std::uint32_t si = 0;
        while (si < ws.sig_fold.size() &&
               (ws.sig_fold[si] != fold ||
                !std::ranges::equal(members.row(ws.sig_rep[si]), row))) {
            ++si;
        }
        if (si == ws.sig_fold.size()) {
            ws.sig_fold.push_back(fold);
            ws.sig_rep.push_back(static_cast<std::uint32_t>(o.value()));
            ws.sig_share.push_back(scale /
                                   static_cast<std::int64_t>(row.size()));
        }
        ws.sig_of_op[o.value()] = si;
    }
    const std::size_t n_sigs = ws.sig_fold.size();
    if (ws.sig_heap.size() < n_sigs) {
        ws.sig_heap.resize(n_sigs);
    }
    for (std::size_t si = 0; si < n_sigs; ++si) {
        ws.sig_heap[si].clear();
    }
    ws.sig_stuck.assign(n_sigs, -1); // stamped with t when stuck at t

    for (const op_id o : graph.all_ops()) {
        const std::size_t n_preds = graph.predecessors(o).size();
        ws.pending[o.value()] = static_cast<int>(n_preds);
        if (n_preds == 0) {
            ws.bucket[0].push_back(o);
        }
    }

    // Min-heap over packed keys: complementing the priority makes larger
    // priorities smaller keys, and the id in the low bits breaks ties
    // ascending -- the sweep's (priority desc, id asc) total order.
    const auto key_of = [&](op_id o) {
        return (static_cast<std::uint64_t>(
                    ~static_cast<std::uint32_t>(priority[o.value()]))
                << 32) |
               static_cast<std::uint64_t>(o.value());
    };
    const auto heap_greater = std::greater<std::uint64_t>{};

    // Global selection structure: a lazy min-heap of (front key, signature)
    // entries. Invariant: every signature with a non-empty ready heap that
    // is not stuck at the current step has an entry carrying its CURRENT
    // front (an entry is pushed on every front change; signatures stuck at
    // t re-enter when t advances). Keys are unique, so an entry is live iff
    // it equals its signature's front; stale duplicates are discarded on
    // pop. Selection therefore returns exactly the linear scan's argmin.
    auto& fronts = ws.front_heap;
    auto& stuck_list = ws.stuck_list;
    fronts.clear();
    stuck_list.clear();
    const auto front_greater = [](const std::pair<std::uint64_t, std::uint32_t>& a,
                                  const std::pair<std::uint64_t, std::uint32_t>& b) {
        return a.first > b.first;
    };
    const auto push_front = [&](std::uint32_t si) {
        fronts.emplace_back(ws.sig_heap[si].front(), si);
        std::push_heap(fronts.begin(), fronts.end(), front_greater);
    };

    std::size_t scheduled = 0;
    for (int t = 0; scheduled < n; ++t) {
        MWL_ASSERT(t < horizon);
        for (const std::uint32_t si : stuck_list) {
            if (!ws.sig_heap[si].empty()) {
                push_front(si);
            }
        }
        stuck_list.clear();
        auto& arrivals = ws.bucket[static_cast<std::size_t>(t)];
        for (const op_id o : arrivals) {
            const std::uint64_t key = key_of(o);
            auto& heap = ws.sig_heap[ws.sig_of_op[o.value()]];
            heap.push_back(key);
            std::push_heap(heap.begin(), heap.end(), heap_greater);
            if (heap.front() == key) { // new front
                push_front(ws.sig_of_op[o.value()]);
            }
        }
        arrivals.clear();

        for (;;) {
            std::uint64_t best_key = 0;
            std::uint32_t best_sig = 0;
            bool found = false;
            while (!fronts.empty()) {
                const auto top = fronts.front();
                std::pop_heap(fronts.begin(), fronts.end(), front_greater);
                fronts.pop_back();
                const std::uint32_t si = top.second;
                if (ws.sig_stuck[si] == t || ws.sig_heap[si].empty() ||
                    ws.sig_heap[si].front() != top.first) {
                    continue; // stuck this step (re-enters at t+1) or stale
                }
                best_key = top.first;
                best_sig = si;
                found = true;
                break;
            }
            if (!found) {
                break;
            }
            const std::int64_t share = ws.sig_share[best_sig];
            const op_id o{static_cast<std::size_t>(best_key & 0xffffffffU)};
            const auto row = members.row(o.value());
            // First-step probe only: occupancy beyond t is non-increasing,
            // so step t dominates the whole window.
            const bool fits = std::ranges::all_of(row, [&](std::size_t mi) {
                return usage[at(mi, t)] + share <= budget[mi];
            });
            if (!fits) {
                ws.sig_stuck[best_sig] = t;
                stuck_list.push_back(best_sig);
                continue;
            }
            auto& heap = ws.sig_heap[best_sig];
            std::pop_heap(heap.begin(), heap.end(), heap_greater);
            heap.pop_back();
            if (!heap.empty()) {
                push_front(best_sig); // front changed by the pop
            }
            const int done = t + latencies[o.value()];
            start[o.value()] = t;
            ++scheduled;
            for (const std::size_t mi : row) {
                for (int u = t; u < done; ++u) {
                    usage[at(mi, u)] += share;
                }
            }
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
    }

    // Restore the all-zero arena: undo exactly the committed windows --
    // O(sum lat x |row|), a fraction of a full-arena memset.
    for (const op_id o : graph.all_ops()) {
        const std::int64_t share = ws.sig_share[ws.sig_of_op[o.value()]];
        const int s = start[o.value()];
        const int done = s + latencies[o.value()];
        for (const std::size_t mi : members.row(o.value())) {
            for (int u = s; u < done; ++u) {
                usage[at(mi, u)] -= share;
                MWL_ASSERT(usage[at(mi, u)] >= 0);
            }
        }
    }
    ws.usage_zeroed = true;
}

} // namespace mwl
