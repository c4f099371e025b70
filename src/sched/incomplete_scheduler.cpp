#include "sched/incomplete_scheduler.hpp"

#include "dfg/analysis.hpp"
#include "sched/priorities.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>

namespace mwl {
namespace {
/// Flat CSR view of the S(o) table (row storage lives in the scratch's
/// bump arena): row(o) lists the cover-member indices compatible with o,
/// ascending.
struct member_table {
    std::span<const std::uint32_t> off;
    std::span<const std::size_t> flat;

    [[nodiscard]] std::span<const std::size_t> row(std::size_t o) const
    {
        return flat.subspan(off[o], off[o + 1] - off[o]);
    }
};

/// Signature-tournament fast path for the event engine. It exploits two
/// facts about the generic (priority desc, id asc) sweep:
///
/// 1. Placements only ever commit at the current sweep step t, so every
///    committed occupancy window starts at or before t. For u2 > u1 >= t a
///    window covering u2 therefore covers u1 as well: member occupancy at
///    or beyond t is NON-INCREASING in the step. A window [t, t+lat) fits
///    iff its FIRST step fits -- the feasibility probe is one comparison
///    per member instead of a lat-step scan.
/// 2. Operations with the same S(o) (the same "signature" of compatible
///    cover members) are interchangeable to the resource test: identical
///    members, identical share. Occupancy only grows during a step, so
///    once the highest-ranked operation of a signature fails at t, every
///    lower-ranked operation of that signature provably fails at t too.
///
/// The ready pool therefore becomes one binary heap of packed
/// (priority, id) keys per signature, and a step is a tournament over the
/// heap fronts: repeatedly take the globally smallest key among signatures
/// not yet stuck at t, probe it at step t only, and either place it or
/// mark its whole signature stuck. The tournament argmin comes from a lazy
/// global min-heap over signature fronts, so a selection costs O(log)
/// amortized instead of a scan over every signature. The placement
/// sequence -- and hence the schedule -- is bit-identical to the generic
/// sweep's and to the rescan reference in tests/oracle
/// (tests/incremental_regression_test.cpp,
/// tests/large_graph_identity_test.cpp).
void signature_tournament_pass(
    const sequencing_graph& graph, std::span<const int> upper,
    std::span<const int> priority, const member_table& members_of_op,
    std::span<std::int64_t> usage, int horizon, std::int64_t scale,
    std::int64_t budget, incomplete_sched_scratch& sc,
    std::vector<int>& start)
{
    const std::size_t n = graph.size();
    event_schedule_workspace& ws = sc.ws;
    ws.pending.assign(n, 0);
    ws.ready_step.assign(n, 0);
    if (ws.bucket.size() < static_cast<std::size_t>(horizon)) {
        ws.bucket.resize(static_cast<std::size_t>(horizon));
    }
    for (auto& b : ws.bucket) {
        b.clear();
    }

    // Signature table: one entry per distinct S(o), encoded as a member
    // bitmask (the caller guarantees <= 64 members). Linear lookup -- the
    // distinct-signature count is tiny next to n.
    sc.sig_mask.clear();
    sc.sig_share.clear();
    sc.sig_of_op.assign(n, 0);
    for (const op_id o : graph.all_ops()) {
        std::uint64_t mask = 0;
        for (const std::size_t mi : members_of_op.row(o.value())) {
            mask |= std::uint64_t{1} << mi;
        }
        std::uint32_t si = 0;
        while (si < sc.sig_mask.size() && sc.sig_mask[si] != mask) {
            ++si;
        }
        if (si == sc.sig_mask.size()) {
            sc.sig_mask.push_back(mask);
            sc.sig_share.push_back(
                scale /
                static_cast<std::int64_t>(members_of_op.row(o.value()).size()));
        }
        sc.sig_of_op[o.value()] = si;
    }
    const std::size_t n_sigs = sc.sig_mask.size();
    if (sc.sig_heap.size() < n_sigs) {
        sc.sig_heap.resize(n_sigs);
    }
    for (auto& h : sc.sig_heap) {
        h.clear();
    }
    sc.sig_stuck.assign(n_sigs, -1); // stamped with t when stuck at t

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
    auto& fronts = sc.front_heap;
    auto& stuck_list = sc.stuck_list;
    fronts.clear();
    stuck_list.clear();
    const auto front_greater = [](const std::pair<std::uint64_t, std::uint32_t>& a,
                                  const std::pair<std::uint64_t, std::uint32_t>& b) {
        return a.first > b.first;
    };
    const auto push_front = [&](std::uint32_t si) {
        fronts.emplace_back(sc.sig_heap[si].front(), si);
        std::push_heap(fronts.begin(), fronts.end(), front_greater);
    };

    std::size_t scheduled = 0;
    for (int t = 0; scheduled < n; ++t) {
        MWL_ASSERT(t < horizon);
        for (const std::uint32_t si : stuck_list) {
            if (!sc.sig_heap[si].empty()) {
                push_front(si);
            }
        }
        stuck_list.clear();
        auto& arrivals = ws.bucket[static_cast<std::size_t>(t)];
        for (const op_id o : arrivals) {
            const std::uint64_t key = key_of(o);
            auto& heap = sc.sig_heap[sc.sig_of_op[o.value()]];
            heap.push_back(key);
            std::push_heap(heap.begin(), heap.end(), heap_greater);
            if (heap.front() == key) { // new front
                push_front(sc.sig_of_op[o.value()]);
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
                if (sc.sig_stuck[si] == t || sc.sig_heap[si].empty() ||
                    sc.sig_heap[si].front() != top.first) {
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
            const std::int64_t share = sc.sig_share[best_sig];
            const op_id o{static_cast<std::size_t>(best_key & 0xffffffffU)};
            const auto members = members_of_op.row(o.value());
            bool fits = true;
            for (const std::size_t mi : members) {
                // First-step probe only: occupancy beyond t is
                // non-increasing, so step t dominates the whole window.
                if (usage[mi * static_cast<std::size_t>(horizon) +
                          static_cast<std::size_t>(t)] +
                        share >
                    budget) {
                    fits = false;
                    break;
                }
            }
            if (!fits) {
                sc.sig_stuck[best_sig] = t;
                stuck_list.push_back(best_sig);
                continue;
            }
            auto& heap = sc.sig_heap[best_sig];
            std::pop_heap(heap.begin(), heap.end(), heap_greater);
            heap.pop_back();
            if (!heap.empty()) {
                push_front(best_sig); // front changed by the pop
            }
            const int lat = upper[o.value()];
            start[o.value()] = t;
            ++scheduled;
            for (const std::size_t mi : members) {
                const std::size_t base = mi * static_cast<std::size_t>(horizon);
                for (int u = t; u < t + lat; ++u) {
                    usage[base + static_cast<std::size_t>(u)] += share;
                }
            }
            const int done = t + lat;
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

    // Restore the all-zero arena invariant (see schedule_incomplete): undo
    // exactly the committed windows -- O(sum lat x |S(o)|), a fraction of a
    // full-arena memset.
    for (const op_id o : graph.all_ops()) {
        const std::int64_t share = sc.sig_share[sc.sig_of_op[o.value()]];
        const int s = start[o.value()];
        const int lat = upper[o.value()];
        for (const std::size_t mi : members_of_op.row(o.value())) {
            const std::size_t base = mi * static_cast<std::size_t>(horizon);
            for (int u = s; u < s + lat; ++u) {
                usage[base + static_cast<std::size_t>(u)] -= share;
                MWL_ASSERT(usage[base + static_cast<std::size_t>(u)] >= 0);
            }
        }
    }
}

} // namespace

incomplete_schedule_result schedule_incomplete(
    const wordlength_compatibility_graph& wcg, int capacity,
    incomplete_sched_scratch* scratch, sched_engine /*engine*/)
{
    require(capacity >= 1, "scheduling-set member capacity must be >= 1");

    const sequencing_graph& graph = wcg.graph();
    incomplete_schedule_result result;
    result.start.assign(graph.size(), -1);
    if (graph.empty()) {
        return result;
    }

    incomplete_sched_scratch local;
    incomplete_sched_scratch& sc = scratch ? *scratch : local;

    const scheduling_set_result cover =
        min_scheduling_set(wcg, sc.cover_cache);
    result.scheduling_set = cover.members;
    result.cover_proven_minimum = cover.proven_minimum;
    const std::size_t n_members = cover.members.size();
    MWL_ASSERT(n_members >= 1);

    // S(o): indices into cover.members compatible with o, ascending -- a
    // flat CSR table (count, prefix-sum, fill) built in one pass over the
    // members' O(s) adjacency lists, O(E), whose row storage comes from
    // the scratch's bump arena: one rewind per call instead of |O| vectors.
    sc.arena.reset();
    auto& off = sc.members_off;
    off.assign(graph.size() + 1, 0);
    for (std::size_t mi = 0; mi < n_members; ++mi) {
        for (const op_id o : wcg.ops_for(cover.members[mi])) {
            ++off[o.value() + 1];
        }
    }
    for (std::size_t i = 1; i < off.size(); ++i) {
        off[i] += off[i - 1];
    }
    const std::span<std::size_t> flat =
        sc.arena.alloc<std::size_t>(off.back());
    auto& cursor = sc.members_cursor;
    cursor.assign(off.begin(), off.end() - 1);
    for (std::size_t mi = 0; mi < n_members; ++mi) {
        for (const op_id o : wcg.ops_for(cover.members[mi])) {
            flat[cursor[o.value()]++] = mi;
        }
    }
    const member_table members_of_op{off, flat};

    // Exact fractional accounting: scale everything by the lcm of the
    // |S(o)| values, so each op contributes scale/|S(o)| integer units to
    // each of its members, against a budget of capacity*scale per member.
    std::int64_t scale = 1;
    for (const op_id o : graph.all_ops()) {
        const std::size_t n_compatible = members_of_op.row(o.value()).size();
        MWL_ASSERT(n_compatible >= 1); // S is a cover
        scale = std::lcm(scale, static_cast<std::int64_t>(n_compatible));
    }
    const std::int64_t budget = static_cast<std::int64_t>(capacity) * scale;

    const std::vector<int> upper = wcg.latency_upper_bounds();
    const std::vector<int> priority = critical_path_priorities(graph, upper);

    const int horizon = serial_horizon(upper);
    // usage[mi * horizon + t]: scaled usage of member mi during step t,
    // one flat arena reused across calls through the scratch.
    auto& usage = sc.ws.usage;

    if (n_members <= 64) {
        MWL_ASSERT(graph.size() <= 0xffffffffU); // packed-key id width
        // All-zero invariant: the fast path re-zeroes exactly the windows
        // it committed before returning (signature_tournament_pass), so a
        // looping caller never pays the full-arena memset -- the arena only
        // grows, and stale cells beyond any stride are zero by induction.
        const std::size_t usage_size =
            n_members * static_cast<std::size_t>(horizon);
        if (usage.size() < usage_size || !sc.usage_zeroed) {
            usage.assign(std::max(usage.size(), usage_size), 0);
            sc.usage_zeroed = true;
        }
        signature_tournament_pass(graph, upper, priority, members_of_op,
                                  usage, horizon, scale, budget, sc,
                                  result.start);
        result.length = schedule_length(graph, upper, result.start);
        return result;
    }

    // Covers wider than a signature bitmask: the generic event sweep.
    usage.assign(n_members * static_cast<std::size_t>(horizon), 0);
    sc.usage_zeroed = false;
    const auto try_place = [&](op_id o, int t) {
        const auto members = members_of_op.row(o.value());
        const std::int64_t share =
            scale / static_cast<std::int64_t>(members.size());
        const int lat = upper[o.value()];
        for (const std::size_t mi : members) {
            const std::size_t base = mi * static_cast<std::size_t>(horizon);
            for (int u = t; u < t + lat; ++u) {
                if (usage[base + static_cast<std::size_t>(u)] + share >
                    budget) {
                    return false;
                }
            }
        }
        for (const std::size_t mi : members) {
            const std::size_t base = mi * static_cast<std::size_t>(horizon);
            for (int u = t; u < t + lat; ++u) {
                usage[base + static_cast<std::size_t>(u)] += share;
            }
        }
        return true;
    };
    event_schedule(graph, upper, priority, horizon, result.start, sc.ws,
                   try_place);
    result.length = schedule_length(graph, upper, result.start);
    return result;
}

} // namespace mwl
