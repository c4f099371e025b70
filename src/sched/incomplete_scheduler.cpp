#include "sched/incomplete_scheduler.hpp"

#include "dfg/analysis.hpp"
#include "sched/priorities.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace mwl {

incomplete_schedule_result schedule_incomplete(
    const wordlength_compatibility_graph& wcg, int capacity,
    incomplete_sched_scratch* scratch, sched_engine /*engine*/)
{
    require(capacity >= 1, "scheduling-set member capacity must be >= 1");

    const sequencing_graph& graph = wcg.graph();
    incomplete_schedule_result result;
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
    // Each lcm step is checked (std::lcm wraps silently, and a wrapped
    // scale truncates the shares) and taken only when it grows the scale.
    std::int64_t scale = 1;
    for (const op_id o : graph.all_ops()) {
        const auto size =
            static_cast<std::int64_t>(members_of_op.row(o.value()).size());
        MWL_ASSERT(size >= 1); // S is a cover
        if (scale % size != 0 &&
            __builtin_mul_overflow(scale / std::gcd(scale, size), size,
                                   &scale)) {
            throw error("incomplete scheduler: the lcm of the |S(o)| "
                        "share counts overflows 64 bits");
        }
    }
    // A probe adds one share (at most scale) to a usage within budget.
    std::int64_t probe_limit = 0;
    if (__builtin_mul_overflow(static_cast<std::int64_t>(capacity) + 1, scale,
                               &probe_limit)) {
        throw error("incomplete scheduler: capacity x share scale "
                    "overflows 64 bits");
    }
    const std::int64_t budget = probe_limit - scale;

    const std::span<std::int64_t> member_budget =
        sc.arena.alloc<std::int64_t>(n_members);
    std::fill(member_budget.begin(), member_budget.end(), budget);

    const std::vector<int>& upper = wcg.latency_upper_bounds();
    event_schedule(graph, upper,
                   critical_path_priorities(graph, upper,
                                            wcg.topological_order()),
                   members_of_op, scale, member_budget, result.start, sc.ws);
    result.length = schedule_length(graph, upper, result.start);
    return result;
}

} // namespace mwl
