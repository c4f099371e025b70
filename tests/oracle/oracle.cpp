#include "oracle/oracle.hpp"

#include "core/critical.hpp"
#include "dfg/analysis.hpp"
#include "sched/priorities.hpp"
#include "sched/scheduling_set.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

namespace mwl::oracle {
namespace {

/// L_o re-derived from the H rows instead of the WCG's cached bounds.
std::vector<int> upper_bounds_from_rows(
    const wordlength_compatibility_graph& wcg)
{
    std::vector<int> upper;
    upper.reserve(wcg.graph().size());
    for (const op_id o : wcg.graph().all_ops()) {
        int bound = 0;
        for (const res_id r : wcg.resources_for(o)) {
            bound = std::max(bound, wcg.latency(r));
        }
        upper.push_back(bound);
    }
    return upper;
}

/// The original placement loop shared by both schedulers: at every control
/// step rescan the whole graph for ready operations (unscheduled, every
/// predecessor finished), sort them by (priority desc, id asc) and offer
/// each in that order to `try_place(o, t)`, which commits on success.
template <typename TryPlace>
std::vector<int> rescan_schedule(const sequencing_graph& graph,
                                 std::span<const int> latencies, int horizon,
                                 TryPlace&& try_place)
{
    const std::vector<int> priority =
        critical_path_priorities(graph, latencies);
    std::vector<int> start(graph.size(), -1);
    std::size_t scheduled = 0;
    for (int t = 0; scheduled < graph.size(); ++t) {
        MWL_ASSERT(t < horizon);
        std::vector<op_id> ready;
        for (const op_id o : graph.all_ops()) {
            if (start[o.value()] >= 0) {
                continue;
            }
            bool ok = true;
            for (const op_id p : graph.predecessors(o)) {
                const int ps = start[p.value()];
                if (ps < 0 || ps + latencies[p.value()] > t) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                ready.push_back(o);
            }
        }
        std::sort(ready.begin(), ready.end(), [&](op_id a, op_id b) {
            if (priority[a.value()] != priority[b.value()]) {
                return priority[a.value()] > priority[b.value()];
            }
            return a < b;
        });
        for (const op_id o : ready) {
            if (try_place(o, t)) {
                start[o.value()] = t;
                ++scheduled;
            }
        }
    }
    return start;
}

} // namespace

incomplete_schedule_result schedule_incomplete_scan(
    const wordlength_compatibility_graph& wcg, int capacity)
{
    const sequencing_graph& graph = wcg.graph();
    incomplete_schedule_result result;
    const scheduling_set_result cover = min_scheduling_set(wcg);
    result.scheduling_set = cover.members;
    result.cover_proven_minimum = cover.proven_minimum;

    // S(o) by probing every (operation, member) pair -- O(N * M) -- and the
    // lcm of the |S(o)| that makes the 1/|S(o)| shares exact integers.
    std::vector<std::vector<std::size_t>> members_of_op(graph.size());
    std::int64_t scale = 1;
    for (const op_id o : graph.all_ops()) {
        std::vector<std::size_t>& members = members_of_op[o.value()];
        for (std::size_t mi = 0; mi < cover.members.size(); ++mi) {
            if (wcg.compatible(o, cover.members[mi])) {
                members.push_back(mi);
            }
        }
        MWL_ASSERT(!members.empty()); // S is a cover
        scale = std::lcm(scale, static_cast<std::int64_t>(members.size()));
    }
    const std::int64_t budget = static_cast<std::int64_t>(capacity) * scale;

    const std::vector<int> upper = upper_bounds_from_rows(wcg);
    const int horizon = serial_horizon(upper);
    std::vector<std::vector<std::int64_t>> usage(
        cover.members.size(),
        std::vector<std::int64_t>(static_cast<std::size_t>(horizon), 0));
    result.start = rescan_schedule(graph, upper, horizon, [&](op_id o, int t) {
        const std::vector<std::size_t>& members = members_of_op[o.value()];
        const std::int64_t share =
            scale / static_cast<std::int64_t>(members.size());
        const int lat = upper[o.value()];
        for (const std::size_t mi : members) {
            for (int u = t; u < t + lat; ++u) {
                if (usage[mi][static_cast<std::size_t>(u)] + share > budget) {
                    return false;
                }
            }
        }
        for (const std::size_t mi : members) {
            for (int u = t; u < t + lat; ++u) {
                usage[mi][static_cast<std::size_t>(u)] += share;
            }
        }
        return true;
    });
    result.length = schedule_length(graph, upper, result.start);
    return result;
}

list_schedule_result list_schedule_scan(const sequencing_graph& graph,
                                        std::span<const int> latencies,
                                        const type_limits& limits)
{
    const int horizon = serial_horizon(latencies);
    // running[y][t]: type-y operations executing during step t.
    std::array<std::vector<int>, 2> running;
    running.fill(std::vector<int>(static_cast<std::size_t>(horizon), 0));
    list_schedule_result result;
    result.start =
        rescan_schedule(graph, latencies, horizon, [&](op_id o, int t) {
            const op_kind kind = graph.shape(o).kind();
            std::vector<int>& row = running[kind == op_kind::add ? 0 : 1];
            const int lat = latencies[o.value()];
            for (int u = t; u < t + lat; ++u) {
                if (row[static_cast<std::size_t>(u)] + 1 > limits.of(kind)) {
                    return false;
                }
            }
            for (int u = t; u < t + lat; ++u) {
                ++row[static_cast<std::size_t>(u)];
            }
            return true;
        });
    result.length = schedule_length(graph, latencies, result.start);
    return result;
}

binding bind_select_reference(const wordlength_compatibility_graph& wcg,
                              std::span<const int> start,
                              std::span<const int> latencies,
                              bind_options options)
{
    options.cache_chains = false;
    return bind_select(wcg, start, latencies, options);
}

dpalloc_result dpalloc_from_scratch(const sequencing_graph& graph,
                                    const hardware_model& model, int lambda,
                                    const dpalloc_options& options)
{
    dpalloc_result result;
    result.stats.final_capacity = options.initial_capacity;
    if (graph.empty()) {
        return result;
    }
    require_feasible(lambda >= min_latency(graph, model),
                     "latency constraint below the minimum achievable "
                     "latency of the sequencing graph");

    wordlength_compatibility_graph wcg(graph, model);
    int capacity = options.initial_capacity;
    const bind_options bind_opts{.enable_growth = options.enable_growth,
                                 .reassign_cheapest =
                                     options.reassign_cheapest};

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        ++result.stats.iterations;
        const std::vector<int> upper = upper_bounds_from_rows(wcg);

        std::vector<int> start;
        if (options.classic_constraint) {
            const scheduling_set_result cover = min_scheduling_set(wcg);
            result.stats.cover_always_minimum &= cover.proven_minimum;
            start = list_schedule_scan(
                        graph, upper,
                        classic_limits(wcg, cover.members, capacity))
                        .start;
        } else {
            incomplete_schedule_result sched =
                schedule_incomplete_scan(wcg, capacity);
            result.stats.cover_always_minimum &= sched.cover_proven_minimum;
            start = std::move(sched.start);
        }

        datapath path = assemble_datapath(
            wcg, start, bind_select_reference(wcg, start, upper, bind_opts));
        if (path.latency <= lambda) {
            result.path = std::move(path);
            return result;
        }

        std::vector<int> bound_lat;
        bound_lat.reserve(graph.size());
        for (const op_id o : graph.all_ops()) {
            bound_lat.push_back(path.bound_latency(o));
        }
        const bound_critical_path qb = compute_bound_critical_path(
            graph, start, bound_lat, path.instance_of_op);
        if (const std::optional<op_id> chosen = choose_refinement(
                wcg, qb.ops, start, upper, bound_lat, lambda)) {
            result.stats.edges_deleted +=
                static_cast<std::size_t>(wcg.refine_op(*chosen));
            ++result.stats.refinements;
        } else {
            ++capacity;
            ++result.stats.escalations;
            result.stats.final_capacity = capacity;
            require_feasible(
                capacity <= static_cast<int>(graph.size()) + 1,
                "internal: capacity escalation failed to converge");
        }
    }
    throw error("dpalloc exceeded max_iterations without converging");
}

} // namespace mwl::oracle
