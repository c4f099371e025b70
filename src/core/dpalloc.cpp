#include "core/dpalloc.hpp"

#include "bind/bind_select.hpp"
#include "core/critical.hpp"
#include "dfg/analysis.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "support/error.hpp"
#include "wcg/wcg.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mwl {
namespace {

/// §2.4 candidate metric: refining o deletes d(o) edges out of the pool of
/// H edges incident to resources compatible with o. Smaller proportion =
/// less sharing potential destroyed, compared exactly via cross
/// multiplication; ties go to an operation bound below its upper bound,
/// then to the smaller id.
struct refine_metric {
    op_id o;
    std::int64_t deleted = 0;
    std::int64_t pool = 0;
    bool bound_below_upper = false;

    [[nodiscard]] bool operator<(const refine_metric& other) const
    {
        const std::int64_t lhs = deleted * other.pool;
        const std::int64_t rhs = other.deleted * pool;
        if (lhs != rhs) {
            return lhs < rhs;
        }
        if (bound_below_upper != other.bound_below_upper) {
            return bound_below_upper;
        }
        return o < other.o;
    }
};

refine_metric metric_for(op_id o, const refinement_counts& counts,
                         std::span<const int> upper,
                         std::span<const int> bound_latencies)
{
    const std::size_t i = o.value();
    const refine_metric m{.o = o,
                          .deleted = counts.slowest[i],
                          .pool = counts.pool[i],
                          .bound_below_upper = bound_latencies[i] < upper[i]};
    MWL_ASSERT(m.deleted >= 1); // some edge of H(o) attains L_o
    MWL_ASSERT(m.pool >= 1);    // o itself is in O(r) for every r in H(o)
    return m;
}

/// Every buffer the refinement loop fills, one per thread, so a thread's
/// later calls reuse the capacity its earlier calls grew. Each member is
/// pure scratch rewritten per call or, like the cover memo, keyed on the
/// WCG's serial, so no call's result depends on the calls before it.
/// dpalloc is never re-entered on one thread -- it runs no callbacks and
/// fans nothing out -- so one call at a time owns its thread's workspace.
struct dpalloc_workspace {
    incomplete_sched_scratch sched;
    bind_scratch bind;
    critical_path_scratch critical;
    std::vector<int> bound_lat;
    std::vector<std::size_t> instance_of_op;
};

thread_local dpalloc_workspace workspace;

} // namespace

type_limits classic_limits(const wordlength_compatibility_graph& wcg,
                           std::span<const res_id> cover, int capacity)
{
    type_limits limits{.add = 0, .mul = 0};
    for (const res_id s : cover) {
        (wcg.resource(s).kind() == op_kind::add ? limits.add : limits.mul) +=
            capacity;
    }
    limits.add = std::max(limits.add, 1);
    limits.mul = std::max(limits.mul, 1);
    return limits;
}

datapath assemble_datapath(const wordlength_compatibility_graph& wcg,
                           std::span<const int> start, const binding& bind)
{
    const sequencing_graph& graph = wcg.graph();
    datapath path;
    path.start.assign(start.begin(), start.end());
    path.instance_of_op.assign(graph.size(), 0);
    path.instances.reserve(bind.cliques.size());
    for (std::size_t ci = 0; ci < bind.cliques.size(); ++ci) {
        const binding_clique& k = bind.cliques[ci];
        datapath_instance inst;
        inst.shape = wcg.resource(k.resource);
        inst.latency = wcg.latency(k.resource);
        inst.area = wcg.area(k.resource);
        inst.ops = k.ops;
        // Execution order within an instance is by start time.
        std::sort(inst.ops.begin(), inst.ops.end(),
                  [&](op_id a, op_id b) {
                      return start[a.value()] < start[b.value()];
                  });
        for (const op_id o : inst.ops) {
            path.instance_of_op[o.value()] = ci;
        }
        path.total_area += inst.area;
        path.instances.push_back(std::move(inst));
    }
    for (const op_id o : graph.all_ops()) {
        path.latency = std::max(path.latency,
                                start[o.value()] + path.bound_latency(o));
    }
    return path;
}

std::optional<op_id> choose_refinement(
    const wordlength_compatibility_graph& wcg, std::span<const op_id> critical,
    std::span<const int> start, std::span<const int> upper,
    std::span<const int> bound_latencies, const refinement_counts& counts,
    int lambda)
{
    const std::size_t n = wcg.graph().size();
    require(start.size() == n && upper.size() == n &&
                bound_latencies.size() == n && counts.pool.size() == n &&
                counts.slowest.size() == n,
            "refinement inputs do not match graph");

    // Refinable operations (a strictly faster resource exists) on the bound
    // critical path, preferring those still within lambda under their upper
    // bound; else any refinable operation, since off-path refinement can
    // still grow the scheduling set and unlock parallelism.
    std::vector<op_id> candidates;
    const auto collect = [&](std::span<const op_id> ops, bool within) {
        for (const op_id o : ops) {
            if (wcg.refinable(o) &&
                (!within || start[o.value()] + upper[o.value()] <= lambda)) {
                candidates.push_back(o);
            }
        }
    };
    collect(critical, true);
    if (candidates.empty()) {
        collect(critical, false);
    }
    if (candidates.empty()) {
        collect(wcg.graph().all_ops(), false);
    }
    if (candidates.empty()) {
        return std::nullopt;
    }

    refine_metric best =
        metric_for(candidates.front(), counts, upper, bound_latencies);
    for (const op_id o : std::span(candidates).subspan(1)) {
        best = std::min(best, metric_for(o, counts, upper, bound_latencies));
    }
    return best.o;
}

dpalloc_result dpalloc(const sequencing_graph& graph,
                       const hardware_model& model, int lambda,
                       const dpalloc_options& options)
{
    require(lambda >= 0, "latency constraint must be non-negative");
    require(options.initial_capacity >= 1, "initial capacity must be >= 1");

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

    // The scheduling-set memo in ws.sched keys on the WCG's serial and
    // edge version. refine_op bumps the version, so refinement iterations
    // recompute the cover (bounded by the previous optimum) while capacity
    // escalations reuse it outright; this call's fresh WCG never hits a
    // cover an earlier call left behind.
    dpalloc_workspace& ws = workspace;
    std::vector<int>& bound_lat = ws.bound_lat;
    std::vector<std::size_t>& instance_of_op = ws.instance_of_op;

    // L_o per op, kept current by the WCG as refinement deletes edges.
    const std::vector<int>& upper = wcg.latency_upper_bounds();

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        ++result.stats.iterations;

        // Schedule with incomplete wordlength information.
        std::vector<int> start;
        if (options.classic_constraint) {
            // Ablation arm: Eqn. 2 over the same scheduling set.
            const scheduling_set_result cover =
                min_scheduling_set(wcg, ws.sched.cover_cache);
            result.stats.cover_always_minimum &= cover.proven_minimum;
            start = list_schedule(graph, upper,
                                  classic_limits(wcg, cover.members, capacity),
                                  &ws.sched.ws)
                        .start;
        } else {
            incomplete_schedule_result sched =
                schedule_incomplete(wcg, capacity, &ws.sched);
            result.stats.cover_always_minimum &= sched.cover_proven_minimum;
            start = std::move(sched.start);
        }

        // Bind and select wordlengths. Only the per-op bound latencies and
        // the instance grouping are needed unless the allocation is
        // feasible, so the full datapath is assembled just once, on exit.
        const binding bind =
            bind_select(wcg, start, upper, bind_opts, &ws.bind);
        bound_lat.assign(graph.size(), 0);
        instance_of_op.assign(graph.size(), 0);
        int achieved = 0;
        for (std::size_t ci = 0; ci < bind.cliques.size(); ++ci) {
            const binding_clique& k = bind.cliques[ci];
            const int lat = wcg.latency(k.resource);
            for (const op_id o : k.ops) {
                bound_lat[o.value()] = lat;
                instance_of_op[o.value()] = ci;
                achieved = std::max(achieved, start[o.value()] + lat);
            }
        }

        if (achieved <= lambda) {
            result.path = assemble_datapath(wcg, start, bind);
            return result;
        }

        // Refinement (§2.4) on the bound critical path.
        const bound_critical_path qb = compute_bound_critical_path(
            graph, start, bound_lat, instance_of_op, &ws.critical);
        if (const std::optional<op_id> chosen = choose_refinement(
                wcg, qb.ops, start, upper, bound_lat,
                {wcg.sharing_pools(), wcg.slowest_edge_counts()}, lambda)) {
            result.stats.edges_deleted +=
                static_cast<std::size_t>(wcg.refine_op(*chosen));
            ++result.stats.refinements;
        } else {
            // Wordlength information is fully refined everywhere yet the
            // constraint is still violated: the design needs parallelism,
            // not shorter operations. Escalate capacity (DESIGN.md).
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

} // namespace mwl
