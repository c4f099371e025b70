#include "replay.hpp"

#include "bind/bind_select.hpp"
#include "core/critical.hpp"
#include "dfg/analysis.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "sched/scheduling_set.hpp"
#include "support/error.hpp"
#include "wcg/wcg.hpp"

#include <algorithm>
#include <cstdint>

namespace perfbench {

using namespace mwl;

namespace {

// make_datapath, refine_metric, metric_for and better_candidate mirror the
// private helpers of core/dpalloc.cpp.

datapath make_datapath(const sequencing_graph& graph,
                       const wordlength_compatibility_graph& wcg,
                       const std::vector<int>& start, const binding& bind)
{
    datapath path;
    path.start = start;
    path.instance_of_op.assign(graph.size(), 0);
    path.instances.reserve(bind.cliques.size());
    for (std::size_t ci = 0; ci < bind.cliques.size(); ++ci) {
        const binding_clique& k = bind.cliques[ci];
        datapath_instance inst;
        inst.shape = wcg.resource(k.resource);
        inst.latency = wcg.latency(k.resource);
        inst.area = wcg.area(k.resource);
        inst.ops = k.ops;
        std::sort(inst.ops.begin(), inst.ops.end(), [&](op_id a, op_id b) {
            return start[a.value()] < start[b.value()];
        });
        for (const op_id o : inst.ops) {
            path.instance_of_op[o.value()] = ci;
        }
        path.total_area += inst.area;
        path.instances.push_back(std::move(inst));
    }
    for (const op_id o : graph.all_ops()) {
        path.latency =
            std::max(path.latency, start[o.value()] + path.bound_latency(o));
    }
    return path;
}

struct refine_metric {
    std::int64_t deleted = 0;
    std::int64_t pool = 1;
    bool bound_below_upper = false;
};

refine_metric metric_for(const wordlength_compatibility_graph& wcg, op_id o,
                         int bound_latency_of_o)
{
    refine_metric m;
    m.pool = 0;
    const int top = wcg.latency_upper_bound(o);
    for (const res_id r : wcg.resources_for(o)) {
        m.pool += static_cast<std::int64_t>(wcg.ops_for(r).size());
        if (wcg.latency(r) == top) {
            ++m.deleted;
        }
    }
    m.bound_below_upper = bound_latency_of_o < top;
    return m;
}

bool better_candidate(op_id a, const refine_metric& ma, op_id b,
                      const refine_metric& mb)
{
    const std::int64_t lhs = ma.deleted * mb.pool;
    const std::int64_t rhs = mb.deleted * ma.pool;
    if (lhs != rhs) {
        return lhs < rhs;
    }
    if (ma.bound_below_upper != mb.bound_below_upper) {
        return ma.bound_below_upper;
    }
    return a < b;
}

} // namespace

dpalloc_result replay_dpalloc(const sequencing_graph& graph,
                              const hardware_model& model, int lambda,
                              tracer* trace, std::uint64_t request)
{
    const scope whole(trace, "dpalloc", "core", request);
    const dpalloc_options options;
    dpalloc_result result;
    result.stats.final_capacity = options.initial_capacity;
    if (graph.empty()) {
        return result;
    }
    require_feasible(lambda >= min_latency(graph, model),
                     "latency constraint below the minimum achievable "
                     "latency of the sequencing graph");

    wordlength_compatibility_graph wcg = [&] {
        const scope s(trace, "wcg.build", "wcg", request);
        return wordlength_compatibility_graph(graph, model);
    }();
    int capacity = options.initial_capacity;
    const bind_options bind_opts{.enable_growth = options.enable_growth,
                                 .reassign_cheapest =
                                     options.reassign_cheapest,
                                 .cache_chains = true};
    incomplete_sched_scratch scratch;
    std::vector<int> bound_lat;
    std::vector<std::size_t> instance_of_op;
    bind_scratch bind_sc;
    critical_path_scratch critical_sc;

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        ++result.stats.iterations;
        const std::vector<int> upper = wcg.latency_upper_bounds();

        {
            const scope s(trace, "sched.cover", "sched", request);
            static_cast<void>(min_scheduling_set(wcg, scratch.cover_cache));
        }
        std::vector<int> start;
        {
            const scope s(trace, "sched.schedule", "sched", request);
            incomplete_schedule_result sched = schedule_incomplete(
                wcg, capacity, &scratch, sched_engine::event);
            result.stats.cover_always_minimum &= sched.cover_proven_minimum;
            start = std::move(sched.start);
        }

        const binding bind = [&] {
            const scope s(trace, "bind.bind_select", "bind", request);
            return bind_select(wcg, start, upper, bind_opts, &bind_sc);
        }();
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
            result.path = make_datapath(graph, wcg, start, bind);
            return result;
        }

        const bound_critical_path qb = [&] {
            const scope s(trace, "core.critical", "core", request);
            return compute_bound_critical_path(graph, start, bound_lat,
                                               instance_of_op, &critical_sc);
        }();

        const scope refine(trace, "core.refine_select", "core", request);
        std::vector<op_id> candidates;
        for (const op_id o : qb.ops) {
            if (wcg.refinable(o) &&
                start[o.value()] + upper[o.value()] <= lambda) {
                candidates.push_back(o);
            }
        }
        if (candidates.empty()) {
            for (const op_id o : qb.ops) {
                if (wcg.refinable(o)) {
                    candidates.push_back(o);
                }
            }
        }
        if (candidates.empty()) {
            for (const op_id o : graph.all_ops()) {
                if (wcg.refinable(o)) {
                    candidates.push_back(o);
                }
            }
        }
        if (!candidates.empty()) {
            op_id chosen = candidates.front();
            refine_metric best =
                metric_for(wcg, chosen, bound_lat[chosen.value()]);
            for (std::size_t i = 1; i < candidates.size(); ++i) {
                const op_id o = candidates[i];
                const refine_metric m =
                    metric_for(wcg, o, bound_lat[o.value()]);
                if (better_candidate(o, m, chosen, best)) {
                    chosen = o;
                    best = m;
                }
            }
            result.stats.edges_deleted +=
                static_cast<std::size_t>(wcg.refine_op(chosen));
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

std::string same_allocation(const dpalloc_result& a, const dpalloc_result& b)
{
    if (a.stats.iterations != b.stats.iterations ||
        a.stats.refinements != b.stats.refinements ||
        a.stats.escalations != b.stats.escalations ||
        a.stats.edges_deleted != b.stats.edges_deleted) {
        return "iteration counts differ (" +
               std::to_string(a.stats.iterations) + " vs " +
               std::to_string(b.stats.iterations) + ")";
    }
    if (a.path.start != b.path.start) {
        return "start times differ";
    }
    if (a.path.instance_of_op != b.path.instance_of_op ||
        a.path.instances.size() != b.path.instances.size()) {
        return "instance grouping differs";
    }
    for (std::size_t i = 0; i < a.path.instances.size(); ++i) {
        const datapath_instance& x = a.path.instances[i];
        const datapath_instance& y = b.path.instances[i];
        if (x.shape != y.shape || x.ops != y.ops || x.latency != y.latency ||
            x.area != y.area) {
            return "instance " + std::to_string(i) + " differs";
        }
    }
    if (a.path.total_area != b.path.total_area ||
        a.path.latency != b.path.latency) {
        return "area or latency differs";
    }
    return {};
}

dpalloc_result replay_and_check(const sequencing_graph& graph,
                                const hardware_model& model, int lambda,
                                tracer& trace, replay_totals& totals,
                                report& out)
{
    const clock::time_point t0 = clock::now();
    dpalloc_result reference = dpalloc(graph, model, lambda);
    const clock::time_point t1 = clock::now();
    const dpalloc_result replayed =
        replay_dpalloc(graph, model, lambda, &trace, totals.replayed + 1);
    totals.replay_s += seconds_since(t1);
    totals.dpalloc_s += std::chrono::duration<double>(t1 - t0).count();
    ++totals.replayed;
    totals.iterations += replayed.stats.iterations;
    totals.refinements += replayed.stats.refinements;
    totals.escalations += replayed.stats.escalations;
    out.attempt();
    const std::string diff = same_allocation(replayed, reference);
    out.check(diff.empty(), "phase replay diverged from dpalloc(): " + diff);
    return reference;
}

void report_replay(const tracer& trace, const replay_totals& totals,
                   report& out)
{
    if (totals.replayed == 0) {
        return;
    }
    const std::map<std::string, double> self = trace.self_ms_by_name();
    const auto per_job = [&](const char* span) {
        const auto it = self.find(span);
        return it == self.end()
                   ? 0.0
                   : it->second / static_cast<double>(totals.replayed);
    };
    out.set("wcg.build_ms", per_job("wcg.build"), "ms");
    out.set("sched.cover_ms", per_job("sched.cover"), "ms");
    out.set("sched.schedule_ms", per_job("sched.schedule"), "ms");
    out.set("bind.bind_select_ms", per_job("bind.bind_select"), "ms");
    out.set("core.critical_ms", per_job("core.critical"), "ms");
    out.set("core.refine_select_ms", per_job("core.refine_select"), "ms");
    out.set("dpalloc.replayed", static_cast<double>(totals.replayed), "count");
    out.set("dpalloc.iterations", static_cast<double>(totals.iterations),
            "count");
    out.set("dpalloc.refinements", static_cast<double>(totals.refinements),
            "count");
    out.set("dpalloc.escalations", static_cast<double>(totals.escalations),
            "count");
    out.set("dpalloc.ms_per_iteration",
            totals.iterations == 0
                ? 0.0
                : trace.total_ms("dpalloc") /
                      static_cast<double>(totals.iterations),
            "ms");
}

} // namespace perfbench
