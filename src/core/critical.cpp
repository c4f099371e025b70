#include "core/critical.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace mwl {
namespace {

/// `order` = every operation by ascending start, ties by ascending id.
void sort_by_start(std::span<const int> start, critical_path_scratch& aug)
{
    auto& order = aug.order;
    order.resize(start.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return start[a] < start[b];
                     });
}

/// S^b: back-to-back pairs on the same instance, as a flat successor
/// table: o's S^b successors are sb_to[sb_begin[o] .. sb_end[o]).
/// Within one instance, in start order, any qualifying pair (start1 + l1 ==
/// start2, l1 >= 1) has start2 strictly after start1, so scanning forward
/// from each op until starts exceed the target finds every pair -- O(k)
/// per op for an instance of k ops. Bucketing the start order by instance
/// (stably) yields every instance's ops in start order, with no sort.
void build_serialisation_edges(std::span<const int> start,
                               std::span<const int> bound_lat,
                               std::span<const std::size_t> instance_of_op,
                               critical_path_scratch& aug)
{
    const std::size_t n = start.size();
    std::size_t n_instances = 0;
    for (const std::size_t inst : instance_of_op) {
        n_instances = std::max(n_instances, inst + 1);
    }
    auto& off = aug.instance_off;
    off.assign(n_instances + 1, 0);
    for (const std::size_t inst : instance_of_op) {
        ++off[inst + 1];
    }
    std::partial_sum(off.begin(), off.end(), off.begin());
    auto& by_instance = aug.by_instance;
    by_instance.resize(n);
    for (const std::size_t o : aug.order) {
        by_instance[off[instance_of_op[o]]++] = o;
    }

    aug.sb_begin.resize(n);
    aug.sb_end.resize(n);
    aug.sb_to.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t o = by_instance[i];
        const std::size_t inst = instance_of_op[o];
        aug.sb_begin[o] = aug.sb_to.size();
        const int target = start[o] + bound_lat[o];
        for (std::size_t j = i + 1; j < n &&
                                    instance_of_op[by_instance[j]] == inst &&
                                    start[by_instance[j]] <= target;
             ++j) {
            if (start[by_instance[j]] == target) {
                aug.sb_to.push_back(by_instance[j]);
            }
        }
        aug.sb_end[o] = aug.sb_to.size();
    }
}

} // namespace

bound_critical_path compute_bound_critical_path(
    const sequencing_graph& graph, std::span<const int> start,
    std::span<const int> bound_latencies,
    std::span<const std::size_t> instance_of_op,
    critical_path_scratch* scratch)
{
    const std::size_t n = graph.size();
    require(start.size() == n && bound_latencies.size() == n &&
                instance_of_op.size() == n,
            "schedule/binding vectors do not match graph");

    bound_critical_path result;
    if (n == 0) {
        return result;
    }

    // The sweeps below visit operations in start order, which is a
    // topological order of the augmented graph only for a real schedule:
    // the per-operation half of that precondition is checked here, the
    // dependency half by the ASAP sweep, which visits every S edge.
    for (std::size_t o = 0; o < n; ++o) {
        require(start[o] >= 0, "start step must be non-negative");
        require(bound_latencies[o] >= 1, "bound latency must be >= 1");
        require(start[o] <= std::numeric_limits<int>::max() -
                                bound_latencies[o],
                "finish step out of range");
    }

    critical_path_scratch local;
    critical_path_scratch& aug = scratch ? *scratch : local;
    sort_by_start(start, aug);
    build_serialisation_edges(start, bound_latencies, instance_of_op, aug);
    const auto sb_succs = [&](std::size_t o) {
        return std::span<const std::size_t>(aug.sb_to).subspan(
            aug.sb_begin[o], aug.sb_end[o] - aug.sb_begin[o]);
    };

    // ASAP and ALAP over S plus S^b. In ascending start order every
    // predecessor precedes its successors, so pushing finish times forward
    // settles each ASAP value before it is read; the reverse order does
    // the same for ALAP. Neither value depends on which topological order
    // is used.
    const auto latency = [&](std::size_t o) { return bound_latencies[o]; };
    auto& asap = aug.asap;
    asap.assign(n, 0);
    int length = 0;
    for (const std::size_t o : aug.order) {
        const int done = asap[o] + latency(o);
        length = std::max(length, done);
        for (const op_id s : graph.successors(op_id(o))) {
            require(start[s.value()] >= start[o] + latency(o),
                    "schedule starts an operation before its predecessor "
                    "finishes");
            asap[s.value()] = std::max(asap[s.value()], done);
        }
        for (const std::size_t s : sb_succs(o)) {
            asap[s] = std::max(asap[s], done);
        }
    }
    result.augmented_length = length;

    auto& alap = aug.alap;
    alap.assign(n, 0);
    for (auto it = aug.order.rbegin(); it != aug.order.rend(); ++it) {
        const std::size_t o = *it;
        int latest = length;
        for (const op_id s : graph.successors(op_id(o))) {
            latest = std::min(latest, alap[s.value()]);
        }
        for (const std::size_t s : sb_succs(o)) {
            latest = std::min(latest, alap[s]);
        }
        alap[o] = latest - latency(o);
    }

    for (std::size_t o = 0; o < n; ++o) {
        MWL_ASSERT(asap[o] <= alap[o]);
        if (asap[o] == alap[o]) {
            result.ops.emplace_back(o);
        }
    }
    return result;
}

bound_critical_path compute_bound_critical_path(const sequencing_graph& graph,
                                                const datapath& path)
{
    const std::size_t n = graph.size();
    require(path.start.size() == n && path.instance_of_op.size() == n,
            "datapath does not match graph");

    std::vector<int> bound_lat(n, 0);
    for (const op_id o : graph.all_ops()) {
        bound_lat[o.value()] = path.bound_latency(o);
    }
    return compute_bound_critical_path(graph, path.start, bound_lat,
                                       path.instance_of_op);
}

} // namespace mwl
