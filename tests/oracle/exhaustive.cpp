#include "oracle/exhaustive.hpp"

#include "dfg/analysis.hpp"
#include "support/error.hpp"
#include "wcg/resource_set.hpp"

#include <algorithm>
#include <vector>

namespace mwl::oracle {
namespace {

struct assignment {
    std::size_t resource_index = 0;
    int start = 0;
};

struct search {
    const sequencing_graph* graph = nullptr;
    const hardware_model* model = nullptr;
    std::vector<op_shape> resources;
    std::vector<int> res_latency;
    std::vector<double> res_area;
    std::vector<std::vector<std::size_t>> compatible; // per op
    std::vector<op_id> order;                         // topological
    std::vector<assignment> current;
    int lambda = 0;
    std::uint64_t states = 0;
    std::uint64_t max_states = 0;
    bool aborted = false;
    double best = 0.0;
    bool have_best = false;

    /// Area of the complete current assignment: per type, instances needed
    /// = max overlap of equal-length intervals.
    [[nodiscard]] double evaluate() const
    {
        double area = 0.0;
        for (std::size_t ri = 0; ri < resources.size(); ++ri) {
            const int lr = res_latency[ri];
            int max_overlap = 0;
            for (int t = 0; t < lambda; ++t) {
                int running = 0;
                for (std::size_t o = 0; o < current.size(); ++o) {
                    if (current[o].resource_index == ri &&
                        current[o].start <= t && t < current[o].start + lr) {
                        ++running;
                    }
                }
                max_overlap = std::max(max_overlap, running);
            }
            area += res_area[ri] * max_overlap;
        }
        return area;
    }

    void recurse(std::size_t depth)
    {
        if (aborted) {
            return;
        }
        if (++states > max_states) {
            aborted = true;
            return;
        }
        if (depth == order.size()) {
            const double area = evaluate();
            if (!have_best || area < best) {
                best = area;
                have_best = true;
            }
            return;
        }
        const op_id o = order[depth];
        // Earliest start given already-assigned predecessors (topological
        // order guarantees they are assigned).
        int earliest = 0;
        for (const op_id p : graph->predecessors(o)) {
            const assignment& pa = current[p.value()];
            earliest = std::max(
                earliest, pa.start + res_latency[pa.resource_index]);
        }
        for (const std::size_t ri : compatible[o.value()]) {
            const int lr = res_latency[ri];
            for (int s = earliest; s + lr <= lambda; ++s) {
                current[o.value()] = assignment{ri, s};
                recurse(depth + 1);
                if (aborted) {
                    return;
                }
            }
        }
    }
};

} // namespace

std::optional<double> exhaustive_optimal_area(const sequencing_graph& graph,
                                              const hardware_model& model,
                                              int lambda,
                                              std::uint64_t max_states)
{
    require(lambda >= 0, "latency constraint must be non-negative");
    if (graph.empty()) {
        return 0.0;
    }

    search s;
    s.graph = &graph;
    s.model = &model;
    s.lambda = lambda;
    s.max_states = max_states;
    s.resources = extract_resource_types(graph);
    for (const op_shape& r : s.resources) {
        s.res_latency.push_back(model.latency(r));
        s.res_area.push_back(model.area(r));
    }
    s.compatible.resize(graph.size());
    for (const op_id o : graph.all_ops()) {
        for (std::size_t ri = 0; ri < s.resources.size(); ++ri) {
            if (s.resources[ri].covers(graph.shape(o))) {
                s.compatible[o.value()].push_back(ri);
            }
        }
    }
    s.order = graph.topological_order();
    s.current.resize(graph.size());

    s.recurse(0);
    if (s.aborted || !s.have_best) {
        return std::nullopt;
    }
    return s.best;
}

} // namespace mwl::oracle
