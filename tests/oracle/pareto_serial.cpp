#include "oracle/pareto_serial.hpp"

#include "dfg/analysis.hpp"
#include "support/error.hpp"
#include "tgff/corpus.hpp"

#include <utility>

namespace mwl::oracle {

std::vector<pareto_point> pareto_sweep_serial(const sequencing_graph& graph,
                                              const hardware_model& model,
                                              const pareto_options& options)
{
    require(options.max_slack >= 0.0, "max_slack must be non-negative");
    require(options.patience >= 1, "patience must be >= 1");
    if (graph.empty()) {
        return {};
    }

    const int lambda_min = min_latency(graph, model);
    const int lambda_max = relaxed_lambda(lambda_min, options.max_slack);

    std::vector<pareto_point> frontier;
    int stale = 0;
    for (int lambda = lambda_min; lambda <= lambda_max; ++lambda) {
        dpalloc_result r = dpalloc(graph, model, lambda, options.allocator);
        if (frontier_admits(frontier, r.path.total_area)) {
            pareto_point point;
            point.lambda = lambda;
            point.latency = r.path.latency;
            point.area = r.path.total_area;
            point.path = std::move(r.path);
            frontier_insert(frontier, std::move(point));
            stale = 0;
        } else if (++stale >= options.patience) {
            break;
        }
    }
    return frontier;
}

} // namespace mwl::oracle
