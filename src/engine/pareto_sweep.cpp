#include "engine/pareto_sweep.hpp"

#include "dfg/analysis.hpp"
#include "support/error.hpp"
#include "tgff/corpus.hpp"

#include <algorithm>

namespace mwl {

std::vector<pareto_point> pareto_sweep(const sequencing_graph& graph,
                                       const hardware_model& model,
                                       const pareto_options& options,
                                       batch_engine& engine)
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
    std::vector<batch_engine::outcome> wave;
    std::size_t wave_size =
        std::max(engine.pool().size(),
                 static_cast<std::size_t>(options.patience) + 1);
    for (int first = lambda_min;;) {
        const std::size_t remaining =
            static_cast<std::size_t>(lambda_max - first) + 1;
        wave.assign(std::min(wave_size, remaining), {});
        parallel_for(engine.pool(), wave.size(), [&](std::size_t i) {
            wave[i] = engine.run(graph, model, first + static_cast<int>(i),
                                 options.allocator);
        });

        // The serial loop's fold, in lambda order.
        for (std::size_t i = 0; i < wave.size(); ++i) {
            const batch_engine::outcome& out = wave[i];
            if (!out.ok()) {
                throw error(out.error);
            }
            const datapath& path = out.result->path;
            if (frontier_admits(frontier, path.total_area)) {
                frontier_insert(frontier,
                                {first + static_cast<int>(i), path.latency,
                                 path.total_area, path});
                stale = 0;
            } else if (++stale >= options.patience) {
                return frontier;
            }
        }
        if (wave.size() == remaining) {
            return frontier;
        }
        first += static_cast<int>(wave.size());
        wave_size *= 2;
    }
}

} // namespace mwl
