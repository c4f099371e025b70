#include "engine/parallel_pareto.hpp"

#include "dfg/analysis.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace mwl {
namespace {

// One worker's share of a wave: a contiguous lambda range, the area of
// every design in it, and the *candidate* points -- those strictly below
// the chunk-prefix running minimum area. Candidacy is a superset of the
// serial sweep's admission: a point the serial sweep admits at lambda has
// area < best - eps, best never exceeds the running minimum of all earlier
// areas by more than eps, and the chunk prefix is a subset of "all
// earlier", so the point is strictly below its chunk's running minimum.
// Everything else can be discarded inside the worker (the datapaths are
// the memory-heavy part); the replay below re-applies the exact admission
// rule to the survivors.
struct sweep_chunk {
    int first_lambda = 0;
    std::vector<double> areas;
    std::vector<pareto_point> candidates;
};

void run_chunk(const sequencing_graph& graph, const hardware_model& model,
               const dpalloc_options& allocator, int first_lambda,
               int last_lambda, sweep_chunk& out)
{
    out.first_lambda = first_lambda;
    out.areas.reserve(static_cast<std::size_t>(last_lambda - first_lambda) +
                      1);
    double running_min = 0.0;
    for (int lambda = first_lambda; lambda <= last_lambda; ++lambda) {
        dpalloc_result r = dpalloc(graph, model, lambda, allocator);
        const double area = r.path.total_area;
        out.areas.push_back(area);
        if (out.areas.size() == 1 || area < running_min) {
            running_min = area;
            pareto_point point;
            point.lambda = lambda;
            point.latency = r.path.latency;
            point.area = area;
            point.path = std::move(r.path);
            out.candidates.push_back(std::move(point));
        }
    }
}

} // namespace

std::vector<pareto_point> parallel_pareto_sweep(
    const sequencing_graph& graph, const hardware_model& model,
    const pareto_options& options, thread_pool& pool)
{
    require(options.max_slack >= 0.0, "max_slack must be non-negative");
    require(options.patience >= 1, "patience must be >= 1");
    if (graph.empty()) {
        return {};
    }

    const int lambda_min = min_latency(graph, model);
    const int lambda_max = static_cast<int>(std::ceil(
        static_cast<double>(lambda_min) * (1.0 + options.max_slack)));

    std::vector<pareto_point> frontier;
    double best_area = std::numeric_limits<double>::infinity();
    int stale = 0;
    bool stopped = false;

    int next_lambda = lambda_min;
    // First wave: just wide enough that an immediately-flat area curve
    // triggers the patience stop without a second wave.
    int wave = std::max(static_cast<int>(pool.size()), options.patience + 1);
    while (!stopped && next_lambda <= lambda_max) {
        const int count = std::min(wave, lambda_max - next_lambda + 1);
        const int n_chunks =
            std::max(1, std::min(count, static_cast<int>(pool.size())));

        std::vector<sweep_chunk> chunks(static_cast<std::size_t>(n_chunks));
        parallel_for(pool, chunks.size(), [&](std::size_t index) {
            const int c = static_cast<int>(index);
            const int first = next_lambda + c * count / n_chunks;
            const int last = next_lambda + (c + 1) * count / n_chunks - 1;
            run_chunk(graph, model, options.allocator, first, last,
                      chunks[index]);
        });

        // Replay the serial sweep's decision sequence over the wave, per
        // chunk: first a patience walk over the raw areas (the same
        // admission test the serial loop applies, tracking where it would
        // stop), then merge_frontiers over the candidates of the processed
        // prefix -- the dominance merge re-applies the identical admission
        // rule against the evolving frontier, whose best (= last) area
        // tracks `best_area` exactly, so the frontier evolves as the
        // serial loop's would.
        for (sweep_chunk& chunk : chunks) {
            std::size_t processed = chunk.areas.size();
            for (std::size_t i = 0; i < chunk.areas.size(); ++i) {
                if (chunk.areas[i] < best_area - pareto_area_epsilon) {
                    best_area = chunk.areas[i];
                    stale = 0;
                } else if (++stale >= options.patience) {
                    processed = i + 1; // the serial loop examines lambda i,
                    stopped = true;    // then breaks
                    break;
                }
            }
            const int end_lambda =
                chunk.first_lambda + static_cast<int>(processed);
            std::vector<pareto_point>& candidates = chunk.candidates;
            std::size_t keep = 0;
            while (keep < candidates.size() &&
                   candidates[keep].lambda < end_lambda) {
                ++keep;
            }
            candidates.resize(keep);
            merge_frontiers(frontier, std::move(candidates));
            if (stopped) {
                break;
            }
        }

        next_lambda += count;
        wave *= 2;
    }
    MWL_ASSERT(!frontier.empty());
    return frontier;
}

std::vector<pareto_point> parallel_pareto_sweep(const sequencing_graph& graph,
                                                const hardware_model& model,
                                                const pareto_options& options,
                                                std::size_t jobs)
{
    thread_pool pool(jobs);
    return parallel_pareto_sweep(graph, model, options, pool);
}

} // namespace mwl
