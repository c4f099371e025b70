#include "core/pareto.hpp"

#include "support/error.hpp"

#include <utility>

namespace mwl {

bool frontier_admits(const std::vector<pareto_point>& frontier, double area)
{
    // The frontier's areas descend, so the back holds the best area seen.
    return frontier.empty() ||
           area < frontier.back().area - pareto_area_epsilon;
}

void frontier_insert(std::vector<pareto_point>& frontier, pareto_point point)
{
    MWL_ASSERT(frontier_admits(frontier, point.area));
    // Dominance also covers achieved latency: a new point with the same
    // achieved latency but lower area replaces its predecessor.
    while (!frontier.empty() && frontier.back().latency >= point.latency) {
        frontier.pop_back();
    }
    frontier.push_back(std::move(point));
}

} // namespace mwl
