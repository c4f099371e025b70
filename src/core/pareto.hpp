// The Pareto frontier of an area/latency sweep and its dominance rules.
//
// A sweep (engine/pareto_sweep.hpp) relaxes the latency constraint lambda
// from lambda_min upward and folds each design into a frontier of
// non-dominated (latency, area) points with the two rules below. They are
// the whole of the sweep's admission logic, kept here so every caller and
// test applies the same ones.

#ifndef MWL_CORE_PARETO_HPP
#define MWL_CORE_PARETO_HPP

#include "core/dpalloc.hpp"

#include <vector>

namespace mwl {

struct pareto_point {
    int lambda = 0;      ///< constraint that produced the design
    int latency = 0;     ///< achieved latency (<= lambda)
    double area = 0.0;
    datapath path;
};

struct pareto_options {
    /// Sweep upper bound as a multiple of lambda_min (inclusive).
    double max_slack = 1.0;
    /// Stop early after this many consecutive non-improving lambdas.
    int patience = 8;
    dpalloc_options allocator;
};

/// Absolute tolerance under which two areas are considered equal by the
/// dominance rules below (matches the sweep's improvement threshold).
inline constexpr double pareto_area_epsilon = 1e-9;

/// True iff a design of this area would extend `frontier`: strictly below
/// the frontier's current best (= last) area. An empty frontier admits
/// everything.
[[nodiscard]] bool frontier_admits(const std::vector<pareto_point>& frontier,
                                   double area);

/// Append an admitted point, first popping predecessors it dominates --
/// every tail point with `latency >= point.latency` (a new point with the
/// same achieved latency but lower area replaces its predecessor).
/// Precondition: `frontier_admits(frontier, point.area)`.
void frontier_insert(std::vector<pareto_point>& frontier, pareto_point point);

} // namespace mwl

#endif // MWL_CORE_PARETO_HPP
