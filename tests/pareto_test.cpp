// Unit tests for the Pareto sweep (engine/pareto_sweep.hpp) and its
// dominance rules (core/pareto.hpp): frontier shape, dominance, validity
// of every point, and early stopping. Every sweep here runs parallel_for
// over one engine shared by the whole suite, so CI also runs it under
// -fsanitize=thread.

#include "core/pareto.hpp"
#include "core/validate.hpp"
#include "dfg/analysis.hpp"
#include "engine/pareto_sweep.hpp"
#include "model/hardware_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tgff/corpus.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace mwl {
namespace {

/// The suite's sweep: one engine (pool and cache) for every test, as
/// mwl_batch shares one across a manifest.
std::vector<pareto_point> sweep(const sequencing_graph& graph,
                                const hardware_model& model,
                                const pareto_options& options = {})
{
    static batch_engine engine(batch_options{.jobs = 3});
    return pareto_sweep(graph, model, options, engine);
}

sequencing_graph fig1_graph()
{
    sequencing_graph g;
    const op_id m1 = g.add_operation(op_shape::multiplier(12, 12), "m1");
    const op_id m2 = g.add_operation(op_shape::multiplier(8, 4), "m2");
    const op_id a = g.add_operation(op_shape::adder(12), "a");
    g.add_dependency(m1, a);
    g.add_dependency(m2, a);
    return g;
}

TEST(Pareto, Fig1FrontierHasBothKnownDesigns)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const auto frontier = sweep(g, model);
    ASSERT_GE(frontier.size(), 2u);
    // Fastest point: lambda_min design, area 188; a later point reaches
    // the shared-multiplier design at 156.
    EXPECT_EQ(frontier.front().latency, 5);
    EXPECT_DOUBLE_EQ(frontier.front().area, 188.0);
    EXPECT_DOUBLE_EQ(frontier.back().area, 156.0);
}

TEST(Pareto, FrontierIsStrictlyMonotone)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 5, model, 41);
    for (const corpus_entry& e : corpus) {
        const auto frontier = sweep(e.graph, model);
        ASSERT_FALSE(frontier.empty());
        for (std::size_t i = 1; i < frontier.size(); ++i) {
            EXPECT_GT(frontier[i].latency, frontier[i - 1].latency);
            EXPECT_LT(frontier[i].area, frontier[i - 1].area);
        }
    }
}

TEST(Pareto, EveryPointIsValidAtItsLambda)
{
    const sonic_model model;
    const auto corpus = make_corpus(8, 5, model, 43);
    for (const corpus_entry& e : corpus) {
        const auto frontier = sweep(e.graph, model);
        for (const pareto_point& p : frontier) {
            require_valid(e.graph, model, p.path, p.lambda);
            EXPECT_LE(p.latency, p.lambda);
            EXPECT_GE(p.lambda, e.lambda_min);
        }
    }
}

TEST(Pareto, FirstPointIsAtLambdaMin)
{
    const sonic_model model;
    const auto corpus = make_corpus(6, 5, model, 47);
    for (const corpus_entry& e : corpus) {
        const auto frontier = sweep(e.graph, model);
        EXPECT_EQ(frontier.front().lambda, e.lambda_min);
    }
}

TEST(Pareto, EmptyGraphYieldsEmptyFrontier)
{
    sequencing_graph g;
    const sonic_model model;
    EXPECT_TRUE(sweep(g, model).empty());
}

TEST(Pareto, ZeroSlackYieldsSinglePoint)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    pareto_options opts;
    opts.max_slack = 0.0;
    const auto frontier = sweep(g, model, opts);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0].lambda, 5);
}

TEST(Pareto, InvalidOptionsThrow)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    pareto_options opts;
    opts.max_slack = -0.5;
    EXPECT_THROW(static_cast<void>(sweep(g, model, opts)),
                 precondition_error);
    opts = {};
    opts.patience = 0;
    EXPECT_THROW(static_cast<void>(sweep(g, model, opts)),
                 precondition_error);
}

pareto_point make_point(int lambda, int latency, double area)
{
    pareto_point p;
    p.lambda = lambda;
    p.latency = latency;
    p.area = area;
    return p;
}

TEST(Pareto, FrontierAdmitsNoWorseAreaAndInsertKeepsImprovements)
{
    std::vector<pareto_point> frontier;
    frontier_insert(frontier, make_point(5, 5, 188.0));
    EXPECT_FALSE(frontier_admits(frontier, 200.0)); // worse area: dropped
    ASSERT_TRUE(frontier_admits(frontier, 156.0));  // improvement: kept
    frontier_insert(frontier, make_point(8, 8, 156.0));
    ASSERT_EQ(frontier.size(), 2u);
    EXPECT_EQ(frontier[0].lambda, 5);
    EXPECT_EQ(frontier[1].lambda, 8);
    EXPECT_DOUBLE_EQ(frontier[1].area, 156.0);
}

TEST(Pareto, FrontierInsertReplacesEqualLatencyPredecessor)
{
    // The equal-latency edge case: a constraint relaxation that yields the
    // *same achieved latency* at lower area must replace its predecessor,
    // not sit beside it -- the frontier stays strictly monotone.
    std::vector<pareto_point> frontier;
    frontier_insert(frontier, make_point(5, 4, 100.0));
    ASSERT_TRUE(frontier_admits(frontier, 80.0));
    frontier_insert(frontier, make_point(6, 4, 80.0)); // same latency
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0].lambda, 6);
    EXPECT_EQ(frontier[0].latency, 4);
    EXPECT_DOUBLE_EQ(frontier[0].area, 80.0);
}

TEST(Pareto, FrontierInsertPopsEveryDominatedTailPoint)
{
    // One cheap slow point can dominate several faster predecessors.
    std::vector<pareto_point> frontier;
    frontier_insert(frontier, make_point(5, 5, 100.0));
    frontier_insert(frontier, make_point(6, 6, 90.0));
    frontier_insert(frontier, make_point(7, 7, 80.0));
    ASSERT_TRUE(frontier_admits(frontier, 40.0));
    frontier_insert(frontier, make_point(9, 6, 40.0)); // dominates two
    ASSERT_EQ(frontier.size(), 2u);
    EXPECT_EQ(frontier[0].lambda, 5);
    EXPECT_EQ(frontier[1].lambda, 9);
    EXPECT_EQ(frontier[1].latency, 6);
}

TEST(Pareto, FrontierAdmitsUsesStrictImprovementWithEpsilon)
{
    std::vector<pareto_point> frontier;
    EXPECT_TRUE(frontier_admits(frontier, 1e18)); // empty admits anything
    frontier_insert(frontier, make_point(5, 5, 100.0));
    EXPECT_FALSE(frontier_admits(frontier, 100.0));
    EXPECT_FALSE(frontier_admits(frontier, 100.0 - 1e-12)); // within eps
    EXPECT_TRUE(frontier_admits(frontier, 99.0));
}

// ---- property tests: frontier invariants over random streams / sweeps ----

/// Point `a` dominates `b`: no worse in both coordinates, better in one.
bool dominates(const pareto_point& a, const pareto_point& b)
{
    return a.latency <= b.latency &&
           a.area <= b.area + pareto_area_epsilon &&
           (a.latency < b.latency || a.area < b.area - pareto_area_epsilon);
}

void expect_frontier_invariants(const std::vector<pareto_point>& frontier)
{
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GT(frontier[i].lambda, frontier[i - 1].lambda);
        EXPECT_GT(frontier[i].latency, frontier[i - 1].latency);
        EXPECT_LT(frontier[i].area,
                  frontier[i - 1].area - pareto_area_epsilon);
    }
    for (std::size_t i = 0; i < frontier.size(); ++i) {
        for (std::size_t j = 0; j < frontier.size(); ++j) {
            if (i != j) {
                EXPECT_FALSE(dominates(frontier[i], frontier[j]))
                    << "frontier point " << i << " dominates " << j;
            }
        }
    }
}

/// A random sweep-shaped stream: lambdas strictly ascend, achieved latency
/// and area are arbitrary (the heuristic makes no promise per lambda).
std::vector<pareto_point> random_stream(rng& random)
{
    std::vector<pareto_point> stream;
    int lambda = random.uniform_int(1, 5);
    const std::size_t n = random.uniform(0, 40);
    for (std::size_t i = 0; i < n; ++i) {
        stream.push_back(make_point(
            lambda, random.uniform_int(1, 30),
            static_cast<double>(random.uniform_int(1, 400)) / 4.0));
        lambda += random.uniform_int(1, 3);
    }
    return stream;
}

std::vector<pareto_point> build_serial(
    const std::vector<pareto_point>& stream)
{
    std::vector<pareto_point> frontier;
    for (const pareto_point& p : stream) {
        if (frontier_admits(frontier, p.area)) {
            frontier_insert(frontier, p);
        }
    }
    return frontier;
}

TEST(ParetoProperty, SerialInsertionYieldsNoDominatedPoint)
{
    const std::uint64_t seed =
        mwl::testing::env_seed("MWL_PARETO_SEED", 0x9A12);
    MWL_TRACE_SEED("MWL_PARETO_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        expect_frontier_invariants(build_serial(random_stream(random)));
    }
}

TEST(ParetoProperty, RealSweepsSatisfyInvariantsAndMatchReconstruction)
{
    // End to end on real allocations: the sweep's frontier must (a) hold
    // the invariants, (b) equal the frontier rebuilt from per-lambda
    // dpalloc results through frontier_admits/frontier_insert alone.
    const std::uint64_t seed =
        mwl::testing::env_seed("MWL_PARETO_SEED", 0x9A14);
    MWL_TRACE_SEED("MWL_PARETO_SEED", seed);
    const sonic_model model;
    pareto_options opts;
    opts.max_slack = 0.3;
    opts.patience = 1 << 20; // no early stop: cover the whole range
    const auto corpus = make_corpus(9, 6, model, seed);
    for (const corpus_entry& e : corpus) {
        const auto frontier = sweep(e.graph, model, opts);
        expect_frontier_invariants(frontier);
        EXPECT_EQ(frontier.front().lambda, e.lambda_min);

        std::vector<pareto_point> rebuilt;
        const int lambda_max = relaxed_lambda(e.lambda_min, opts.max_slack);
        for (int lambda = e.lambda_min; lambda <= lambda_max; ++lambda) {
            dpalloc_result r = dpalloc(e.graph, model, lambda);
            pareto_point p = make_point(lambda, r.path.latency,
                                        r.path.total_area);
            EXPECT_LE(p.latency, lambda);
            if (frontier_admits(rebuilt, p.area)) {
                frontier_insert(rebuilt, std::move(p));
            }
        }
        ASSERT_EQ(frontier.size(), rebuilt.size());
        for (std::size_t i = 0; i < frontier.size(); ++i) {
            EXPECT_EQ(frontier[i].lambda, rebuilt[i].lambda);
            EXPECT_EQ(frontier[i].latency, rebuilt[i].latency);
            EXPECT_DOUBLE_EQ(frontier[i].area, rebuilt[i].area);
        }
    }
}

TEST(Pareto, UniformModelFrontierIsSinglePointWhenNoTradeExists)
{
    // With uniform latencies there is no latency-for-area trade at all on
    // a serial chain: the frontier collapses.
    sequencing_graph g;
    op_id prev = g.add_operation(op_shape::adder(8));
    for (int i = 0; i < 3; ++i) {
        const op_id next = g.add_operation(op_shape::adder(8));
        g.add_dependency(prev, next);
        prev = next;
    }
    const uniform_latency_model model(2);
    const auto frontier = sweep(g, model);
    EXPECT_EQ(frontier.size(), 1u);
}

} // namespace
} // namespace mwl
