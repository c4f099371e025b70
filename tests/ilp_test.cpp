// Unit tests for src/ilp: the time-indexed formulation of [5], decoding to
// a validator-clean datapath, agreement with the independent exhaustive
// optimum, and the variable-count scaling with lambda that drives the
// paper's Table 2.

#include "core/validate.hpp"
#include "dfg/analysis.hpp"
#include "ilp/formulation.hpp"
#include "model/hardware_model.hpp"
#include "oracle/exhaustive.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tgff/generator.hpp"

#include <gtest/gtest.h>

namespace mwl {
namespace {

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

// -------------------------------------------------------------- build --

TEST(IlpBuild, CountsMatchStructure)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const ilp_model m = build_ilp(g, model, 5);
    // One n_r per closure resource + start variables.
    EXPECT_EQ(m.count_var.size(), m.resources.size());
    EXPECT_GT(m.x_vars.size(), 0u);
    EXPECT_EQ(m.problem.n_vars(), m.count_var.size() + m.x_vars.size());
}

TEST(IlpBuild, VariableCountGrowsWithLambda)
{
    // The paper: "The number of variables in the ILP model scales with the
    // latency constraint".
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const std::size_t tight = build_ilp(g, model, 5).problem.n_vars();
    const std::size_t slack = build_ilp(g, model, 8).problem.n_vars();
    const std::size_t slacker = build_ilp(g, model, 12).problem.n_vars();
    EXPECT_LT(tight, slack);
    EXPECT_LT(slack, slacker);
}

TEST(IlpBuild, InfeasibleLambdaThrows)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    EXPECT_THROW(static_cast<void>(build_ilp(g, model, 4)),
                 infeasible_error);
}

TEST(IlpBuild, StartVariablesRespectWindows)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const int lambda = 6;
    const ilp_model m = build_ilp(g, model, lambda);
    for (const auto& xv : m.x_vars) {
        const int lr = model.latency(m.resources[xv.resource_index]);
        EXPECT_GE(xv.t, 0);
        EXPECT_LE(xv.t + lr, lambda);
        EXPECT_TRUE(
            m.resources[xv.resource_index].covers(g.shape(xv.o)));
    }
}

// -------------------------------------------------------------- solve --

TEST(IlpSolve, Fig1TightOptimum)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const ilp_result r = solve_ilp(g, model, 5);
    ASSERT_EQ(r.status, mip_status::optimal);
    require_valid(g, model, r.path, 5);
    EXPECT_DOUBLE_EQ(r.path.total_area, 188.0); // both mults + adder
}

TEST(IlpSolve, Fig1SlackOptimum)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const ilp_result r = solve_ilp(g, model, 8);
    ASSERT_EQ(r.status, mip_status::optimal);
    require_valid(g, model, r.path, 8);
    EXPECT_DOUBLE_EQ(r.path.total_area, 156.0); // shared 12x12 + adder
}

TEST(IlpSolve, EmptyGraph)
{
    sequencing_graph g;
    const sonic_model model;
    const ilp_result r = solve_ilp(g, model, 0);
    EXPECT_EQ(r.status, mip_status::optimal);
    EXPECT_DOUBLE_EQ(r.path.total_area, 0.0);
}

TEST(IlpSolve, SingleOp)
{
    sequencing_graph g;
    g.add_operation(op_shape::adder(9));
    const sonic_model model;
    const ilp_result r = solve_ilp(g, model, 2);
    ASSERT_EQ(r.status, mip_status::optimal);
    require_valid(g, model, r.path, 2);
    EXPECT_DOUBLE_EQ(r.path.total_area, 9.0);
}

TEST(IlpSolve, SerialChainSharesOneResourcePerKind)
{
    sequencing_graph g;
    op_id prev = g.add_operation(op_shape::adder(8));
    for (int i = 0; i < 3; ++i) {
        const op_id next = g.add_operation(op_shape::adder(8));
        g.add_dependency(prev, next);
        prev = next;
    }
    const sonic_model model;
    const ilp_result r = solve_ilp(g, model, 8);
    ASSERT_EQ(r.status, mip_status::optimal);
    require_valid(g, model, r.path, 8);
    EXPECT_EQ(r.path.instances.size(), 1u);
    EXPECT_DOUBLE_EQ(r.path.total_area, 8.0);
}

TEST(IlpSolve, DecodedInstanceCountMatchesUsageBound)
{
    // Two overlapping identical mults need two instances.
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(8, 8));
    g.add_operation(op_shape::multiplier(8, 8));
    const sonic_model model;
    const ilp_result r = solve_ilp(g, model, 2);
    ASSERT_EQ(r.status, mip_status::optimal);
    require_valid(g, model, r.path, 2);
    EXPECT_EQ(r.path.instances.size(), 2u);
    EXPECT_DOUBLE_EQ(r.path.total_area, 128.0);
}

TEST(IlpSolve, MatchesExhaustiveOnRandomTinyGraphs)
{
    rng random(31337);
    int solved = 0;
    for (int trial = 0; trial < 12; ++trial) {
        tgff_options opts;
        opts.n_ops = 2 + static_cast<std::size_t>(trial) % 4; // 2..5 ops
        opts.max_width = 12;
        const sequencing_graph g = generate_tgff(opts, random);
        const sonic_model model;
        const int lmin = min_latency(g, model);
        for (const int extra : {0, 1}) {
            const int lambda = lmin + extra;
            const auto reference =
                oracle::exhaustive_optimal_area(g, model, lambda);
            if (!reference.has_value()) {
                continue; // enumeration too large; skip
            }
            const ilp_result r = solve_ilp(g, model, lambda);
            ASSERT_EQ(r.status, mip_status::optimal)
                << "trial " << trial << " lambda " << lambda;
            require_valid(g, model, r.path, lambda);
            EXPECT_NEAR(r.path.total_area, *reference, 1e-6)
                << "trial " << trial << " lambda " << lambda;
            ++solved;
        }
    }
    EXPECT_GT(solved, 10); // the sweep must actually exercise instances
}

TEST(IlpSolve, OptimumNeverWorsensWithSlack)
{
    rng random(2718);
    tgff_options opts;
    opts.n_ops = 4;
    const sequencing_graph g = generate_tgff(opts, random);
    const sonic_model model;
    const int lmin = min_latency(g, model);
    double prev = std::numeric_limits<double>::infinity();
    for (int extra = 0; extra <= 3; ++extra) {
        const ilp_result r = solve_ilp(g, model, lmin + extra);
        ASSERT_EQ(r.status, mip_status::optimal);
        EXPECT_LE(r.path.total_area, prev + 1e-9);
        prev = r.path.total_area;
    }
}

// --------------------------------------------------------- exhaustive --

TEST(Exhaustive, EmptyGraphIsZero)
{
    sequencing_graph g;
    const sonic_model model;
    EXPECT_DOUBLE_EQ(oracle::exhaustive_optimal_area(g, model, 0).value(),
                     0.0);
}

TEST(Exhaustive, SingleOpIsOwnArea)
{
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(10, 10));
    const sonic_model model;
    EXPECT_DOUBLE_EQ(oracle::exhaustive_optimal_area(g, model, 3).value(),
                     100.0);
}

TEST(Exhaustive, SharingBeatsParallelWhenSlackAllows)
{
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(8, 8));
    g.add_operation(op_shape::multiplier(8, 8));
    const sonic_model model;
    EXPECT_DOUBLE_EQ(oracle::exhaustive_optimal_area(g, model, 2).value(),
                     128.0);
    EXPECT_DOUBLE_EQ(oracle::exhaustive_optimal_area(g, model, 4).value(),
                     64.0);
}

TEST(Exhaustive, StateCapReturnsNullopt)
{
    sequencing_graph g;
    for (int i = 0; i < 6; ++i) {
        g.add_operation(op_shape::multiplier(8 + i, 8));
    }
    const sonic_model model;
    EXPECT_FALSE(
        oracle::exhaustive_optimal_area(g, model, 30, /*max_states=*/100)
            .has_value());
}

} // namespace
} // namespace mwl
