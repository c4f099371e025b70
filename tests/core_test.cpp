// Unit tests for src/core: the datapath validator, the bound critical path
// (§2.4) and the DPAlloc driver (§2), including a Fig. 1-style worked
// example demonstrating the paper's headline effect -- trading latency
// slack for area by executing small operations on larger, slower
// resources.

#include "core/critical.hpp"
#include "core/datapath.hpp"
#include "core/dpalloc.hpp"
#include "core/validate.hpp"
#include "dfg/analysis.hpp"
#include "model/hardware_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tgff/generator.hpp"

#include <gtest/gtest.h>

namespace mwl {
namespace {

/// Fig. 1-style graph: two independent multiplications feeding an addition.
/// mul12x12 (native 3 cycles), mul8x4 (native 2 cycles), add12 (2 cycles).
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

// ---------------------------------------------------------- validator --

TEST(Validate, AcceptsDpallocOutput)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const dpalloc_result r = dpalloc(g, model, 8);
    EXPECT_TRUE(validate_datapath(g, model, r.path, 8).empty());
    EXPECT_NO_THROW(require_valid(g, model, r.path, 8));
}

TEST(Validate, DetectsPrecedenceViolation)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    dpalloc_result r = dpalloc(g, model, 8);
    r.path.start[2] = 0; // adder now starts before its producers finish
    const auto bad = validate_datapath(g, model, r.path, -1);
    EXPECT_FALSE(bad.empty());
    EXPECT_THROW(require_valid(g, model, r.path, -1), error);
}

TEST(Validate, DetectsInstanceOverlap)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    dpalloc_result r = dpalloc(g, model, 8);
    // Find an instance with two ops (the shared multiplier at lambda=8)
    // and force its members to overlap.
    bool mutated = false;
    for (const datapath_instance& inst : r.path.instances) {
        if (inst.ops.size() >= 2) {
            r.path.start[inst.ops[1].value()] =
                r.path.start[inst.ops[0].value()];
            mutated = true;
            break;
        }
    }
    ASSERT_TRUE(mutated);
    EXPECT_FALSE(validate_datapath(g, model, r.path, -1).empty());
}

TEST(Validate, DetectsWordlengthViolation)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    dpalloc_result r = dpalloc(g, model, 5);
    // Shrink some multiplier instance below its member's width.
    for (datapath_instance& inst : r.path.instances) {
        if (inst.shape.kind() == op_kind::mul) {
            inst.shape = op_shape::multiplier(2, 2);
            inst.latency = model.latency(inst.shape);
            inst.area = model.area(inst.shape);
            break;
        }
    }
    EXPECT_FALSE(validate_datapath(g, model, r.path, -1).empty());
}

TEST(Validate, DetectsWrongAggregates)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    dpalloc_result r = dpalloc(g, model, 8);
    r.path.total_area += 1.0;
    EXPECT_FALSE(validate_datapath(g, model, r.path, -1).empty());
}

TEST(Validate, DetectsLatencyConstraintViolation)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const dpalloc_result r = dpalloc(g, model, 8);
    EXPECT_TRUE(validate_datapath(g, model, r.path, 8).empty());
    EXPECT_FALSE(
        validate_datapath(g, model, r.path, r.path.latency - 1).empty());
}

TEST(Validate, DetectsSizeMismatch)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    dpalloc_result r = dpalloc(g, model, 8);
    r.path.start.pop_back();
    EXPECT_FALSE(validate_datapath(g, model, r.path, -1).empty());
}

// -------------------------------------------------- bound critical path --

TEST(BoundCriticalPath, SerialChainIsAllCritical)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const dpalloc_result r = dpalloc(g, model, 8);
    // lambda=8 solution serialises both mults on one resource; everything
    // lies on the single augmented path.
    const bound_critical_path qb =
        compute_bound_critical_path(g, r.path);
    EXPECT_EQ(qb.augmented_length, 8);
    EXPECT_EQ(qb.ops.size(), 3u);
}

TEST(BoundCriticalPath, ParallelSolutionLeavesSlackOffPath)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const dpalloc_result r = dpalloc(g, model, 5);
    const bound_critical_path qb =
        compute_bound_critical_path(g, r.path);
    EXPECT_EQ(qb.augmented_length, 5);
    // m2 (2-cycle native) has a cycle of slack against m1's 3 cycles.
    std::vector<bool> in_qb(g.size(), false);
    for (const op_id o : qb.ops) {
        in_qb[o.value()] = true;
    }
    EXPECT_TRUE(in_qb[0]);  // m1 critical
    EXPECT_FALSE(in_qb[1]); // m2 has slack
    EXPECT_TRUE(in_qb[2]);  // sink adder critical
}

TEST(BoundCriticalPath, EmptyGraph)
{
    sequencing_graph g;
    datapath path;
    const bound_critical_path qb = compute_bound_critical_path(g, path);
    EXPECT_TRUE(qb.ops.empty());
    EXPECT_EQ(qb.augmented_length, 0);
}

TEST(BoundCriticalPath, RejectsInputsThatAreNotASchedule)
{
    // The sweeps visit operations in start order, a topological order of
    // the augmented graph only when the allocation is a real schedule.
    const sequencing_graph g = fig1_graph(); // m1 -> a, m2 -> a
    const std::vector<std::size_t> inst{0, 1, 2};
    const std::vector<int> lat{3, 2, 2};
    const std::vector<int> ok{0, 0, 3};
    EXPECT_NO_THROW(
        static_cast<void>(compute_bound_critical_path(g, ok, lat, inst)));

    const std::vector<int> negative{-1, 0, 3};
    EXPECT_THROW(static_cast<void>(
                     compute_bound_critical_path(g, negative, lat, inst)),
                 precondition_error);
    const std::vector<int> zero_latency{3, 0, 2};
    EXPECT_THROW(static_cast<void>(
                     compute_bound_critical_path(g, ok, zero_latency, inst)),
                 precondition_error);
    // a starts one step before m1 finishes.
    const std::vector<int> early{0, 0, 2};
    EXPECT_THROW(
        static_cast<void>(compute_bound_critical_path(g, early, lat, inst)),
        precondition_error);
    // a before its predecessors altogether.
    const std::vector<int> reversed{5, 5, 0};
    EXPECT_THROW(static_cast<void>(
                     compute_bound_critical_path(g, reversed, lat, inst)),
                 precondition_error);
    // A datapath whose instance claims a zero-cycle latency.
    const sonic_model model;
    dpalloc_result r = dpalloc(g, model, 8);
    r.path.instances.front().latency = 0;
    EXPECT_THROW(static_cast<void>(compute_bound_critical_path(g, r.path)),
                 precondition_error);
}

TEST(BoundCriticalPath, IdleGapsLeaveQbUnchanged)
{
    // Delaying the whole schedule by one offset, small or large enough to
    // leave steps at which nothing runs, changes neither S nor S^b, so Q^b
    // and the augmented length stay put.
    const sonic_model model;
    rng random(0xC417);
    for (int trial = 0; trial < 20; ++trial) {
        tgff_options opts;
        opts.n_ops = 6 + static_cast<std::size_t>(trial);
        const sequencing_graph g = generate_tgff(opts, random);
        const dpalloc_result r = dpalloc(g, model, min_latency(g, model));
        const bound_critical_path base = compute_bound_critical_path(g, r.path);
        for (const int offset : {1, 1000000}) {
            datapath shifted = r.path;
            for (int& s : shifted.start) {
                s += offset;
            }
            const bound_critical_path qb =
                compute_bound_critical_path(g, shifted);
            EXPECT_EQ(qb.ops, base.ops) << "trial " << trial;
            EXPECT_EQ(qb.augmented_length, base.augmented_length)
                << "trial " << trial;
        }
    }
}

// -------------------------------------------------------------- dpalloc --

TEST(Dpalloc, Fig1SlackBuysAreaWithSingleMultiplier)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    ASSERT_EQ(min_latency(g, model), 5);

    const dpalloc_result tight = dpalloc(g, model, 5);
    const dpalloc_result slack = dpalloc(g, model, 8);
    require_valid(g, model, tight.path, 5);
    require_valid(g, model, slack.path, 8);

    // Tight: both multipliers in parallel (144 + 32) plus the adder (12).
    EXPECT_DOUBLE_EQ(tight.path.total_area, 188.0);
    EXPECT_EQ(tight.path.instances.size(), 3u);

    // Slack: the 8x4 multiplication executes on the 12x12 multiplier at
    // the larger resource's 3-cycle latency -- the paper's Fig. 1 effect.
    EXPECT_DOUBLE_EQ(slack.path.total_area, 156.0);
    EXPECT_EQ(slack.path.instances.size(), 2u);
}

TEST(Dpalloc, Fig1SelectedWordlengths)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const dpalloc_result slack = dpalloc(g, model, 8);
    // m2's selected wordlength is the resource's, not its own.
    EXPECT_EQ(slack.path.selected_shape(op_id(1)),
              op_shape::multiplier(12, 12));
    EXPECT_EQ(slack.path.bound_latency(op_id(1)), 3);
}

TEST(Dpalloc, InfeasibleLambdaThrows)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    EXPECT_THROW(static_cast<void>(dpalloc(g, model, 4)), infeasible_error);
    EXPECT_THROW(static_cast<void>(dpalloc(g, model, 0)), infeasible_error);
}

TEST(Dpalloc, NegativeLambdaThrows)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    EXPECT_THROW(static_cast<void>(dpalloc(g, model, -1)),
                 precondition_error);
}

TEST(Dpalloc, EmptyGraphIsTrivial)
{
    sequencing_graph g;
    const sonic_model model;
    const dpalloc_result r = dpalloc(g, model, 0);
    EXPECT_EQ(r.path.total_area, 0.0);
    EXPECT_EQ(r.path.latency, 0);
    EXPECT_TRUE(r.path.instances.empty());
}

TEST(Dpalloc, SingleOpBindsToOwnShape)
{
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(16, 12));
    const sonic_model model;
    const dpalloc_result r = dpalloc(g, model, 4); // ceil(28/8) = 4
    require_valid(g, model, r.path, 4);
    ASSERT_EQ(r.path.instances.size(), 1u);
    EXPECT_EQ(r.path.instances[0].shape, op_shape::multiplier(16, 12));
    EXPECT_DOUBLE_EQ(r.path.total_area, 192.0);
}

TEST(Dpalloc, IdenticalParallelOpsEscalateCapacity)
{
    // Two identical independent mults at lambda = lambda_min: wordlength
    // refinement can never split them (single latency tier), so the driver
    // must escalate capacity to find the 2-instance solution.
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(8, 8));
    g.add_operation(op_shape::multiplier(8, 8));
    const sonic_model model;
    ASSERT_EQ(min_latency(g, model), 2);
    const dpalloc_result r = dpalloc(g, model, 2);
    require_valid(g, model, r.path, 2);
    EXPECT_EQ(r.path.instances.size(), 2u);
    EXPECT_GE(r.stats.escalations, 1u);
}

TEST(Dpalloc, SlackLetsIdenticalOpsShare)
{
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(8, 8));
    g.add_operation(op_shape::multiplier(8, 8));
    const sonic_model model;
    const dpalloc_result r = dpalloc(g, model, 4);
    require_valid(g, model, r.path, 4);
    EXPECT_EQ(r.path.instances.size(), 1u);
    EXPECT_EQ(r.stats.escalations, 0u);
    EXPECT_DOUBLE_EQ(r.path.total_area, 64.0);
}

TEST(Dpalloc, MoreSlackNeverIncreasesAreaOnFig1)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    double prev = 1e18;
    for (int lambda = 5; lambda <= 12; ++lambda) {
        const dpalloc_result r = dpalloc(g, model, lambda);
        require_valid(g, model, r.path, lambda);
        EXPECT_LE(r.path.total_area, prev + 1e-9);
        prev = r.path.total_area;
    }
}

TEST(Dpalloc, StatsCountRefinements)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const dpalloc_result tight = dpalloc(g, model, 5);
    EXPECT_GE(tight.stats.iterations, 2u); // at least one refinement round
    EXPECT_GE(tight.stats.refinements, 1u);
    EXPECT_GE(tight.stats.edges_deleted, 1u);

    const dpalloc_result slack = dpalloc(g, model, 8);
    EXPECT_EQ(slack.stats.iterations, 1u); // feasible immediately
    EXPECT_EQ(slack.stats.refinements, 0u);
}

TEST(Dpalloc, DeterministicAcrossRuns)
{
    rng random(2024);
    tgff_options opts;
    opts.n_ops = 14;
    const sequencing_graph g = generate_tgff(opts, random);
    const sonic_model model;
    const int lambda = min_latency(g, model) + 2;
    const dpalloc_result a = dpalloc(g, model, lambda);
    const dpalloc_result b = dpalloc(g, model, lambda);
    EXPECT_EQ(a.path.start, b.path.start);
    EXPECT_DOUBLE_EQ(a.path.total_area, b.path.total_area);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
}

TEST(Dpalloc, UniformModelCollapsesToClassicBehaviour)
{
    // With uniform latencies there is nothing to refine: the first
    // schedule is final whenever lambda >= critical path.
    const sequencing_graph g = fig1_graph();
    const uniform_latency_model model(1);
    const int lambda = min_latency(g, model) + 3;
    const dpalloc_result r = dpalloc(g, model, lambda);
    require_valid(g, model, r.path, lambda);
    EXPECT_EQ(r.stats.refinements, 0u);
}

TEST(Dpalloc, AlwaysFeasibleAndValidOnRandomGraphs)
{
    rng random(555);
    for (int trial = 0; trial < 25; ++trial) {
        tgff_options opts;
        opts.n_ops = 2 + static_cast<std::size_t>(trial) % 14;
        const sequencing_graph g = generate_tgff(opts, random);
        const sonic_model model;
        const int lmin = min_latency(g, model);
        for (const int extra : {0, 1, 3}) {
            const dpalloc_result r = dpalloc(g, model, lmin + extra);
            require_valid(g, model, r.path, lmin + extra);
        }
    }
}

TEST(Dpalloc, AblationArmsStayValid)
{
    rng random(556);
    tgff_options opts;
    opts.n_ops = 10;
    const sequencing_graph g = generate_tgff(opts, random);
    const sonic_model model;
    const int lambda = min_latency(g, model) + 2;

    for (const bool growth : {true, false}) {
        for (const bool classic : {true, false}) {
            dpalloc_options o;
            o.enable_growth = growth;
            o.classic_constraint = classic;
            const dpalloc_result r = dpalloc(g, model, lambda, o);
            require_valid(g, model, r.path, lambda);
        }
    }
}

TEST(Dpalloc, DescribeRendersEveryInstance)
{
    const sequencing_graph g = fig1_graph();
    const sonic_model model;
    const dpalloc_result r = dpalloc(g, model, 8);
    const std::string text = describe(r.path, g);
    EXPECT_NE(text.find("mul12x12"), std::string::npos);
    EXPECT_NE(text.find("add12"), std::string::npos);
    EXPECT_NE(text.find("m2"), std::string::npos);
}

} // namespace
} // namespace mwl
