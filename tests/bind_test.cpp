// Unit tests for src/bind: BindSelect covering behaviour, Eqn. 4
// feasibility of emitted cliques, the growth pass, the ratio rule's
// wordlength selection and binding/schedule consistency.

#include "bind/bind_select.hpp"
#include "model/hardware_model.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tgff/generator.hpp"
#include "wcg/wcg.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mwl {
namespace {

sequencing_graph two_mults_graph()
{
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(12, 8), "o1");
    g.add_operation(op_shape::multiplier(20, 18), "o2");
    return g;
}

/// Binding invariants that hold for every valid bind_select output.
void expect_binding_valid(const wordlength_compatibility_graph& wcg,
                          const binding& b, const std::vector<int>& start,
                          const std::vector<int>& lat)
{
    const sequencing_graph& g = wcg.graph();
    std::vector<int> covered(g.size(), 0);
    double area = 0.0;
    for (const binding_clique& k : b.cliques) {
        area += wcg.area(k.resource);
        for (const op_id o : k.ops) {
            ++covered[o.value()];
            EXPECT_TRUE(wcg.compatible(o, k.resource)); // Eqn. 4
        }
        // pairwise chain (no time overlap at scheduled latencies)
        for (std::size_t i = 0; i < k.ops.size(); ++i) {
            for (std::size_t j = i + 1; j < k.ops.size(); ++j) {
                const op_id a = k.ops[i];
                const op_id c = k.ops[j];
                const bool disjoint =
                    start[a.value()] + lat[a.value()] <= start[c.value()] ||
                    start[c.value()] + lat[c.value()] <= start[a.value()];
                EXPECT_TRUE(disjoint);
            }
        }
    }
    for (const int count : covered) {
        EXPECT_EQ(count, 1);
    }
    EXPECT_DOUBLE_EQ(area, b.total_area);
}

TEST(BindSelect, SerializedMultsShareTheBigMultiplier)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    // Hand schedule: o1 at 0..5, o2 at 5..10 (upper bounds 5 and 5).
    const std::vector<int> start{0, 5};
    const std::vector<int> lat{5, 5};
    const binding b = bind_select(wcg, start, lat);
    expect_binding_valid(wcg, b, start, lat);
    ASSERT_EQ(b.cliques.size(), 1u);
    EXPECT_EQ(wcg.resource(b.cliques[0].resource),
              op_shape::multiplier(20, 18));
    EXPECT_DOUBLE_EQ(b.total_area, 360.0);
}

TEST(BindSelect, OverlappingMultsNeedTwoResources)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, 0};
    const std::vector<int> lat{5, 5};
    const binding b = bind_select(wcg, start, lat);
    expect_binding_valid(wcg, b, start, lat);
    ASSERT_EQ(b.cliques.size(), 2u);
    // Wordlength selection: o1's own resource is the cheap one.
    double area = 0.0;
    for (const auto& k : b.cliques) {
        area += wcg.area(k.resource);
    }
    EXPECT_DOUBLE_EQ(area, 360.0 + 96.0); // mul20x18 + mul12x8
}

TEST(BindSelect, CheapestReassignmentPicksOwnShapes)
{
    // A lone small op must end on its own (cheapest) resource even though
    // the big resource also covers it.
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(12, 8));
    g.add_operation(op_shape::multiplier(20, 18));
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, 10};
    const std::vector<int> lat{3, 5}; // native latencies, disjoint anyway
    const binding b = bind_select(wcg, start, lat);
    // Chain {o1, o2} exists (disjoint in time) and one resource covers
    // both -> single clique on the 20x18.
    ASSERT_EQ(b.cliques.size(), 1u);
    EXPECT_EQ(wcg.resource(b.cliques[0].resource),
              op_shape::multiplier(20, 18));
}

TEST(BindSelect, RatioRuleAlreadyPicksTheCheapestResource)
{
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(12, 8));
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0};
    const std::vector<int> lat{5};
    const binding b = bind_select(wcg, start, lat);
    ASSERT_EQ(b.cliques.size(), 1u);
    // Ratio rule: |p|/cost favours the small resource already (1/96 >
    // 1/360), so with no cheapest-resource pass it picks mul12x8.
    EXPECT_EQ(wcg.resource(b.cliques[0].resource),
              op_shape::multiplier(12, 8));
}

TEST(BindSelect, MixedKindsNeverShare)
{
    sequencing_graph g;
    g.add_operation(op_shape::adder(16));
    g.add_operation(op_shape::multiplier(8, 8));
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, 2};
    const std::vector<int> lat{2, 2};
    const binding b = bind_select(wcg, start, lat);
    expect_binding_valid(wcg, b, start, lat);
    EXPECT_EQ(b.cliques.size(), 2u);
}

TEST(BindSelect, LongSerialChainCollapsesToOneAdder)
{
    sequencing_graph g;
    op_id prev = g.add_operation(op_shape::adder(10));
    for (int i = 0; i < 5; ++i) {
        const op_id next = g.add_operation(op_shape::adder(4 + 2 * i));
        g.add_dependency(prev, next);
        prev = next;
    }
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    std::vector<int> start;
    std::vector<int> lat;
    for (std::size_t i = 0; i < g.size(); ++i) {
        start.push_back(static_cast<int>(2 * i));
        lat.push_back(2);
    }
    const binding b = bind_select(wcg, start, lat);
    expect_binding_valid(wcg, b, start, lat);
    ASSERT_EQ(b.cliques.size(), 1u);
    // Shared adder must cover the widest member (add12).
    EXPECT_EQ(wcg.resource(b.cliques[0].resource), op_shape::adder(12));
    EXPECT_EQ(b.cliques[0].ops.size(), 6u);
}

TEST(BindSelect, GrowthPassMergesCompatibleCliques)
{
    // Construct a schedule where greedy cover without growth leaves
    // mergeable cliques: three pairwise-chainable mults of equal shape
    // plus one odd-shaped op interleaved.
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(8, 8));  // 0
    g.add_operation(op_shape::multiplier(8, 8));  // 1
    g.add_operation(op_shape::multiplier(8, 8));  // 2
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, 2, 4};
    const std::vector<int> lat{2, 2, 2};
    bind_options no_growth;
    no_growth.enable_growth = false;
    const binding with_growth = bind_select(wcg, start, lat);
    const binding without = bind_select(wcg, start, lat, no_growth);
    expect_binding_valid(wcg, with_growth, start, lat);
    expect_binding_valid(wcg, without, start, lat);
    // All three ops are one chain on one mul8x8 either way here, but the
    // growth version must never be worse.
    EXPECT_LE(with_growth.total_area, without.total_area);
    EXPECT_EQ(with_growth.cliques.size(), 1u);
}

TEST(BindSelect, GrowthNeverIncreasesArea)
{
    rng random(77);
    for (int trial = 0; trial < 20; ++trial) {
        tgff_options opts;
        opts.n_ops = 10;
        const sequencing_graph g = generate_tgff(opts, random);
        const sonic_model model;
        const wordlength_compatibility_graph wcg(g, model);
        const incomplete_schedule_result sched = schedule_incomplete(wcg);
        const std::vector<int> upper = wcg.latency_upper_bounds();
        bind_options no_growth;
        no_growth.enable_growth = false;
        const binding grown = bind_select(wcg, sched.start, upper);
        const binding plain = bind_select(wcg, sched.start, upper, no_growth);
        expect_binding_valid(wcg, grown, sched.start, upper);
        expect_binding_valid(wcg, plain, sched.start, upper);
        EXPECT_LE(grown.total_area, plain.total_area + 1e-9)
            << "trial " << trial;
    }
}

TEST(BindSelect, UnscheduledOpThrows)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, -1};
    const std::vector<int> lat{5, 5};
    EXPECT_THROW(static_cast<void>(bind_select(wcg, start, lat)),
                 precondition_error);
}

TEST(BindSelect, SizeMismatchThrows)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0};
    const std::vector<int> lat{5, 5};
    EXPECT_THROW(static_cast<void>(bind_select(wcg, start, lat)),
                 precondition_error);
}

TEST(BindSelect, EmptyGraphYieldsEmptyBinding)
{
    sequencing_graph g;
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const binding b = bind_select(wcg, {}, {});
    EXPECT_TRUE(b.cliques.empty());
    EXPECT_DOUBLE_EQ(b.total_area, 0.0);
}

TEST(BindSelect, RandomSchedulesAlwaysProduceValidBindings)
{
    rng random(4242);
    for (int trial = 0; trial < 30; ++trial) {
        tgff_options opts;
        opts.n_ops = 3 + static_cast<std::size_t>(trial) % 12;
        const sequencing_graph g = generate_tgff(opts, random);
        const sonic_model model;
        const wordlength_compatibility_graph wcg(g, model);
        const incomplete_schedule_result sched = schedule_incomplete(wcg);
        const std::vector<int> upper = wcg.latency_upper_bounds();
        const binding b = bind_select(wcg, sched.start, upper);
        expect_binding_valid(wcg, b, sched.start, upper);
    }
}

TEST(FinalizeBinding, RejectsDoubleBinding)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    binding b;
    binding_clique k1;
    k1.resource = wcg.resources_for(op_id(0)).back();
    k1.ops = {op_id(0), op_id(0)};
    b.cliques.push_back(k1);
    EXPECT_THROW(finalize_binding(b, g.size(), wcg), precondition_error);
}

TEST(FinalizeBinding, RejectsUncoveredOp)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    binding b;
    binding_clique k1;
    k1.resource = wcg.resources_for(op_id(0)).front();
    k1.ops = {op_id(0)};
    b.cliques.push_back(k1);
    EXPECT_THROW(finalize_binding(b, g.size(), wcg), precondition_error);
}

} // namespace
} // namespace mwl
