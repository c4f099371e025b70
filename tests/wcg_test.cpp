// Unit tests for src/wcg: resource-type extraction (join closure), the
// wordlength compatibility graph (H edges, latency bounds, refinement) and
// the chain/clique utilities over the schedule orientation C.
//
// Includes a reconstruction of the paper's Fig. 2 scenario and the §2.2
// motivating example (deleting {o1, '20x18 mult'} forces two multiplier
// types into any cover).

#include "model/hardware_model.hpp"
#include "oracle/oracle.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "wcg/chains.hpp"
#include "wcg/resource_set.hpp"
#include "wcg/wcg.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

namespace mwl {
namespace {

/// Fig. 2-like graph: two multiplications of different shapes feeding an
/// addition.
sequencing_graph fig2_graph()
{
    sequencing_graph g;
    const op_id o1 = g.add_operation(op_shape::multiplier(12, 8), "o1");
    const op_id o2 = g.add_operation(op_shape::multiplier(20, 18), "o2");
    const op_id o3 = g.add_operation(op_shape::adder(12), "o3");
    g.add_dependency(o1, o3);
    g.add_dependency(o2, o3);
    return g;
}

// ------------------------------------------------- resource extraction --

TEST(ResourceSet, EmptyInputYieldsEmptySet)
{
    EXPECT_TRUE(extract_resource_types(std::vector<op_shape>{}).empty());
}

TEST(ResourceSet, SingleShapeYieldsItself)
{
    const std::vector<op_shape> shapes{op_shape::multiplier(6, 4)};
    const auto r = extract_resource_types(shapes);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0], op_shape::multiplier(6, 4));
}

TEST(ResourceSet, AddersCloseToDistinctWidths)
{
    const std::vector<op_shape> shapes{op_shape::adder(4), op_shape::adder(8),
                                       op_shape::adder(4)};
    const auto r = extract_resource_types(shapes);
    ASSERT_EQ(r.size(), 2u); // join(add4, add8) = add8, already present
    EXPECT_EQ(r[0], op_shape::adder(4));
    EXPECT_EQ(r[1], op_shape::adder(8));
}

TEST(ResourceSet, MultiplierJoinAppears)
{
    const std::vector<op_shape> shapes{op_shape::multiplier(20, 4),
                                       op_shape::multiplier(6, 18)};
    const auto r = extract_resource_types(shapes);
    // closure = {(20,4), (18,6), (20,6)}
    ASSERT_EQ(r.size(), 3u);
    EXPECT_TRUE(std::find(r.begin(), r.end(), op_shape::multiplier(20, 6)) !=
                r.end());
}

TEST(ResourceSet, ClosureIsClosedUnderJoin)
{
    const std::vector<op_shape> shapes{
        op_shape::multiplier(10, 2), op_shape::multiplier(3, 3),
        op_shape::multiplier(7, 6), op_shape::adder(5)};
    const auto r = extract_resource_types(shapes);
    for (const op_shape& x : r) {
        for (const op_shape& y : r) {
            if (x.kind() != y.kind()) {
                continue;
            }
            const op_shape j = op_shape::join(x, y);
            EXPECT_TRUE(std::find(r.begin(), r.end(), j) != r.end())
                << "missing join of " << x << " and " << y;
        }
    }
}

TEST(ResourceSet, EveryMemberCoversSomeInputShape)
{
    // Every closure member is a join of input shapes, hence covers at
    // least one of them.
    const std::vector<op_shape> shapes{op_shape::multiplier(9, 3),
                                       op_shape::multiplier(4, 4),
                                       op_shape::multiplier(12, 2)};
    const auto r = extract_resource_types(shapes);
    for (const op_shape& res : r) {
        bool covers_any = false;
        for (const op_shape& s : shapes) {
            covers_any = covers_any || res.covers(s);
        }
        EXPECT_TRUE(covers_any) << res;
    }
}

TEST(ResourceSet, DeterministicOrder)
{
    const std::vector<op_shape> a{op_shape::adder(8), op_shape::adder(4)};
    const std::vector<op_shape> b{op_shape::adder(4), op_shape::adder(8)};
    EXPECT_EQ(extract_resource_types(a), extract_resource_types(b));
}

TEST(ResourceSet, ClosureMatchesJoinFixpoint)
{
    // The one-pass closure against the pairwise-join fixed point on random
    // shape sets: narrow widths make many shapes share widths (many
    // joins), wide ones make most joins new shapes.
    const std::uint64_t seed = testing::env_seed("MWL_CLOSURE_SEED", 0xC105E);
    MWL_TRACE_SEED("MWL_CLOSURE_SEED", seed);
    rng random(seed);
    for (int set = 0; set < 20000; ++set) {
        const int widest = set % 2 == 0 ? 8 : op_shape::max_width;
        std::vector<op_shape> shapes(random.uniform(0, 16));
        for (op_shape& s : shapes) {
            const int a = random.uniform_int(1, widest);
            s = random.chance(0.3)
                    ? op_shape::adder(a)
                    : op_shape::multiplier(a, random.uniform_int(1, widest));
        }
        ASSERT_EQ(extract_resource_types(shapes),
                  oracle::resource_closure_fixpoint(shapes))
            << "set " << set;
    }
}

// ------------------------------------------------------------- H edges --

TEST(Wcg, Fig2ResourceVerticesMatchPaperStructure)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    // join(mul12x8, mul20x18) = mul20x18 itself, so three resource types.
    ASSERT_EQ(wcg.resource_count(), 3u);
    std::set<std::string> names;
    for (const res_id r : wcg.all_resources()) {
        names.insert(wcg.resource(r).to_string());
    }
    EXPECT_TRUE(names.contains("add12"));
    EXPECT_TRUE(names.contains("mul12x8"));
    EXPECT_TRUE(names.contains("mul20x18"));
}

TEST(Wcg, Fig2InitialHEdges)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    // o1 can run on its own multiplier or on the 20x18 one; o2 only on
    // 20x18; o3 only on the adder.
    EXPECT_EQ(wcg.resources_for(op_id(0)).size(), 2u);
    EXPECT_EQ(wcg.resources_for(op_id(1)).size(), 1u);
    EXPECT_EQ(wcg.resources_for(op_id(2)).size(), 1u);
    EXPECT_EQ(wcg.edge_count(), 4u);
}

TEST(Wcg, LatencyBoundsFromHEdges)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    // o1: own mul12x8 = ceil(20/8) = 3 cycles; in mul20x18 = ceil(38/8) = 5.
    EXPECT_EQ(wcg.latency_lower_bound(op_id(0)), 3);
    EXPECT_EQ(wcg.latency_upper_bound(op_id(0)), 5);
    // o2 has a single resource.
    EXPECT_EQ(wcg.latency_lower_bound(op_id(1)), 5);
    EXPECT_EQ(wcg.latency_upper_bound(op_id(1)), 5);
    // adders are always 2.
    EXPECT_EQ(wcg.latency_upper_bound(op_id(2)), 2);
}

TEST(Wcg, UpperBoundsVectorMatchesPerOpQueries)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> bounds = wcg.latency_upper_bounds();
    ASSERT_EQ(bounds.size(), g.size());
    for (const op_id o : g.all_ops()) {
        EXPECT_EQ(bounds[o.value()], wcg.latency_upper_bound(o));
    }
}

TEST(Wcg, RefinableOnlyWithStrictlyFasterAlternative)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    EXPECT_TRUE(wcg.refinable(op_id(0)));  // 3 < 5
    EXPECT_FALSE(wcg.refinable(op_id(1))); // single latency tier
    EXPECT_FALSE(wcg.refinable(op_id(2))); // adders all equal
}

TEST(Wcg, RefineDeletesExactlyTheTopLatencyTier)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    const int deleted = wcg.refine_op(op_id(0));
    EXPECT_EQ(deleted, 1); // only {o1, mul20x18}
    EXPECT_EQ(wcg.resources_for(op_id(0)).size(), 1u);
    EXPECT_EQ(wcg.latency_upper_bound(op_id(0)), 3);
    EXPECT_FALSE(wcg.refinable(op_id(0)));
}

TEST(Wcg, RefineUnrefinableThrows)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    EXPECT_THROW(wcg.refine_op(op_id(1)), precondition_error);
}

TEST(Wcg, DeleteEdgeMaintainsBothDirections)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    // find the 20x18 resource id
    res_id big = res_id::invalid();
    for (const res_id r : wcg.all_resources()) {
        if (wcg.resource(r) == op_shape::multiplier(20, 18)) {
            big = r;
        }
    }
    ASSERT_TRUE(big.is_valid());
    EXPECT_TRUE(wcg.compatible(op_id(0), big));
    wcg.delete_edge(op_id(0), big);
    EXPECT_FALSE(wcg.compatible(op_id(0), big));
    const auto ops = wcg.ops_for(big);
    EXPECT_TRUE(std::find(ops.begin(), ops.end(), op_id(0)) == ops.end());
    EXPECT_EQ(wcg.edge_count(), 3u);
}

TEST(Wcg, DeletingLastEdgeOfOpThrows)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    const res_id only = wcg.resources_for(op_id(1)).front();
    EXPECT_THROW(wcg.delete_edge(op_id(1), only), precondition_error);
}

TEST(Wcg, DeletingAbsentEdgeThrows)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    // o3 (adder) is not compatible with any multiplier resource.
    res_id mul_res = res_id::invalid();
    for (const res_id r : wcg.all_resources()) {
        if (wcg.resource(r).kind() == op_kind::mul) {
            mul_res = r;
        }
    }
    ASSERT_TRUE(mul_res.is_valid());
    EXPECT_THROW(wcg.delete_edge(op_id(2), mul_res), precondition_error);
}

TEST(Wcg, MetricCountsFollowDeletions)
{
    // H: o1 -> {mul12x8, mul20x18}, o2 -> {mul20x18}, o3 -> {add12}.
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    const auto as_vector = [](std::span<const std::uint32_t> s) {
        return std::vector<std::uint32_t>(s.begin(), s.end());
    };
    EXPECT_EQ(as_vector(wcg.sharing_pools()),
              (std::vector<std::uint32_t>{1 + 2, 2, 1}));
    EXPECT_EQ(as_vector(wcg.slowest_edge_counts()),
              (std::vector<std::uint32_t>{1, 1, 1}));
    // Refining o1 drops {o1, mul20x18}: o1 keeps mul12x8 alone, and
    // mul20x18 now serves o2 only.
    wcg.refine_op(op_id(0));
    EXPECT_EQ(as_vector(wcg.sharing_pools()),
              (std::vector<std::uint32_t>{1, 1, 1}));
    EXPECT_EQ(as_vector(wcg.slowest_edge_counts()),
              (std::vector<std::uint32_t>{1, 1, 1}));
}

TEST(Wcg, SerialIsFreshForEveryObjectAndCopy)
{
    // Caches of H-derived state key on the serial, so no two graph objects
    // -- a copy included -- may share one.
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph a(g, model);
    const wordlength_compatibility_graph b(g, model);
    EXPECT_NE(a.serial(), 0u);
    EXPECT_NE(a.serial(), b.serial());
    const wordlength_compatibility_graph copy = a;
    EXPECT_NE(copy.serial(), a.serial());
    EXPECT_EQ(copy.edge_count(), a.edge_count());
    wordlength_compatibility_graph assigned(g, model);
    const std::uint64_t before = assigned.serial();
    assigned = a;
    EXPECT_NE(assigned.serial(), before);
    EXPECT_NE(assigned.serial(), a.serial());
}

TEST(Wcg, CarriesTheGraphsTopologicalOrder)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<op_id> order(wcg.topological_order().begin(),
                                   wcg.topological_order().end());
    EXPECT_EQ(order, g.topological_order());
}

TEST(Wcg, ResourceAreaAndLatencyAreCached)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    for (const res_id r : wcg.all_resources()) {
        EXPECT_EQ(wcg.latency(r), model.latency(wcg.resource(r)));
        EXPECT_EQ(wcg.area(r), model.area(wcg.resource(r)));
    }
}

TEST(Wcg, OpsForListsCompatibleOperationsOnly)
{
    const sequencing_graph g = fig2_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    for (const res_id r : wcg.all_resources()) {
        for (const op_id o : wcg.ops_for(r)) {
            EXPECT_TRUE(wcg.resource(r).covers(g.shape(o)));
        }
    }
}

// -------------------------------------------------------------- chains --

TEST(Chains, EmptyInput)
{
    EXPECT_TRUE(longest_chain({}).empty());
    EXPECT_TRUE(is_chain({}));
}

TEST(Chains, SingletonIsAChain)
{
    const std::vector<timed_op> items{{op_id(0), 3, 2}};
    EXPECT_TRUE(is_chain(items));
    EXPECT_EQ(longest_chain(items).size(), 1u);
}

TEST(Chains, PrecedesUsesFinishTime)
{
    const timed_op a{op_id(0), 0, 2};
    const timed_op b{op_id(1), 2, 2};
    const timed_op c{op_id(2), 1, 2};
    EXPECT_TRUE(precedes(a, b));
    EXPECT_FALSE(precedes(b, a));
    EXPECT_FALSE(precedes(a, c)); // overlap
}

TEST(Chains, LongestChainOfDisjointOpsTakesAll)
{
    const std::vector<timed_op> items{
        {op_id(0), 0, 2}, {op_id(1), 2, 2}, {op_id(2), 4, 2}};
    const auto chain = longest_chain(items);
    EXPECT_EQ(chain.size(), 3u);
}

TEST(Chains, LongestChainSkipsOverlaps)
{
    const std::vector<timed_op> items{
        {op_id(0), 0, 4}, {op_id(1), 2, 4}, {op_id(2), 4, 2}};
    // 0 overlaps 1; 0 then 2 works; 1 overlaps 2... wait 1 finishes at 6,
    // 2 starts at 4: overlap. Best chain = {0, 2}.
    const auto chain = longest_chain(items);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0].op, op_id(0));
    EXPECT_EQ(chain[1].op, op_id(2));
}

TEST(Chains, AllOverlappingYieldsSingleton)
{
    const std::vector<timed_op> items{
        {op_id(0), 0, 5}, {op_id(1), 1, 5}, {op_id(2), 2, 5}};
    EXPECT_EQ(longest_chain(items).size(), 1u);
    EXPECT_FALSE(is_chain(items));
}

TEST(Chains, ChainOutputIsInTimeOrder)
{
    const std::vector<timed_op> items{
        {op_id(2), 6, 1}, {op_id(0), 0, 2}, {op_id(1), 3, 3}};
    const auto chain = longest_chain(items);
    ASSERT_EQ(chain.size(), 3u);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        EXPECT_TRUE(precedes(chain[i], chain[i + 1]));
    }
}

TEST(Chains, MixedLatenciesRespectIntervalSemantics)
{
    // back-to-back at exact finish==start boundaries is allowed
    const std::vector<timed_op> items{
        {op_id(0), 0, 3}, {op_id(1), 3, 1}, {op_id(2), 4, 5}};
    EXPECT_TRUE(is_chain(items));
    EXPECT_EQ(longest_chain(items).size(), 3u);
}

TEST(Chains, LongestChainIsMaximalForIntervalOrders)
{
    // Property check on a fixed pattern: DP result equals brute force for
    // a handful of structured inputs.
    const std::vector<timed_op> items{
        {op_id(0), 0, 2}, {op_id(1), 1, 2}, {op_id(2), 2, 2},
        {op_id(3), 4, 1}, {op_id(4), 4, 3}, {op_id(5), 7, 1}};
    const auto chain = longest_chain(items);
    // best: 0 -> 2 -> 3 -> 5  (4 elements)
    EXPECT_EQ(chain.size(), 4u);
}

} // namespace
} // namespace mwl
