// Unit tests for src/dfg: sequencing graph construction, cycle rejection,
// topological ordering, ASAP/ALAP analysis and DOT export.

#include "dfg/analysis.hpp"
#include "dfg/dot.hpp"
#include "dfg/sequencing_graph.hpp"
#include "model/hardware_model.hpp"
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mwl {
namespace {

sequencing_graph diamond()
{
    // a -> b, a -> c, b -> d, c -> d
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(8), "a");
    const op_id b = g.add_operation(op_shape::adder(8), "b");
    const op_id c = g.add_operation(op_shape::multiplier(8, 8), "c");
    const op_id d = g.add_operation(op_shape::adder(8), "d");
    g.add_dependency(a, b);
    g.add_dependency(a, c);
    g.add_dependency(b, d);
    g.add_dependency(c, d);
    return g;
}

// -------------------------------------------------------- construction --

TEST(SequencingGraph, StartsEmpty)
{
    sequencing_graph g;
    EXPECT_TRUE(g.empty());
    EXPECT_EQ(g.size(), 0u);
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(SequencingGraph, AddOperationReturnsDenseIds)
{
    sequencing_graph g;
    EXPECT_EQ(g.add_operation(op_shape::adder(4)).value(), 0u);
    EXPECT_EQ(g.add_operation(op_shape::adder(4)).value(), 1u);
    EXPECT_EQ(g.add_operation(op_shape::multiplier(4, 4)).value(), 2u);
    EXPECT_EQ(g.size(), 3u);
}

TEST(SequencingGraph, StoresShapeAndName)
{
    sequencing_graph g;
    const op_id id = g.add_operation(op_shape::multiplier(10, 6), "x1");
    EXPECT_EQ(g.op(id).name, "x1");
    EXPECT_EQ(g.shape(id), op_shape::multiplier(10, 6));
}

TEST(SequencingGraph, DependencyPopulatesAdjacency)
{
    const sequencing_graph g = diamond();
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.successors(op_id(0)).size(), 2u);
    EXPECT_EQ(g.predecessors(op_id(3)).size(), 2u);
    EXPECT_EQ(g.predecessors(op_id(0)).size(), 0u);
}

TEST(SequencingGraph, DuplicateEdgesAreIdempotent)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(4));
    const op_id b = g.add_operation(op_shape::adder(4));
    g.add_dependency(a, b);
    g.add_dependency(a, b);
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(SequencingGraph, SelfLoopThrows)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(4));
    EXPECT_THROW(g.add_dependency(a, a), precondition_error);
}

TEST(SequencingGraph, CycleCreationThrows)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(4));
    const op_id b = g.add_operation(op_shape::adder(4));
    const op_id c = g.add_operation(op_shape::adder(4));
    g.add_dependency(a, b);
    g.add_dependency(b, c);
    EXPECT_THROW(g.add_dependency(c, a), precondition_error);
    EXPECT_EQ(g.edge_count(), 2u); // rejected edge not inserted
}

TEST(SequencingGraph, AscendingEdgeAfterADescendingOneIsCycleChecked)
{
    // Ascending edges skip the cycle search only while no descending edge
    // exists; after c -> a, the ascending a -> c closes a cycle.
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(4));
    g.add_operation(op_shape::adder(4));
    const op_id c = g.add_operation(op_shape::adder(4));
    g.add_dependency(c, a);
    try {
        g.add_dependency(a, c);
        ADD_FAILURE() << "a -> c after c -> a was accepted";
    } catch (const precondition_error& e) {
        EXPECT_STREQ(e.what(), "dependency 0 -> 2 would create a cycle");
    }
    EXPECT_EQ(g.edge_count(), 1u);

    // The same through a path: a -> b, c -> a, then b -> c.
    sequencing_graph h;
    const op_id x = h.add_operation(op_shape::adder(4));
    const op_id y = h.add_operation(op_shape::adder(4));
    const op_id z = h.add_operation(op_shape::adder(4));
    h.add_dependency(x, y);
    h.add_dependency(z, x);
    try {
        h.add_dependency(y, z);
        ADD_FAILURE() << "y -> z closing x -> y -> z -> x was accepted";
    } catch (const precondition_error& e) {
        EXPECT_STREQ(e.what(), "dependency 1 -> 2 would create a cycle");
    }
    EXPECT_EQ(h.edge_count(), 2u);
    EXPECT_TRUE(h.reaches(z, y));
}

TEST(SequencingGraph, DuplicateAfterADescendingEdgeIsIdempotent)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(4));
    const op_id b = g.add_operation(op_shape::adder(4));
    const op_id c = g.add_operation(op_shape::adder(4));
    g.add_dependency(a, b);
    g.add_dependency(c, a);
    g.add_dependency(c, a);
    g.add_dependency(a, b);
    EXPECT_EQ(g.edge_count(), 2u);
    EXPECT_EQ(g.successors(c).size(), 1u);
    EXPECT_EQ(g.predecessors(b).size(), 1u);
}

TEST(SequencingGraph, InvalidIdsThrow)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(4));
    EXPECT_THROW(static_cast<void>(g.op(op_id(5))), precondition_error);
    EXPECT_THROW(g.add_dependency(a, op_id(9)), precondition_error);
    EXPECT_THROW(g.add_dependency(op_id::invalid(), a), precondition_error);
}

TEST(SequencingGraph, ReachesFollowsTransitivePaths)
{
    const sequencing_graph g = diamond();
    EXPECT_TRUE(g.reaches(op_id(0), op_id(3)));
    EXPECT_TRUE(g.reaches(op_id(0), op_id(0)));
    EXPECT_FALSE(g.reaches(op_id(3), op_id(0)));
    EXPECT_FALSE(g.reaches(op_id(1), op_id(2)));
}

TEST(SequencingGraph, TopologicalOrderRespectsEdges)
{
    const sequencing_graph g = diamond();
    const std::vector<op_id> order = g.topological_order();
    ASSERT_EQ(order.size(), g.size());
    std::vector<std::size_t> pos(g.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        pos[order[i].value()] = i;
    }
    for (const op_id o : g.all_ops()) {
        for (const op_id s : g.successors(o)) {
            EXPECT_LT(pos[o.value()], pos[s.value()]);
        }
    }
}

TEST(SequencingGraph, TopologicalOrderIsDeterministicSmallestFirst)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(4));
    const op_id b = g.add_operation(op_shape::adder(4));
    const op_id c = g.add_operation(op_shape::adder(4));
    static_cast<void>(b);
    g.add_dependency(a, c);
    const std::vector<op_id> order = g.topological_order();
    EXPECT_EQ(order[0].value(), 0u);
    EXPECT_EQ(order[1].value(), 1u);
    EXPECT_EQ(order[2].value(), 2u);
}

// ----------------------------------------------------------- analysis --

TEST(Analysis, NativeLatenciesFollowModel)
{
    const sequencing_graph g = diamond();
    const sonic_model model;
    const std::vector<int> lat = native_latencies(g, model);
    EXPECT_EQ(lat[0], 2);                 // adder
    EXPECT_EQ(lat[2], 2);                 // mul8x8: ceil(16/8)
}

TEST(Analysis, AsapOnDiamond)
{
    const sequencing_graph g = diamond();
    const std::vector<int> lat{2, 2, 2, 2};
    const std::vector<int> asap = asap_start_times(g, lat);
    EXPECT_EQ(asap, (std::vector<int>{0, 2, 2, 4}));
}

TEST(Analysis, AlapOnDiamondAtCriticalHorizon)
{
    const sequencing_graph g = diamond();
    const std::vector<int> lat{2, 2, 2, 2};
    const std::vector<int> alap = alap_start_times(g, lat, 6);
    EXPECT_EQ(alap, (std::vector<int>{0, 2, 2, 4}));
}

TEST(Analysis, AlapWithSlackShiftsLate)
{
    const sequencing_graph g = diamond();
    const std::vector<int> lat{2, 2, 2, 2};
    const std::vector<int> alap = alap_start_times(g, lat, 8);
    EXPECT_EQ(alap, (std::vector<int>{2, 4, 4, 6}));
}

TEST(Analysis, AlapBelowCriticalPathThrows)
{
    const sequencing_graph g = diamond();
    const std::vector<int> lat{2, 2, 2, 2};
    EXPECT_THROW(static_cast<void>(alap_start_times(g, lat, 5)),
                 infeasible_error);
}

TEST(Analysis, AsapNeverAfterAlap)
{
    const sequencing_graph g = diamond();
    const std::vector<int> lat{1, 3, 2, 4};
    const int cp = critical_path_length(g, lat);
    const std::vector<int> asap = asap_start_times(g, lat);
    const std::vector<int> alap = alap_start_times(g, lat, cp + 3);
    for (std::size_t i = 0; i < g.size(); ++i) {
        EXPECT_LE(asap[i], alap[i]);
    }
}

TEST(Analysis, CriticalPathOfChainIsSumOfLatencies)
{
    sequencing_graph g;
    op_id prev = g.add_operation(op_shape::adder(4));
    for (int i = 0; i < 4; ++i) {
        const op_id next = g.add_operation(op_shape::adder(4));
        g.add_dependency(prev, next);
        prev = next;
    }
    const std::vector<int> lat(5, 3);
    EXPECT_EQ(critical_path_length(g, lat), 15);
}

TEST(Analysis, CriticalPathOfIndependentOpsIsMaxLatency)
{
    sequencing_graph g;
    g.add_operation(op_shape::adder(4));
    g.add_operation(op_shape::multiplier(20, 20));
    const sonic_model model;
    EXPECT_EQ(min_latency(g, model), 5); // mul20x20: ceil(40/8) = 5 > 2
}

TEST(Analysis, MinLatencyOfFig1StyleChain)
{
    // mul16x16 -> add -> mul8x8 : ceil(32/8) + 2 + ceil(16/8) = 4 + 2 + 2.
    sequencing_graph g;
    const op_id m1 = g.add_operation(op_shape::multiplier(16, 16));
    const op_id a1 = g.add_operation(op_shape::adder(16));
    const op_id m2 = g.add_operation(op_shape::multiplier(8, 8));
    g.add_dependency(m1, a1);
    g.add_dependency(a1, m2);
    const sonic_model model;
    EXPECT_EQ(min_latency(g, model), 8);
}

TEST(Analysis, ScheduleLengthValidatesSizes)
{
    const sequencing_graph g = diamond();
    const std::vector<int> lat{2, 2, 2, 2};
    const std::vector<int> bad_start{0, 0};
    EXPECT_THROW(static_cast<void>(schedule_length(g, lat, bad_start)),
                 precondition_error);
}

TEST(Analysis, LatencyVectorSizeMismatchThrows)
{
    const sequencing_graph g = diamond();
    const std::vector<int> lat{2, 2};
    EXPECT_THROW(static_cast<void>(asap_start_times(g, lat)),
                 precondition_error);
}

TEST(Analysis, NonPositiveLatencyThrows)
{
    const sequencing_graph g = diamond();
    const std::vector<int> lat{2, 0, 2, 2};
    EXPECT_THROW(static_cast<void>(asap_start_times(g, lat)),
                 precondition_error);
}

TEST(Analysis, EmptyGraphHasZeroCriticalPath)
{
    sequencing_graph g;
    EXPECT_EQ(critical_path_length(g, {}), 0);
    const sonic_model model;
    EXPECT_EQ(min_latency(g, model), 0);
}

// ---------------------------------------------------------------- dot --

TEST(Dot, ContainsAllNodesAndEdges)
{
    const sequencing_graph g = diamond();
    const std::string dot = to_dot(g);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("n0"), std::string::npos);
    EXPECT_NE(dot.find("n3"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
}

TEST(Dot, ShowsNamesAndShapes)
{
    const sequencing_graph g = diamond();
    const std::string dot = to_dot(g);
    EXPECT_NE(dot.find("a\\nadd8"), std::string::npos);
    EXPECT_NE(dot.find("mul8x8"), std::string::npos);
}

} // namespace
} // namespace mwl
