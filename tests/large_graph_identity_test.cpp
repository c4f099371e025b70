// Bit-identity pins for the large-graph tier: the windowed tgff presets
// (tgff/generator.hpp, large_graph_preset) run through the full allocator
// and every answer -- area AND the refinement trajectory -- is pinned to
// the values recorded when the fast paths (CSR adjacency, bitset kernels,
// arena scratch, lazy front heap) landed. Any optimisation that changes a
// number here changed the algorithm, not just its speed.
//
// bench/large_graph_scaling.cpp measures throughput on the same graphs
// (its first graph per size is exactly the seed-base + n graph pinned
// here), so these pins are what make that artifact's numbers meaningful.

#include "core/dpalloc.hpp"
#include "dfg/analysis.hpp"
#include "model/hardware_model.hpp"
#include "oracle/oracle.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"
#include "wcg/wcg.hpp"

#include <gtest/gtest.h>

namespace mwl {
namespace {

sequencing_graph preset_graph(std::size_t n)
{
    rng random(large_graph_seed_base + n);
    return generate_tgff(large_graph_preset(n), random);
}

TEST(LargeGraphIdentity, PinnedAllocStats500)
{
    const sequencing_graph g = preset_graph(500);
    const sonic_model model;
    const int lmin = min_latency(g, model);
    ASSERT_EQ(lmin, 136);
    const dpalloc_result r =
        dpalloc(g, model, relaxed_lambda(lmin, 0.10));
    EXPECT_EQ(r.path.total_area, 17658);
    EXPECT_EQ(r.stats.iterations, 757);
    EXPECT_EQ(r.stats.refinements, 753);
    EXPECT_EQ(r.stats.escalations, 3);
    EXPECT_EQ(r.stats.edges_deleted, 30891);
}

TEST(LargeGraphIdentity, PinnedAllocStats1000)
{
    const sequencing_graph g = preset_graph(1000);
    const sonic_model model;
    const int lmin = min_latency(g, model);
    ASSERT_EQ(lmin, 253);
    const dpalloc_result r =
        dpalloc(g, model, relaxed_lambda(lmin, 0.10));
    EXPECT_EQ(r.path.total_area, 22904);
    EXPECT_EQ(r.stats.iterations, 1500);
    EXPECT_EQ(r.stats.refinements, 1496);
    EXPECT_EQ(r.stats.escalations, 3);
    EXPECT_EQ(r.stats.edges_deleted, 63428);
}

TEST(LargeGraphIdentity, EngineParity500)
{
    // The event engine's fast paths (signature tournament, front heap,
    // arena CSR) against the plain rescan reference on a preset graph:
    // identical schedule, makespan, and scheduling set, by contract.
    const sequencing_graph g = preset_graph(500);
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const incomplete_schedule_result fast = schedule_incomplete(wcg, 1);
    const incomplete_schedule_result ref =
        oracle::schedule_incomplete_scan(wcg, 1);
    EXPECT_EQ(fast.length, ref.length);
    EXPECT_EQ(fast.start, ref.start);
    ASSERT_EQ(fast.scheduling_set.size(), ref.scheduling_set.size());
    for (std::size_t i = 0; i < fast.scheduling_set.size(); ++i) {
        EXPECT_EQ(fast.scheduling_set[i].value(),
                  ref.scheduling_set[i].value());
    }
    EXPECT_EQ(fast.cover_proven_minimum, ref.cover_proven_minimum);
}

void expect_same_allocation(const dpalloc_result& a, const dpalloc_result& b)
{
    EXPECT_EQ(a.path.total_area, b.path.total_area);
    EXPECT_EQ(a.path.start, b.path.start);
    EXPECT_EQ(a.path.instance_of_op, b.path.instance_of_op);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
    EXPECT_EQ(a.stats.refinements, b.stats.refinements);
    EXPECT_EQ(a.stats.escalations, b.stats.escalations);
    EXPECT_EQ(a.stats.edges_deleted, b.stats.edges_deleted);
}

TEST(LargeGraphIdentity, IncrementalParity150)
{
    // Full allocator, incremental event pipeline vs the reference
    // pipeline, on a preset graph small enough to run both end to end.
    const sequencing_graph g = preset_graph(150);
    const sonic_model model;
    const int lambda = relaxed_lambda(min_latency(g, model), 0.10);
    expect_same_allocation(dpalloc(g, model, lambda),
                           oracle::dpalloc_from_scratch(g, model, lambda));
}

TEST(LargeGraphIdentity, WideCoverParity68)
{
    // 68 independent multipliers with distinct shapes (i, 136 - i) at
    // lambda_min: refinement grows the scheduling set past 64 members, so
    // the allocator's later iterations schedule on the generic event sweep
    // instead of the signature tournament.
    sequencing_graph g;
    for (int i = 1; i <= 68; ++i) {
        g.add_operation(op_shape::multiplier(i, 136 - i));
    }
    const sonic_model model;
    const int lambda = min_latency(g, model);
    expect_same_allocation(dpalloc(g, model, lambda),
                           oracle::dpalloc_from_scratch(g, model, lambda));
}

} // namespace
} // namespace mwl
