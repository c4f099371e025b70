// Field-by-field equality of two dpalloc results, for the suites that
// compare the allocator against the reference pipeline or against itself
// run elsewhere: the datapath (start steps, instance grouping, every
// instance's shape, latency, area and ops, total area, latency) and every
// stats field.

#ifndef MWL_TESTS_DPALLOC_COMPARE_HPP
#define MWL_TESTS_DPALLOC_COMPARE_HPP

#include "core/dpalloc.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mwl::testing {

inline void expect_identical(const dpalloc_result& a,
                             const dpalloc_result& b, const std::string& label)
{
    // datapath
    EXPECT_EQ(a.path.start, b.path.start) << label;
    EXPECT_EQ(a.path.instance_of_op, b.path.instance_of_op) << label;
    EXPECT_EQ(a.path.total_area, b.path.total_area) << label;
    EXPECT_EQ(a.path.latency, b.path.latency) << label;
    ASSERT_EQ(a.path.instances.size(), b.path.instances.size()) << label;
    for (std::size_t i = 0; i < a.path.instances.size(); ++i) {
        const datapath_instance& x = a.path.instances[i];
        const datapath_instance& y = b.path.instances[i];
        EXPECT_EQ(x.shape, y.shape) << label << " instance " << i;
        EXPECT_EQ(x.latency, y.latency) << label << " instance " << i;
        EXPECT_EQ(x.area, y.area) << label << " instance " << i;
        EXPECT_EQ(x.ops, y.ops) << label << " instance " << i;
    }
    // stats
    EXPECT_EQ(a.stats.iterations, b.stats.iterations) << label;
    EXPECT_EQ(a.stats.refinements, b.stats.refinements) << label;
    EXPECT_EQ(a.stats.edges_deleted, b.stats.edges_deleted) << label;
    EXPECT_EQ(a.stats.final_capacity, b.stats.final_capacity) << label;
    EXPECT_EQ(a.stats.escalations, b.stats.escalations) << label;
    EXPECT_EQ(a.stats.cover_always_minimum, b.stats.cover_always_minimum)
        << label;
}

} // namespace mwl::testing

#endif // MWL_TESTS_DPALLOC_COMPARE_HPP
