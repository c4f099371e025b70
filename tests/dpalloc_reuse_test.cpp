// dpalloc keeps its scratch in one workspace per thread (core/dpalloc.hpp).
// A call's result must not depend on which calls ran before it on the same
// thread -- larger or smaller graphs, covers past 64 members, the Eqn. 2
// ablation arm, calls that threw, calls that died at a failed allocation --
// nor on how the calls are spread over a pool. Every call here is compared
// field by field with the same call run alone on a fresh std::thread, whose
// workspace starts empty.

#include "core/dpalloc.hpp"
#include "dfg/analysis.hpp"
#include "model/hardware_model.hpp"
#include "scenarios/scenarios.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"

#include "dpalloc_compare.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace mwl {
namespace {

/// When non-zero, the calling thread's heap allocation that brings it to
/// zero throws std::bad_alloc (see the replaced operator new below).
thread_local std::size_t allocations_until_failure = 0;

} // namespace
} // namespace mwl

void* operator new(std::size_t size)
{
    std::size_t& countdown = mwl::allocations_until_failure;
    if (countdown != 0 && --countdown == 0) {
        throw std::bad_alloc();
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

// std::stable_sort's buffer comes from here and goes back through the
// plain operator delete, so it must come from malloc too.
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept
{
    try {
        return ::operator new(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

// The replacements pair malloc with free. GCC's -Wmismatched-new-delete
// does not see that the operator new above is what allocated the pointer.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept
{
    std::free(p);
}

void operator delete(void* p, std::size_t /*size*/) noexcept
{
    std::free(p);
}

void operator delete(void* p, const std::nothrow_t& /*tag*/) noexcept
{
    std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace mwl {
namespace {

sequencing_graph preset_graph(std::size_t n)
{
    rng random(large_graph_seed_base + n);
    return generate_tgff(large_graph_preset(n), random);
}

/// 68 multipliers of distinct shapes (i, 136 - i): at lambda_min,
/// refinement grows the scheduling set past 64 members, so later
/// iterations schedule on a cover wider than the engine's 64-bit signature
/// fold (LargeGraphIdentity's WideCoverParity68 graph).
sequencing_graph wide_cover_graph()
{
    sequencing_graph g;
    for (int i = 1; i <= 68; ++i) {
        g.add_operation(op_shape::multiplier(i, 136 - i));
    }
    return g;
}

struct alloc_call {
    std::string label;
    const sequencing_graph* graph = nullptr;
    int lambda = 0;
    dpalloc_options options{};
};

/// A call's result, or the message of the error it threw.
struct call_outcome {
    std::optional<dpalloc_result> result;
    std::string error;
};

call_outcome run_call(const alloc_call& call)
{
    const sonic_model model;
    try {
        return {dpalloc(*call.graph, model, call.lambda, call.options), {}};
    } catch (const error& e) {
        return {std::nullopt, e.what()};
    }
}

call_outcome run_on_fresh_thread(const alloc_call& call)
{
    call_outcome out;
    std::thread([&] { out = run_call(call); }).join();
    return out;
}

void expect_identical(const call_outcome& a, const call_outcome& b,
                      const std::string& label)
{
    ASSERT_EQ(a.result.has_value(), b.result.has_value()) << label;
    EXPECT_EQ(a.error, b.error) << label;
    if (a.result) {
        testing::expect_identical(*a.result, *b.result, label);
    }
}

int slack_lambda(const sequencing_graph& g, double slack)
{
    return relaxed_lambda(min_latency(g, sonic_model{}), slack);
}

class DpallocReuse : public ::testing::Test {
protected:
    const sequencing_graph big = preset_graph(150);
    const sequencing_graph fir4 = make_scenario("fir4").graph;
    const sequencing_graph fir8 = make_scenario("fir8").graph;
    const sequencing_graph lattice4 = make_scenario("lattice4").graph;
    const sequencing_graph wide = wide_cover_graph();
};

TEST_F(DpallocReuse, SequenceOnOneThreadMatchesFreshThreads)
{
    // Large, small, large again, a call that throws, small again: each
    // inherits the workspace the one before left on this thread.
    const std::vector<alloc_call> calls = {
        {"preset150", &big, slack_lambda(big, 0.10)},
        {"fir4", &fir4, slack_lambda(fir4, 0.10)},
        {"preset150 again", &big, slack_lambda(big, 0.10)},
        {"infeasible", &big, slack_lambda(big, 0.0) - 1},
        {"fir4 again", &fir4, slack_lambda(fir4, 0.10)},
    };
    for (const alloc_call& call : calls) {
        const call_outcome reused = run_call(call);
        expect_identical(reused, run_on_fresh_thread(call), call.label);
    }
    EXPECT_FALSE(run_call(calls[3]).result.has_value());
}

TEST_F(DpallocReuse, WideCoverBetweenOtherCalls)
{
    // The > 64-member sweep leaves the usage arena dirty for the next
    // signature pass to clear.
    const std::vector<alloc_call> calls = {
        {"fir8", &fir8, slack_lambda(fir8, 0.0)},
        {"wide68", &wide, slack_lambda(wide, 0.0)},
        {"fir8 again", &fir8, slack_lambda(fir8, 0.0)},
        {"lattice4", &lattice4, slack_lambda(lattice4, 0.2)},
    };
    for (const alloc_call& call : calls) {
        const call_outcome reused = run_call(call);
        expect_identical(reused, run_on_fresh_thread(call), call.label);
    }
}

TEST_F(DpallocReuse, ClassicArmBetweenDefaultCalls)
{
    // The Eqn. 2 ablation arm list-schedules in the same usage arena and
    // leaves its running counts there, wider than the small graph's
    // signature pass needs: the next default call must still clear it.
    dpalloc_options classic;
    classic.classic_constraint = true;
    const std::vector<alloc_call> calls = {
        {"fir8", &fir8, slack_lambda(fir8, 0.0)},
        {"preset150 classic", &big, slack_lambda(big, 0.10), classic},
        {"fir8 again", &fir8, slack_lambda(fir8, 0.0)},
        {"fir8 classic", &fir8, slack_lambda(fir8, 0.0), classic},
        {"lattice4", &lattice4, slack_lambda(lattice4, 0.2)},
        {"preset150", &big, slack_lambda(big, 0.10)},
    };
    for (const alloc_call& call : calls) {
        const call_outcome reused = run_call(call);
        expect_identical(reused, run_on_fresh_thread(call), call.label);
    }
}

TEST_F(DpallocReuse, FailedAllocationLeavesTheNextCallClean)
{
    // A call that dies at its k-th heap allocation, for every k, on a
    // thread whose workspace starts empty, so the failures land inside
    // the scheduling pass too (bucket, heap and arena growth). The same
    // thread's next call must match a fresh thread's: in particular a
    // usage arena abandoned part-way must not be marked all-zero.
    const alloc_call call{"fir8", &fir8, slack_lambda(fir8, 0.10)};
    const call_outcome expected = run_on_fresh_thread(call);
    ASSERT_TRUE(expected.result.has_value());
    bool failed = true;
    for (std::size_t k = 1; failed; ++k) {
        call_outcome after;
        std::thread([&] {
            allocations_until_failure = k;
            try {
                static_cast<void>(run_call(call));
                failed = false; // k is past the call's last allocation
            } catch (const std::bad_alloc&) {
            }
            allocations_until_failure = 0;
            after = run_call(call);
        }).join();
        expect_identical(after, expected,
                         "failure at allocation " + std::to_string(k));
    }
}

TEST_F(DpallocReuse, PoolOfFourMatchesSerial)
{
    const std::vector<const sequencing_graph*> graphs = {&fir4, &big, &fir8,
                                                         &lattice4};
    std::vector<alloc_call> calls;
    for (std::size_t i = 0; i < 16; ++i) {
        const sequencing_graph* g = graphs[i % graphs.size()];
        const double slack = 0.05 * static_cast<double>(i % 3);
        // Calls 5 and 11 ask for one step below lambda_min and throw.
        const int lambda =
            i % 6 == 5 ? slack_lambda(*g, 0.0) - 1 : slack_lambda(*g, slack);
        calls.push_back({"call " + std::to_string(i), g, lambda});
    }
    std::vector<call_outcome> serial;
    for (const alloc_call& call : calls) {
        serial.push_back(run_call(call));
    }
    std::vector<call_outcome> pooled(calls.size());
    thread_pool pool(4);
    parallel_for(pool, calls.size(),
                 [&](std::size_t i) { pooled[i] = run_call(calls[i]); });
    for (std::size_t i = 0; i < calls.size(); ++i) {
        expect_identical(pooled[i], serial[i], calls[i].label);
    }
}

} // namespace
} // namespace mwl
