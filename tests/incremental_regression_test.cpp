// Regression suite for the incremental DPAlloc pipeline: every cache and
// engine introduced for speed (event-driven scheduling, memoized /
// warm-started scheduling sets, BindSelect's greedy-keyed selection on
// bit rows, cached WCG latency bounds) must leave results
// *byte-identical* to the from-scratch reference pipeline on the tgff
// corpus. See PERF.md for the invariants each cache maintains.

#include "bind/bind_select.hpp"
#include "core/dpalloc.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "support/rng.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"
#include "wcg/wcg.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

namespace mwl {
namespace {

void expect_identical(const dpalloc_result& a, const dpalloc_result& b,
                      const std::string& label)
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

TEST(IncrementalRegression, DpallocIdenticalOnTgffCorpus)
{
    const sonic_model model;
    for (const std::size_t n : {4u, 8u, 12u, 16u, 20u}) {
        const auto corpus = make_corpus(n, 4, model, 777);
        for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
            const corpus_entry& e = corpus[gi];
            for (const double slack : {0.0, 0.1, 0.3}) {
                const int lambda = relaxed_lambda(e.lambda_min, slack);
                dpalloc_options incremental;
                dpalloc_options reference;
                reference.incremental = false;
                const dpalloc_result a =
                    dpalloc(e.graph, model, lambda, incremental);
                const dpalloc_result b =
                    dpalloc(e.graph, model, lambda, reference);
                expect_identical(a, b,
                                 "n=" + std::to_string(n) + " graph=" +
                                     std::to_string(gi) + " slack=" +
                                     std::to_string(slack));
            }
        }
    }
}

TEST(IncrementalRegression, DpallocIdenticalUnderClassicConstraint)
{
    const sonic_model model;
    const auto corpus = make_corpus(12, 4, model, 778);
    for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
        const corpus_entry& e = corpus[gi];
        dpalloc_options incremental;
        incremental.classic_constraint = true;
        dpalloc_options reference = incremental;
        reference.incremental = false;
        const dpalloc_result a =
            dpalloc(e.graph, model, e.lambda_min, incremental);
        const dpalloc_result b =
            dpalloc(e.graph, model, e.lambda_min, reference);
        expect_identical(a, b, "classic graph=" + std::to_string(gi));
    }
}

TEST(IncrementalRegression, DpallocIdenticalWithoutGrowthAndReassign)
{
    // The ablation arms exercise different BindSelect paths; the chain
    // memoization must be inert there too.
    const sonic_model model;
    const auto corpus = make_corpus(10, 3, model, 779);
    for (const corpus_entry& e : corpus) {
        dpalloc_options incremental;
        incremental.enable_growth = false;
        incremental.reassign_cheapest = false;
        dpalloc_options reference = incremental;
        reference.incremental = false;
        expect_identical(dpalloc(e.graph, model, e.lambda_min, incremental),
                         dpalloc(e.graph, model, e.lambda_min, reference),
                         "ablation");
    }
}

TEST(IncrementalRegression, BindSelectMatchesReference)
{
    // The production BindSelect (bit rows over finish ranks, greedy-keyed
    // lazy heap) against the reference arm on the same schedule: graphs up
    // to |O| = 200, so rows span several 64-bit words; schedules with heavy
    // start and finish ties besides the ones dpalloc produces; H shrunk by
    // random refine_op sequences; every growth/reassign combination; one
    // scratch reused across graphs of different |O| and resource counts.
    const std::uint64_t seed = testing::env_seed("MWL_BIND_SEED", 0xB1D5);
    MWL_TRACE_SEED("MWL_BIND_SEED", seed);
    rng random(seed);
    const sonic_model model;
    bind_scratch scratch;
    for (int trial = 0; trial < 24; ++trial) {
        tgff_options opts;
        opts.n_ops = 1 + random.uniform(0, 199);
        opts.min_width = random.uniform_int(1, 8);
        opts.max_width = opts.min_width + random.uniform_int(0, 24);
        opts.mul_fraction = random.uniform_real();
        const sequencing_graph g = generate_tgff(opts, random);
        const std::size_t n = g.size();
        wordlength_compatibility_graph wcg(g, model);
        for (int step = 0; step < 3; ++step) {
            std::vector<int> start(n);
            std::vector<int> lat(n);
            if (step == 0) {
                start = schedule_incomplete(wcg, 1).start;
                lat = wcg.latency_upper_bounds();
            } else {
                const int horizon =
                    random.uniform_int(0, static_cast<int>(n) / 4 + 2);
                for (std::size_t i = 0; i < n; ++i) {
                    start[i] = random.uniform_int(0, horizon);
                    lat[i] = random.uniform_int(1, 3);
                }
            }
            for (const bool growth : {false, true}) {
                for (const bool reassign : {false, true}) {
                    const bind_options production{
                        .enable_growth = growth,
                        .reassign_cheapest = reassign,
                        .cache_chains = true};
                    bind_options reference = production;
                    reference.cache_chains = false;
                    const binding a =
                        bind_select(wcg, start, lat, production, &scratch);
                    const binding b = bind_select(wcg, start, lat, reference);
                    const std::string label =
                        "trial " + std::to_string(trial) + " step " +
                        std::to_string(step) + " growth " +
                        std::to_string(growth) + " reassign " +
                        std::to_string(reassign);
                    ASSERT_EQ(a.cliques.size(), b.cliques.size()) << label;
                    for (std::size_t k = 0; k < a.cliques.size(); ++k) {
                        EXPECT_EQ(a.cliques[k].resource, b.cliques[k].resource)
                            << label << " clique " << k;
                        EXPECT_EQ(a.cliques[k].ops, b.cliques[k].ops)
                            << label << " clique " << k;
                    }
                }
            }
            // Refine a few random operations before the next schedule.
            for (int r = random.uniform_int(1, 8); r > 0; --r) {
                const op_id o(random.uniform(0, n - 1));
                if (wcg.refinable(o)) {
                    wcg.refine_op(o);
                }
            }
        }
    }
}

TEST(IncrementalRegression, EventScheduleMatchesReferenceScan)
{
    rng random(0xE7E7);
    const sonic_model model;
    for (int trial = 0; trial < 25; ++trial) {
        tgff_options opts;
        opts.n_ops = 4 + static_cast<std::size_t>(trial) % 14;
        const sequencing_graph g = generate_tgff(opts, random);
        wordlength_compatibility_graph wcg(g, model);
        for (const int capacity : {1, 2}) {
            incomplete_sched_scratch scratch;
            const incomplete_schedule_result ev = schedule_incomplete(
                wcg, capacity, &scratch, sched_engine::event);
            const incomplete_schedule_result ref = schedule_incomplete(
                wcg, capacity, nullptr, sched_engine::reference_scan);
            EXPECT_EQ(ev.start, ref.start) << "trial " << trial;
            EXPECT_EQ(ev.length, ref.length) << "trial " << trial;
            EXPECT_EQ(ev.scheduling_set, ref.scheduling_set)
                << "trial " << trial;
        }
        // Also after refinement shrank some H rows.
        for (const op_id o : g.all_ops()) {
            if (wcg.refinable(o)) {
                wcg.refine_op(o);
                break;
            }
        }
        const incomplete_schedule_result ev =
            schedule_incomplete(wcg, 1, nullptr, sched_engine::event);
        const incomplete_schedule_result ref = schedule_incomplete(
            wcg, 1, nullptr, sched_engine::reference_scan);
        EXPECT_EQ(ev.start, ref.start) << "refined trial " << trial;
    }
}

TEST(IncrementalRegression, EventListScheduleMatchesReferenceScan)
{
    rng random(0xE7E8);
    const sonic_model model;
    for (int trial = 0; trial < 25; ++trial) {
        tgff_options opts;
        opts.n_ops = 4 + static_cast<std::size_t>(trial) % 14;
        const sequencing_graph g = generate_tgff(opts, random);
        std::vector<int> lat;
        lat.reserve(g.size());
        for (const op_id o : g.all_ops()) {
            lat.push_back(model.latency(g.shape(o)));
        }
        for (const int limit : {1, 2, 1000}) {
            type_limits limits;
            limits.add = limit;
            limits.mul = limit;
            event_schedule_workspace ws;
            const list_schedule_result ev = list_schedule(
                g, lat, limits, &ws, sched_engine::event);
            const list_schedule_result ref = list_schedule(
                g, lat, limits, nullptr, sched_engine::reference_scan);
            EXPECT_EQ(ev.start, ref.start)
                << "trial " << trial << " limit " << limit;
            EXPECT_EQ(ev.length, ref.length)
                << "trial " << trial << " limit " << limit;
        }
    }
}

TEST(IncrementalRegression, CachedWcgBoundsMatchRescan)
{
    // The cached latency bounds must track delete_edge/refine_op exactly.
    rng random(0xE7E9);
    const sonic_model model;
    tgff_options opts;
    opts.n_ops = 14;
    const sequencing_graph g = generate_tgff(opts, random);
    wordlength_compatibility_graph wcg(g, model);

    const auto check_all = [&]() {
        for (const op_id o : g.all_ops()) {
            int upper = 0;
            int lower = 0;
            for (const res_id r : wcg.resources_for(o)) {
                upper = std::max(upper, wcg.latency(r));
                lower = lower == 0 ? wcg.latency(r)
                                   : std::min(lower, wcg.latency(r));
            }
            EXPECT_EQ(wcg.latency_upper_bound(o), upper);
            EXPECT_EQ(wcg.latency_lower_bound(o), lower);
            EXPECT_EQ(wcg.refinable(o), lower < upper);
        }
    };

    check_all();
    std::uint64_t version = wcg.edge_version();
    // Refine every op to exhaustion, re-checking the caches at each step.
    bool progress = true;
    while (progress) {
        progress = false;
        for (const op_id o : g.all_ops()) {
            if (wcg.refinable(o)) {
                const int deleted = wcg.refine_op(o);
                EXPECT_EQ(wcg.edge_version(),
                          version + static_cast<std::uint64_t>(deleted));
                version = wcg.edge_version();
                check_all();
                progress = true;
                break;
            }
        }
    }
}

TEST(IncrementalRegression, SchedulingSetCacheHitsAndWarmStarts)
{
    const sonic_model model;
    rng random(0xE7EA);
    tgff_options opts;
    opts.n_ops = 12;
    const sequencing_graph g = generate_tgff(opts, random);
    wordlength_compatibility_graph wcg(g, model);

    scheduling_set_cache cache;
    const scheduling_set_result cold = min_scheduling_set(wcg);
    const scheduling_set_result warm = min_scheduling_set(wcg, cache);
    EXPECT_EQ(cold.members, warm.members);
    EXPECT_EQ(cold.proven_minimum, warm.proven_minimum);

    // Unchanged version: memo hit must return the identical cover.
    const scheduling_set_result hit = min_scheduling_set(wcg, cache);
    EXPECT_EQ(hit.members, warm.members);

    // After each refinement the cached path must agree with a cold solve.
    bool progress = true;
    while (progress) {
        progress = false;
        for (const op_id o : g.all_ops()) {
            if (wcg.refinable(o)) {
                wcg.refine_op(o);
                progress = true;
                break;
            }
        }
        const scheduling_set_result a = min_scheduling_set(wcg);
        const scheduling_set_result b = min_scheduling_set(wcg, cache);
        EXPECT_EQ(a.members, b.members);
        EXPECT_EQ(a.proven_minimum, b.proven_minimum);
    }
}

} // namespace
} // namespace mwl
