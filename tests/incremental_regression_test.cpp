// Regression suite for the incremental DPAlloc pipeline: every cache and
// engine introduced for speed (event-driven scheduling, memoized /
// warm-started scheduling sets, BindSelect's greedy-keyed selection on
// bit rows, cached WCG latency bounds) must leave results
// *byte-identical* to the from-scratch reference pipeline (tests/oracle)
// on the tgff corpus. See PERF.md for the invariants each cache maintains.

#include "bind/bind_select.hpp"
#include "core/dpalloc.hpp"
#include "oracle/oracle.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/scheduling_set.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"
#include "wcg/wcg.hpp"

#include "dpalloc_compare.hpp"
#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mwl {
namespace {

using testing::expect_identical;

TEST(IncrementalRegression, DpallocIdenticalOnTgffCorpus)
{
    const sonic_model model;
    for (const std::size_t n : {4u, 8u, 12u, 16u, 20u}) {
        const auto corpus = make_corpus(n, 4, model, 777);
        for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
            const corpus_entry& e = corpus[gi];
            for (const double slack : {0.0, 0.1, 0.3}) {
                const int lambda = relaxed_lambda(e.lambda_min, slack);
                const dpalloc_result a = dpalloc(e.graph, model, lambda);
                const dpalloc_result b =
                    oracle::dpalloc_from_scratch(e.graph, model, lambda);
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
        dpalloc_options classic;
        classic.classic_constraint = true;
        const dpalloc_result a =
            dpalloc(e.graph, model, e.lambda_min, classic);
        const dpalloc_result b = oracle::dpalloc_from_scratch(
            e.graph, model, e.lambda_min, classic);
        expect_identical(a, b, "classic graph=" + std::to_string(gi));
    }
}

TEST(IncrementalRegression, DpallocIdenticalWithoutGrowth)
{
    // The growth ablation exercises a different BindSelect path; the
    // bit-row selection must be inert there too.
    const sonic_model model;
    const auto corpus = make_corpus(10, 3, model, 779);
    for (const corpus_entry& e : corpus) {
        dpalloc_options ablated;
        ablated.enable_growth = false;
        expect_identical(dpalloc(e.graph, model, e.lambda_min, ablated),
                         oracle::dpalloc_from_scratch(e.graph, model,
                                                      e.lambda_min, ablated),
                         "ablation");
    }
}

TEST(IncrementalRegression, BindSelectMatchesReference)
{
    // The library's BindSelect (bit rows over finish ranks, greedy-keyed
    // lazy heap, no cheapest-resource pass) against the paper's, which
    // runs that pass (oracle::bind_select_reference), on the same
    // schedule: graphs up to |O| = 200, so rows span several 64-bit words;
    // schedules with heavy start and finish ties besides the ones dpalloc
    // produces; H shrunk by random refine_op sequences; growth on and off;
    // one scratch reused across graphs of different |O| and resource
    // counts. Equal resources pin the DESIGN.md §2.3 finding that the
    // ratio rule already gives each clique its cheapest common resource.
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
                const bind_options options{.enable_growth = growth};
                const binding a =
                    bind_select(wcg, start, lat, options, &scratch);
                const binding b =
                    oracle::bind_select_reference(wcg, start, lat, options);
                const std::string label =
                    "trial " + std::to_string(trial) + " step " +
                    std::to_string(step) + " growth " +
                    std::to_string(growth);
                ASSERT_EQ(a.cliques.size(), b.cliques.size()) << label;
                for (std::size_t k = 0; k < a.cliques.size(); ++k) {
                    EXPECT_EQ(a.cliques[k].resource, b.cliques[k].resource)
                        << label << " clique " << k;
                    EXPECT_EQ(a.cliques[k].ops, b.cliques[k].ops)
                        << label << " clique " << k;
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
    const std::uint64_t seed = testing::env_seed("MWL_SCHED_SEED", 0xE7E7);
    MWL_TRACE_SEED("MWL_SCHED_SEED", seed);
    rng random(seed);
    const sonic_model model;
    for (int trial = 0; trial < 25; ++trial) {
        tgff_options opts;
        opts.n_ops = 4 + static_cast<std::size_t>(trial) % 14;
        const sequencing_graph g = generate_tgff(opts, random);
        wordlength_compatibility_graph wcg(g, model);
        for (const int capacity : {1, 2}) {
            incomplete_sched_scratch scratch;
            const incomplete_schedule_result ev =
                schedule_incomplete(wcg, capacity, &scratch);
            const incomplete_schedule_result ref =
                oracle::schedule_incomplete_scan(wcg, capacity);
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
        const incomplete_schedule_result ev = schedule_incomplete(wcg, 1);
        const incomplete_schedule_result ref =
            oracle::schedule_incomplete_scan(wcg, 1);
        EXPECT_EQ(ev.start, ref.start) << "refined trial " << trial;
    }
}

/// Multipliers of 68 distinct shapes (i, 136 - i), two per shape, plus
/// one unrefined (136 - k) x 1 multiplier per k in `shares`: each is
/// compatible with exactly the k cover members (136 - i, i) with
/// 136 - i >= 136 - k once refine_wide_cover has run.
sequencing_graph wide_cover_with_shares(std::span<const int> shares)
{
    sequencing_graph g;
    for (int copy = 0; copy < 2; ++copy) {
        for (int i = 1; i <= 68; ++i) {
            g.add_operation(op_shape::multiplier(i, 136 - i));
        }
    }
    for (const int k : shares) {
        g.add_operation(op_shape::multiplier(136 - k, 1));
    }
    return g;
}

/// Refines the 136 shaped multipliers to exhaustion: each keeps only its
/// own shape, so the cover has 68 members.
void refine_wide_cover(wordlength_compatibility_graph& wcg)
{
    for (std::size_t i = 0; i < 136; ++i) {
        while (wcg.refinable(op_id(i))) {
            wcg.refine_op(op_id(i));
        }
    }
}

/// schedule_incomplete against the rescan reference at capacities 1 and 2
/// on a cover of more than 64 members.
void expect_wide_cover_parity(const wordlength_compatibility_graph& wcg,
                              const std::string& label)
{
    for (const int capacity : {1, 2}) {
        incomplete_sched_scratch scratch;
        const incomplete_schedule_result ev =
            schedule_incomplete(wcg, capacity, &scratch);
        ASSERT_GT(ev.scheduling_set.size(), 64U) << label;
        const incomplete_schedule_result ref =
            oracle::schedule_incomplete_scan(wcg, capacity);
        const std::string at = label + " capacity " + std::to_string(capacity);
        EXPECT_EQ(ev.start, ref.start) << at;
        EXPECT_EQ(ev.length, ref.length) << at;
        EXPECT_EQ(ev.scheduling_set, ref.scheduling_set) << at;
    }
}

TEST(IncrementalRegression, EventScheduleMatchesReferenceScanOnWideCover)
{
    // The shaped multipliers refined to exhaustion give a 68-member cover,
    // wider than the engine's 64-bit signature fold tells apart. Four
    // unrefined 1x1 multipliers, each after one of the big ones, stay
    // compatible with every member and take fractional 1/68 shares.
    const sonic_model model;
    sequencing_graph g = wide_cover_with_shares({});
    for (std::size_t k = 0; k < 4; ++k) {
        g.add_dependency(op_id(k * 30),
                         g.add_operation(op_shape::multiplier(1, 1)));
    }
    wordlength_compatibility_graph wcg(g, model);
    refine_wide_cover(wcg);
    expect_wide_cover_parity(wcg, "1x1 shares");

    // Fold collisions. Every shape has the same latency, so ties break by
    // id and the graph above schedules the same even if folded signatures
    // merge. Each set below adds rows of different sizes whose folds
    // coincide with another row's (a row spanning 64 or more members folds
    // to all ones, member mi + 64 folds onto member mi), so an engine that
    // keys signatures by the fold alone, without confirming the rows,
    // shares and probes them wrongly and places differently.
    const std::array<std::array<int, 2>, 3> share_sets = {
        {{64, 65}, {1, 65}, {2, 66}}};
    for (const auto& shares : share_sets) {
        const sequencing_graph sg = wide_cover_with_shares(shares);
        wordlength_compatibility_graph swcg(sg, model);
        refine_wide_cover(swcg);
        expect_wide_cover_parity(swcg,
                                 "shares {" + std::to_string(shares[0]) +
                                     ", " + std::to_string(shares[1]) + "}");
    }
}

TEST(IncrementalRegression, ShareScaleOverflowThrows)
{
    // The lcm of these |S(o)| values needs more than 63 bits. std::lcm
    // wrapped it silently to 4,149,986,372,970,670,656, which 17 of them
    // do not divide, so the "exact" shares were truncated. Both schedulers
    // now refuse the graph instead.
    const std::array<int, 19> shares = {64, 27, 25, 49, 11, 13, 17,
                                        19, 23, 29, 31, 37, 41, 43,
                                        47, 53, 59, 61, 67};
    const sonic_model model;
    const sequencing_graph g = wide_cover_with_shares(shares);
    wordlength_compatibility_graph wcg(g, model);
    refine_wide_cover(wcg);
    incomplete_sched_scratch scratch;
    EXPECT_THROW(static_cast<void>(schedule_incomplete(wcg, 1, &scratch)),
                 error);
    EXPECT_THROW(static_cast<void>(oracle::schedule_incomplete_scan(wcg, 1)),
                 error);

    // The first 13 give scale = 3,066,842,656,354,276,800, just under
    // 2^62. A probe sums at most (capacity + 1) x scale, which fits up to
    // capacity 2: both schedulers place identically there, on the scratch
    // the refused call used, and both refuse capacity 3.
    const sequencing_graph near =
        wide_cover_with_shares(std::span(shares).first(13));
    wordlength_compatibility_graph near_wcg(near, model);
    refine_wide_cover(near_wcg);
    for (const int capacity : {1, 2}) {
        const incomplete_schedule_result ev =
            schedule_incomplete(near_wcg, capacity, &scratch);
        ASSERT_EQ(ev.scheduling_set.size(), 68U);
        const incomplete_schedule_result ref =
            oracle::schedule_incomplete_scan(near_wcg, capacity);
        EXPECT_EQ(ev.start, ref.start) << "capacity " << capacity;
        EXPECT_EQ(ev.length, ref.length) << "capacity " << capacity;
    }
    EXPECT_THROW(
        static_cast<void>(schedule_incomplete(near_wcg, 3, &scratch)), error);
    EXPECT_THROW(
        static_cast<void>(oracle::schedule_incomplete_scan(near_wcg, 3)),
        error);
}

TEST(IncrementalRegression, EventListScheduleMatchesReferenceScan)
{
    // Equal limits and unequal ones, so a per-type budget read for the
    // wrong type cannot pass.
    const std::uint64_t seed = testing::env_seed("MWL_SCHED_SEED", 0xE7E8);
    MWL_TRACE_SEED("MWL_SCHED_SEED", seed);
    rng random(seed);
    const sonic_model model;
    const std::array<type_limits, 6> limit_sets = {{{.add = 1, .mul = 1},
                                                    {.add = 2, .mul = 2},
                                                    {.add = 1000, .mul = 1000},
                                                    {.add = 1, .mul = 3},
                                                    {.add = 3, .mul = 1},
                                                    {.add = 2, .mul = 1}}};
    for (int trial = 0; trial < 25; ++trial) {
        tgff_options opts;
        opts.n_ops = 4 + static_cast<std::size_t>(trial) % 14;
        const sequencing_graph g = generate_tgff(opts, random);
        std::vector<int> lat;
        lat.reserve(g.size());
        for (const op_id o : g.all_ops()) {
            lat.push_back(model.latency(g.shape(o)));
        }
        for (const type_limits& limits : limit_sets) {
            event_schedule_workspace ws;
            const list_schedule_result ev = list_schedule(g, lat, limits, &ws);
            const list_schedule_result ref =
                oracle::list_schedule_scan(g, lat, limits);
            const std::string at = "trial " + std::to_string(trial) +
                                   " limits " + std::to_string(limits.add) +
                                   "/" + std::to_string(limits.mul);
            EXPECT_EQ(ev.start, ref.start) << at;
            EXPECT_EQ(ev.length, ref.length) << at;
        }
    }
}

/// Every cached per-operation quantity of `wcg` against a rescan of its H
/// rows: the latency bounds, refinability and the §2.4 metric's counts.
void expect_counts_match_rescan(const wordlength_compatibility_graph& wcg,
                                const std::string& label)
{
    for (const op_id o : wcg.graph().all_ops()) {
        int upper = 0;
        int lower = 0;
        for (const res_id r : wcg.resources_for(o)) {
            upper = std::max(upper, wcg.latency(r));
            lower = lower == 0 ? wcg.latency(r)
                               : std::min(lower, wcg.latency(r));
        }
        std::uint32_t pool = 0;
        std::uint32_t slowest = 0;
        for (const res_id r : wcg.resources_for(o)) {
            pool += static_cast<std::uint32_t>(wcg.ops_for(r).size());
            slowest += wcg.latency(r) == upper ? 1 : 0;
        }
        const std::string at = label + " op " + std::to_string(o.value());
        EXPECT_EQ(wcg.latency_upper_bound(o), upper) << at;
        EXPECT_EQ(wcg.latency_lower_bound(o), lower) << at;
        EXPECT_EQ(wcg.refinable(o), lower < upper) << at;
        EXPECT_EQ(wcg.sharing_pools()[o.value()], pool) << at;
        EXPECT_EQ(wcg.slowest_edge_counts()[o.value()], slowest) << at;
    }
}

TEST(IncrementalRegression, CachedWcgBoundsMatchRescan)
{
    // The cached latency bounds and §2.4 counts must track every
    // delete_edge exactly, whichever latency tier the edge is in.
    rng random(0xE7E9);
    const sonic_model model;
    tgff_options opts;
    opts.n_ops = 14;
    const sequencing_graph g = generate_tgff(opts, random);

    // Single deletions until every operation keeps one edge: a slowest
    // edge of a refinable operation on even steps (the refinement path),
    // a random edge on odd ones (middle tiers and fastest edges too).
    wordlength_compatibility_graph wcg(g, model);
    expect_counts_match_rescan(wcg, "initial");
    for (int step = 0;; ++step) {
        std::vector<op_id> open;
        for (const op_id o : g.all_ops()) {
            if (wcg.resources_for(o).size() > 1) {
                open.push_back(o);
            }
        }
        if (open.empty()) {
            break;
        }
        const op_id o = open[random.uniform(0, open.size() - 1)];
        const auto row = wcg.resources_for(o);
        res_id r = row[random.uniform(0, row.size() - 1)];
        if (step % 2 == 0 && wcg.refinable(o)) {
            r = *std::find_if(row.begin(), row.end(), [&](res_id x) {
                return wcg.latency(x) == wcg.latency_upper_bound(o);
            });
        }
        const std::uint64_t version = wcg.edge_version();
        wcg.delete_edge(o, r);
        EXPECT_EQ(wcg.edge_version(), version + 1);
        expect_counts_match_rescan(wcg, "step " + std::to_string(step));
    }

    // refine_op to exhaustion on a fresh graph, re-checking after each.
    wordlength_compatibility_graph refined(g, model);
    std::uint64_t version = refined.edge_version();
    bool progress = true;
    while (progress) {
        progress = false;
        for (const op_id o : g.all_ops()) {
            if (refined.refinable(o)) {
                const int deleted = refined.refine_op(o);
                EXPECT_EQ(refined.edge_version(),
                          version + static_cast<std::uint64_t>(deleted));
                version = refined.edge_version();
                expect_counts_match_rescan(
                    refined, "refine op " + std::to_string(o.value()));
                progress = true;
                break;
            }
        }
    }
}

TEST(IncrementalRegression, SchedulingSetCacheHitsAndWarmStarts)
{
    // The cached path (memo, carried lower and upper bounds, domination
    // witnesses) against a cold solve after every batch of refinements:
    // |O| = 12, and |O| = 130 whose coverage rows span three 64-bit words.
    // 1-3 refinements in a seeded random order between queries, until
    // nothing is refinable. Each query also runs under node caps of 1, 10
    // and 50 on caches of their own, against the cold overload under the
    // same cap: the members must match, and proven_minimum may differ only
    // by the cached path proving what the cold search could not within
    // the cap (it does at cap 10 on some seeds).
    const std::uint64_t seed = testing::env_seed("MWL_COVER_SEED", 0xE7EA);
    MWL_TRACE_SEED("MWL_COVER_SEED", seed);
    rng random(seed);
    const sonic_model model;
    for (const std::size_t n : {12U, 130U}) {
        tgff_options opts;
        opts.n_ops = n;
        const sequencing_graph g = generate_tgff(opts, random);
        wordlength_compatibility_graph wcg(g, model);
        scheduling_set_cache cache;
        const std::array<std::size_t, 3> caps{1, 10, 50};
        std::array<scheduling_set_cache, 3> capped_caches;
        const auto expect_cold = [&](const std::string& label) {
            const scheduling_set_result cold = min_scheduling_set(wcg);
            const scheduling_set_result cached =
                min_scheduling_set(wcg, cache);
            EXPECT_EQ(cached.members, cold.members) << label;
            EXPECT_EQ(cached.proven_minimum, cold.proven_minimum) << label;
            // Unchanged version: a memo hit returns the identical cover.
            EXPECT_EQ(min_scheduling_set(wcg, cache).members, cold.members)
                << label;
            for (std::size_t i = 0; i < caps.size(); ++i) {
                const std::string cap_label =
                    label + " cap " + std::to_string(caps[i]);
                const scheduling_set_result cold_capped =
                    min_scheduling_set(wcg, caps[i]);
                const scheduling_set_result cached_capped =
                    min_scheduling_set(wcg, capped_caches[i], caps[i]);
                EXPECT_EQ(cached_capped.members, cold_capped.members)
                    << cap_label;
                // The greedy cover meeting the lower bound, or a bounded
                // search completing, where the cold search hits the cap.
                EXPECT_TRUE(cached_capped.proven_minimum ||
                            !cold_capped.proven_minimum)
                    << cap_label;
            }
        };
        const std::string graph_label = "n=" + std::to_string(n);
        expect_cold(graph_label + " initial");
        std::vector<op_id> refinable;
        for (const op_id o : g.all_ops()) {
            if (wcg.refinable(o)) {
                refinable.push_back(o);
            }
        }
        for (int query = 0; !refinable.empty(); ++query) {
            for (int k = random.uniform_int(1, 3); k > 0 && !refinable.empty();
                 --k) {
                const std::size_t i = random.uniform(0, refinable.size() - 1);
                wcg.refine_op(refinable[i]);
                if (!wcg.refinable(refinable[i])) {
                    refinable.erase(refinable.begin() +
                                    static_cast<std::ptrdiff_t>(i));
                }
            }
            expect_cold(graph_label + " query " + std::to_string(query));
        }
    }
}

TEST(IncrementalRegression, SchedulingSetCacheReordersAndRetestsWitnesses)
{
    // o1 = 8x8, o2 = 20x2, o3 = 12x12 close to the resources 8x8 {o1},
    // 20x2 {o2}, 12x12 {o1, o3}, 20x8 {o1, o2} and 20x12 {o1, o2, o3}, the
    // first query's witness of everything. Deleting {o3, 20x12} leaves
    // 20x12 with 20x8's coverage at a larger area: it must now sort after
    // 20x8 and be dominated by it, and 20x8 must not count its old witness
    // 20x12 as a dominator, since 20x12 is no longer live before it.
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(8, 8));
    g.add_operation(op_shape::multiplier(20, 2));
    const op_id o3 = g.add_operation(op_shape::multiplier(12, 12));
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    const auto resource_of = [&](const op_shape& shape) {
        for (const res_id r : wcg.all_resources()) {
            if (wcg.resource(r) == shape) {
                return r;
            }
        }
        return res_id::invalid();
    };
    const res_id top = resource_of(op_shape::multiplier(20, 12));
    ASSERT_TRUE(top.is_valid());
    ASSERT_EQ(wcg.ops_for(top).size(), 3U);

    scheduling_set_cache cache;
    EXPECT_EQ(min_scheduling_set(wcg, cache).members,
              std::vector<res_id>{top});
    wcg.delete_edge(o3, top);
    const scheduling_set_result cached = min_scheduling_set(wcg, cache);
    EXPECT_EQ(cached.members, min_scheduling_set(wcg).members);
    std::vector<res_id> expected{resource_of(op_shape::multiplier(12, 12)),
                                 resource_of(op_shape::multiplier(20, 8))};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(cached.members, expected);
}

TEST(IncrementalRegression, SchedulingSetCacheKeysOnGraphIdentity)
{
    // Two WCGs at one address, both at edge version 0: the second is
    // emplaced where the first was destroyed. Each is a different graph,
    // so a cache keyed on the address and the edge version would serve
    // the first graph's cover for it. The second is then refined until
    // its proven cover grows, and a third graph with a smaller cover is
    // copy-assigned over it: the carried lower bound must not survive
    // the change of graph either.
    const sonic_model model;
    std::vector<sequencing_graph> graphs;
    for (const std::uint64_t seed : {1U, 77U, 5U}) {
        rng random(seed);
        tgff_options opts;
        opts.n_ops = 12;
        graphs.push_back(generate_tgff(opts, random));
    }
    std::optional<wordlength_compatibility_graph> wcg;
    scheduling_set_cache cache;
    for (std::size_t i = 0; i < 2; ++i) {
        wcg.emplace(graphs[i], model);
        EXPECT_EQ(min_scheduling_set(*wcg, cache).members,
                  min_scheduling_set(*wcg).members)
            << "graph " << i;
    }
    for (const op_id o : graphs[1].all_ops()) {
        while (wcg->refinable(o)) {
            wcg->refine_op(o);
            EXPECT_EQ(min_scheduling_set(*wcg, cache).members,
                      min_scheduling_set(*wcg).members)
                << "refined op " << o.value();
        }
    }
    const std::size_t grown = min_scheduling_set(*wcg, cache).members.size();

    const wordlength_compatibility_graph third(graphs[2], model);
    const scheduling_set_result cold = min_scheduling_set(third);
    ASSERT_LT(cold.members.size(), grown);
    *wcg = third;
    EXPECT_EQ(min_scheduling_set(*wcg, cache).members, cold.members)
        << "copy-assigned graph";
}

} // namespace
} // namespace mwl
