// Determinism suite for src/engine/: the batch engine and the parallel
// Pareto sweep must be byte-identical to their serial counterparts on the
// tgff corpus at every pool size, and the caching/dedup layers must be
// output-invisible. Run under -fsanitize=thread in CI.

#include "engine/batch_engine.hpp"
#include "engine/parallel_pareto.hpp"
#include "io/graph_io.hpp"
#include "support/error.hpp"
#include "tgff/corpus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mwl {
namespace {

void expect_identical_path(const datapath& a, const datapath& b,
                           const std::string& label)
{
    EXPECT_EQ(a.start, b.start) << label;
    EXPECT_EQ(a.instance_of_op, b.instance_of_op) << label;
    EXPECT_EQ(a.total_area, b.total_area) << label;
    EXPECT_EQ(a.latency, b.latency) << label;
    ASSERT_EQ(a.instances.size(), b.instances.size()) << label;
    for (std::size_t i = 0; i < a.instances.size(); ++i) {
        const datapath_instance& x = a.instances[i];
        const datapath_instance& y = b.instances[i];
        EXPECT_EQ(x.shape, y.shape) << label << " instance " << i;
        EXPECT_EQ(x.latency, y.latency) << label << " instance " << i;
        EXPECT_EQ(x.area, y.area) << label << " instance " << i;
        EXPECT_EQ(x.ops, y.ops) << label << " instance " << i;
    }
}

void expect_identical_front(const std::vector<pareto_point>& a,
                            const std::vector<pareto_point>& b,
                            const std::string& label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].lambda, b[i].lambda) << label << " point " << i;
        EXPECT_EQ(a[i].latency, b[i].latency) << label << " point " << i;
        EXPECT_EQ(a[i].area, b[i].area) << label << " point " << i;
        expect_identical_path(a[i].path, b[i].path,
                              label + " point " + std::to_string(i));
    }
}

TEST(BatchEngine, MatchesSerialDpallocOnTgffCorpus)
{
    const sonic_model model;
    for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
        batch_options options;
        options.jobs = jobs;
        batch_engine engine(options);
        std::vector<corpus_entry> corpus;
        std::vector<int> lambdas;
        for (const std::size_t n : {6u, 10u, 14u}) {
            for (corpus_entry& e : make_corpus(n, 3, model, 97)) {
                corpus.push_back(std::move(e));
            }
        }
        for (const corpus_entry& e : corpus) {
            for (const double slack : {0.0, 0.2}) {
                const int lambda = relaxed_lambda(e.lambda_min, slack);
                lambdas.push_back(lambda);
                engine.submit(e.graph, model, lambda);
            }
        }
        const auto outcomes = engine.drain();
        ASSERT_EQ(outcomes.size(), corpus.size() * 2);
        std::size_t job = 0;
        for (const corpus_entry& e : corpus) {
            for (int s = 0; s < 2; ++s, ++job) {
                ASSERT_TRUE(outcomes[job].ok()) << outcomes[job].error;
                const dpalloc_result serial =
                    dpalloc(e.graph, model, lambdas[job]);
                expect_identical_path(
                    outcomes[job].result->path, serial.path,
                    "jobs=" + std::to_string(jobs) + " job " +
                        std::to_string(job));
            }
        }
    }
}

TEST(BatchEngine, CoalescesIdenticalInflightJobs)
{
    const sonic_model model;
    const auto corpus = make_corpus(12, 1, model, 11);
    batch_options options;
    options.jobs = 2;
    batch_engine engine(options);
    const int lambda = corpus[0].lambda_min;
    for (int i = 0; i < 6; ++i) {
        engine.submit(corpus[0].graph, model, lambda);
    }
    const auto outcomes = engine.drain();
    const batch_stats stats = engine.stats();
    EXPECT_EQ(stats.submitted, 6u);
    // At least one execution; every duplicate was coalesced or served from
    // cache, never recomputed.
    EXPECT_GE(stats.executed, 1u);
    EXPECT_EQ(stats.executed + stats.coalesced + stats.cache_hits, 6u);
    for (const auto& out : outcomes) {
        ASSERT_TRUE(out.ok());
        // All six share the one immutable result object.
        EXPECT_EQ(out.result.get(), outcomes[0].result.get());
    }
}

TEST(BatchEngine, CacheServesRepeatsAcrossBatches)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 2, model, 23);
    batch_engine engine(batch_options{.jobs = 2, .cache_capacity = 16});
    for (const corpus_entry& e : corpus) {
        engine.submit(e.graph, model, e.lambda_min);
    }
    const auto first = engine.drain();
    for (const corpus_entry& e : corpus) {
        engine.submit(e.graph, model, e.lambda_min);
    }
    const auto second = engine.drain();
    const batch_stats stats = engine.stats();
    EXPECT_EQ(stats.cache_hits, corpus.size());
    EXPECT_EQ(stats.executed, corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        ASSERT_TRUE(second[i].ok());
        EXPECT_TRUE(second[i].from_cache);
        expect_identical_path(second[i].result->path, first[i].result->path,
                              "batch replay " + std::to_string(i));
    }
}

TEST(BatchEngine, BoundedCacheEvictsLeastRecentlyUsed)
{
    const sonic_model model;
    const auto corpus = make_corpus(8, 3, model, 31);
    // One stripe: recency ordering is exact. (With several stripes the
    // bound still holds but eviction order is per-shard -- see the
    // sharded_lru suite.)
    batch_engine engine(
        batch_options{.jobs = 1, .cache_capacity = 2, .cache_shards = 1});
    const auto run_one = [&](const corpus_entry& e) {
        engine.submit(e.graph, model, e.lambda_min);
        return engine.drain();
    };
    run_one(corpus[0]);
    run_one(corpus[1]);
    run_one(corpus[2]); // evicts corpus[0]
    const auto again = run_one(corpus[0]);
    EXPECT_FALSE(again[0].from_cache);
    EXPECT_EQ(engine.stats().executed, 4u);
}

TEST(BatchEngine, RelabelledGraphSharesTheCacheSlot)
{
    // graph_fingerprint ignores operation names, so a re-labelled copy of
    // a graph must dedup against the original.
    const std::string original = "op x mul 8 6\nop y add 8\ndep x y\n";
    const std::string relabelled = "op p mul 8 6\nop q add 8\ndep p q\n";
    const sequencing_graph a = parse_graph_string(original);
    const sequencing_graph b = parse_graph_string(relabelled);
    EXPECT_EQ(graph_fingerprint(a), graph_fingerprint(b));

    const sonic_model model;
    batch_engine engine(batch_options{.jobs = 1});
    engine.submit(a, model, 10);
    static_cast<void>(engine.drain());
    engine.submit(b, model, 10);
    const auto outcomes = engine.drain();
    EXPECT_TRUE(outcomes[0].from_cache);
    EXPECT_EQ(engine.stats().executed, 1u);
}

TEST(BatchEngine, CompletionHookFiresExactlyOncePerIndex)
{
    // The campaign checkpointer journals from this hook, so the contract
    // is strict: one call per submitted index, covering executed,
    // coalesced and cache-hit jobs alike, all before drain() returns.
    const sonic_model model;
    const auto corpus = make_corpus(10, 3, model, 67);
    batch_engine engine(batch_options{.jobs = 4, .cache_capacity = 16});
    std::mutex seen_mutex;
    std::map<std::size_t, int> calls;
    std::map<std::size_t, bool> ok;
    engine.set_completion_hook(
        [&](std::size_t index, const batch_engine::outcome& out) {
            const std::lock_guard<std::mutex> lock(seen_mutex);
            ++calls[index];
            ok[index] = out.ok();
        });

    // Duplicates exercise coalescing; a second batch exercises the cache
    // path (hook fires straight from submit there).
    std::size_t submitted = 0;
    for (int batch = 0; batch < 2; ++batch) {
        for (const corpus_entry& e : corpus) {
            for (int rep = 0; rep < 3; ++rep) {
                engine.submit(e.graph, model, e.lambda_min);
                ++submitted;
            }
        }
        const auto outcomes = engine.drain();
        // Every hook call has landed by now, no waiting needed.
        ASSERT_EQ(calls.size(), outcomes.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_EQ(calls[i], 1) << "index " << i;
            EXPECT_EQ(ok[i], outcomes[i].ok()) << "index " << i;
        }
        calls.clear();
        ok.clear();
    }
    const batch_stats stats = engine.stats();
    EXPECT_EQ(stats.submitted, submitted);
    EXPECT_GE(stats.coalesced + stats.cache_hits, submitted / 2);
}

TEST(BatchEngine, CompletionHookSeesErrorsToo)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 1, model, 41);
    batch_engine engine(batch_options{.jobs = 2});
    std::mutex seen_mutex;
    std::vector<std::pair<std::size_t, bool>> seen;
    engine.set_completion_hook(
        [&](std::size_t index, const batch_engine::outcome& out) {
            const std::lock_guard<std::mutex> lock(seen_mutex);
            seen.emplace_back(index, out.ok());
        });
    engine.submit(corpus[0].graph, model, 1); // infeasible
    engine.submit(corpus[0].graph, model, corpus[0].lambda_min);
    static_cast<void>(engine.drain());
    ASSERT_EQ(seen.size(), 2u);
    std::sort(seen.begin(), seen.end());
    EXPECT_FALSE(seen[0].second);
    EXPECT_TRUE(seen[1].second);
}

TEST(BatchEngine, InfeasibleJobReportsErrorWithoutPoisoningTheBatch)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 1, model, 41);
    batch_engine engine(batch_options{.jobs = 2});
    engine.submit(corpus[0].graph, model, 1); // below lambda_min
    engine.submit(corpus[0].graph, model, corpus[0].lambda_min);
    const auto outcomes = engine.drain();
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[0].error.empty());
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].error;
    EXPECT_EQ(engine.stats().errors, 1u);
}

// ----------------------------- the serve-facing blocking path: run() --

TEST(BatchEngine, RunMatchesDpallocAndHitsTheCacheOnRepeat)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 2, model, 47);
    batch_engine engine(batch_options{.jobs = 2, .cache_capacity = 16});
    for (const corpus_entry& e : corpus) {
        const dpalloc_result expected = dpalloc(e.graph, model,
                                                e.lambda_min);
        const batch_engine::outcome first =
            engine.run(e.graph, model, e.lambda_min);
        ASSERT_TRUE(first.ok()) << first.error;
        EXPECT_FALSE(first.from_cache);
        expect_identical_path(first.result->path, expected.path, "run");
        const batch_engine::outcome again =
            engine.run(e.graph, model, e.lambda_min);
        ASSERT_TRUE(again.ok());
        EXPECT_TRUE(again.from_cache);
        // The cache hands back the same immutable result object.
        EXPECT_EQ(again.result.get(), first.result.get());
    }
    const engine_stats s = engine.snapshot();
    EXPECT_EQ(s.submitted, 2 * corpus.size());
    EXPECT_EQ(s.cache_hits, corpus.size());
    EXPECT_EQ(s.executed, corpus.size());
    EXPECT_EQ(s.in_flight, 0u);
}

TEST(BatchEngine, LookupAnswersHitsAndCountsNothingOnAMiss)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 1, model, 49);
    const corpus_entry& e = corpus.front();
    batch_engine engine(batch_options{.jobs = 1, .cache_capacity = 16});

    EXPECT_FALSE(engine.lookup(e.graph, model, e.lambda_min).has_value());
    EXPECT_EQ(engine.snapshot().submitted, 0u);

    // The run() after the miss counts the job once, as an execution.
    const batch_engine::outcome first =
        engine.run(e.graph, model, e.lambda_min);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_FALSE(engine.lookup(e.graph, model, e.lambda_min + 1).has_value());

    const std::optional<batch_engine::outcome> hit =
        engine.lookup(e.graph, model, e.lambda_min);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->from_cache);
    EXPECT_FALSE(hit->coalesced);
    EXPECT_EQ(hit->key, first.key);
    EXPECT_EQ(hit->result.get(), first.result.get());

    const engine_stats s = engine.snapshot();
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.cache_hits, 1u);
    EXPECT_EQ(s.executed, 1u);
}

TEST(BatchEngine, RunReportsInfeasibleJobsAsErrors)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 1, model, 51);
    batch_engine engine(batch_options{.jobs = 1});
    const batch_engine::outcome out = engine.run(corpus[0].graph, model, 1);
    EXPECT_FALSE(out.ok());
    EXPECT_FALSE(out.error.empty());
    EXPECT_EQ(engine.snapshot().errors, 1u);
}

TEST(BatchEngine, ConcurrentRunsAreDeterministicAndAccounted)
{
    // The serve topology: many threads calling run() on a shared engine.
    // Every caller must see the identical allocation, and the snapshot
    // counters must balance -- each submit was a hit, a coalesce, or an
    // execution. (A probe racing a just-finishing twin may legitimately
    // execute twice; equal keys give byte-identical results.)
    const sonic_model model;
    const auto corpus = make_corpus(12, 3, model, 53);
    batch_engine engine(batch_options{.jobs = 4, .cache_capacity = 64});
    constexpr int threads_per_job = 4;
    std::vector<std::vector<batch_engine::outcome>> results(
        corpus.size(),
        std::vector<batch_engine::outcome>(threads_per_job));
    {
        std::vector<std::thread> threads;
        for (std::size_t g = 0; g < corpus.size(); ++g) {
            for (int t = 0; t < threads_per_job; ++t) {
                threads.emplace_back([&, g, t] {
                    results[g][t] = engine.run(corpus[g].graph, model,
                                               corpus[g].lambda_min);
                });
            }
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }
    for (std::size_t g = 0; g < corpus.size(); ++g) {
        const dpalloc_result expected =
            dpalloc(corpus[g].graph, model, corpus[g].lambda_min);
        for (int t = 0; t < threads_per_job; ++t) {
            ASSERT_TRUE(results[g][t].ok()) << results[g][t].error;
            expect_identical_path(results[g][t].result->path, expected.path,
                                  "graph " + std::to_string(g));
        }
    }
    const engine_stats s = engine.snapshot();
    EXPECT_EQ(s.submitted,
              corpus.size() * static_cast<std::size_t>(threads_per_job));
    EXPECT_EQ(s.cache_hits + s.coalesced + s.executed, s.submitted);
    EXPECT_GE(s.executed, corpus.size());
    EXPECT_EQ(s.in_flight, 0u);
    EXPECT_EQ(s.errors, 0u);
}

TEST(BatchEngine, RunAndSubmitShareOneCache)
{
    const sonic_model model;
    const auto corpus = make_corpus(9, 2, model, 59);
    batch_engine engine(batch_options{.jobs = 2, .cache_capacity = 16});
    for (const corpus_entry& e : corpus) {
        engine.submit(e.graph, model, e.lambda_min);
    }
    static_cast<void>(engine.drain());
    for (const corpus_entry& e : corpus) {
        const batch_engine::outcome out =
            engine.run(e.graph, model, e.lambda_min);
        ASSERT_TRUE(out.ok());
        EXPECT_TRUE(out.from_cache);
    }
}

TEST(BatchEngine, SnapshotCountsEvictionsOfTheStripedCache)
{
    const sonic_model model;
    const auto corpus = make_corpus(8, 6, model, 61);
    // One stripe of capacity 2: runs 3..6 must evict 1..4.
    batch_engine engine(
        batch_options{.jobs = 1, .cache_capacity = 2, .cache_shards = 1});
    for (const corpus_entry& e : corpus) {
        ASSERT_TRUE(engine.run(e.graph, model, e.lambda_min).ok());
    }
    const engine_stats s = engine.snapshot();
    EXPECT_EQ(s.executed, corpus.size());
    EXPECT_EQ(s.evictions, corpus.size() - 2);
    EXPECT_EQ(s.cache_size, 2u);
    EXPECT_EQ(s.cache_capacity, 2u);
}

TEST(ParallelPareto, ByteIdenticalToSerialSweepAcrossJobCounts)
{
    const sonic_model model;
    for (const std::size_t n : {6u, 10u, 16u}) {
        const auto corpus = make_corpus(n, 4, model, 53);
        for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
            const auto serial = pareto_sweep(corpus[gi].graph, model);
            for (const std::size_t jobs : {1u, 2u, 3u, 8u}) {
                const auto parallel = parallel_pareto_sweep(
                    corpus[gi].graph, model, {}, jobs);
                expect_identical_front(
                    parallel, serial,
                    "n=" + std::to_string(n) + " graph " +
                        std::to_string(gi) + " jobs=" +
                        std::to_string(jobs));
            }
        }
    }
}

TEST(ParallelPareto, MatchesSerialOnShortAndPatienceBoundedRanges)
{
    const sonic_model model;
    const auto corpus = make_corpus(12, 2, model, 59);
    for (const corpus_entry& e : corpus) {
        for (const double max_slack : {0.0, 0.05, 2.0}) {
            for (const int patience : {1, 2, 100}) {
                pareto_options options;
                options.max_slack = max_slack;
                options.patience = patience;
                const auto serial = pareto_sweep(e.graph, model, options);
                const auto parallel =
                    parallel_pareto_sweep(e.graph, model, options, 4);
                expect_identical_front(parallel, serial,
                                       "slack=" + std::to_string(max_slack) +
                                           " patience=" +
                                           std::to_string(patience));
            }
        }
    }
}

TEST(ParallelPareto, EmptyGraphAndInvalidOptionsBehaveLikeSerial)
{
    const sonic_model model;
    sequencing_graph empty;
    EXPECT_TRUE(parallel_pareto_sweep(empty, model, {}, 2).empty());

    const auto corpus = make_corpus(6, 1, model, 61);
    pareto_options bad;
    bad.max_slack = -1.0;
    EXPECT_THROW(static_cast<void>(parallel_pareto_sweep(
                     corpus[0].graph, model, bad, 2)),
                 precondition_error);
    bad = {};
    bad.patience = 0;
    EXPECT_THROW(static_cast<void>(parallel_pareto_sweep(
                     corpus[0].graph, model, bad, 2)),
                 precondition_error);
}

TEST(ParallelPareto, NestedSweepsOnASharedPoolStayIdentical)
{
    // The mwl_batch/bench pattern: per-graph sweep tasks on one pool, each
    // fanning out per-lambda subtasks on the same pool.
    const sonic_model model;
    const auto corpus = make_corpus(10, 6, model, 67);
    thread_pool pool(4);
    std::vector<std::vector<pareto_point>> fronts(corpus.size());
    task_group group(pool);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const sequencing_graph* graph = &corpus[i].graph;
        std::vector<pareto_point>* slot = &fronts[i];
        group.run([&pool, &model, graph, slot] {
            *slot = parallel_pareto_sweep(*graph, model, {}, pool);
        });
    }
    group.wait();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        expect_identical_front(fronts[i],
                               pareto_sweep(corpus[i].graph, model),
                               "nested graph " + std::to_string(i));
    }
}

} // namespace
} // namespace mwl
