// Determinism suite for src/engine/: the batch engine and the Pareto
// sweep must be byte-identical to serial dpalloc and the serial reference
// sweep (tests/oracle) on the tgff corpus at every pool size, and the
// caching/dedup layers must be output-invisible. Fan-outs take mwl_batch's
// shape: engine.run() and sweeps under parallel_for. Run under
// -fsanitize=thread in CI.

#include "engine/batch_engine.hpp"
#include "engine/pareto_sweep.hpp"
#include "io/graph_io.hpp"
#include "oracle/pareto_serial.hpp"
#include "support/error.hpp"
#include "tgff/corpus.hpp"

#include "parked_worker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
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

struct job {
    const sequencing_graph* graph = nullptr;
    int lambda = 0;
};

/// Run `jobs[i]` through `engine.run()` for every i, as one parallel_for
/// over the engine's pool -- the fan-out shape of mwl_batch and the
/// campaign runner.
std::vector<batch_engine::outcome> run_all(batch_engine& engine,
                                           const hardware_model& model,
                                           const std::vector<job>& jobs)
{
    std::vector<batch_engine::outcome> outcomes(jobs.size());
    parallel_for(engine.pool(), jobs.size(), [&](std::size_t i) {
        outcomes[i] = engine.run(*jobs[i].graph, model, jobs[i].lambda);
    });
    return outcomes;
}

TEST(BatchEngine, MatchesSerialDpallocOnTgffCorpus)
{
    const sonic_model model;
    std::vector<corpus_entry> corpus;
    for (const std::size_t n : {6u, 10u, 14u}) {
        for (corpus_entry& e : make_corpus(n, 3, model, 97)) {
            corpus.push_back(std::move(e));
        }
    }
    std::vector<job> jobs;
    for (const corpus_entry& e : corpus) {
        for (const double slack : {0.0, 0.2}) {
            jobs.push_back({&e.graph, relaxed_lambda(e.lambda_min, slack)});
        }
    }
    for (const std::size_t pool_size : {1u, 2u, 4u, 8u}) {
        batch_engine engine(batch_options{.jobs = pool_size});
        const auto outcomes = run_all(engine, model, jobs);
        ASSERT_EQ(outcomes.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
            const dpalloc_result serial =
                dpalloc(*jobs[i].graph, model, jobs[i].lambda);
            expect_identical_path(outcomes[i].result->path, serial.path,
                                  "jobs=" + std::to_string(pool_size) +
                                      " job " + std::to_string(i));
        }
    }
}

TEST(BatchEngine, CoalescesIdenticalInflightJobs)
{
    const sonic_model model;
    const auto corpus = make_corpus(12, 1, model, 11);
    batch_engine engine(batch_options{.jobs = 2});
    const std::vector<job> jobs(6, job{&corpus[0].graph,
                                       corpus[0].lambda_min});
    const auto outcomes = run_all(engine, model, jobs);
    const engine_stats stats = engine.snapshot();
    EXPECT_EQ(stats.submitted, 6u);
    // At least one execution; every duplicate was coalesced, served from
    // cache, or (losing the probe race to a just-finishing twin)
    // recomputed -- and every one is accounted for exactly once.
    EXPECT_GE(stats.executed, 1u);
    EXPECT_EQ(stats.executed + stats.coalesced + stats.cache_hits, 6u);
    EXPECT_EQ(stats.in_flight, 0u);
    for (const auto& out : outcomes) {
        ASSERT_TRUE(out.ok());
        expect_identical_path(out.result->path, outcomes[0].result->path,
                              "duplicate");
    }
}

TEST(BatchEngine, CacheServesRepeatsAcrossPasses)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 2, model, 23);
    batch_engine engine(batch_options{.jobs = 2, .cache_capacity = 16});
    std::vector<job> jobs;
    for (const corpus_entry& e : corpus) {
        jobs.push_back({&e.graph, e.lambda_min});
    }
    const auto first = run_all(engine, model, jobs);
    const auto second = run_all(engine, model, jobs);
    const engine_stats stats = engine.snapshot();
    EXPECT_EQ(stats.cache_hits, corpus.size());
    EXPECT_EQ(stats.executed, corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        ASSERT_TRUE(second[i].ok());
        EXPECT_TRUE(second[i].from_cache);
        // The cache hands back the same immutable result object.
        EXPECT_EQ(second[i].result.get(), first[i].result.get());
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
    const auto run_one_pass = [&](const corpus_entry& e) {
        return run_all(engine, model, {job{&e.graph, e.lambda_min}});
    };
    run_one_pass(corpus[0]);
    run_one_pass(corpus[1]);
    run_one_pass(corpus[2]); // evicts corpus[0]
    const auto again = run_one_pass(corpus[0]);
    EXPECT_FALSE(again[0].from_cache);
    EXPECT_EQ(engine.snapshot().executed, 4u);
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
    static_cast<void>(run_all(engine, model, {job{&a, 10}}));
    const auto outcomes = run_all(engine, model, {job{&b, 10}});
    EXPECT_TRUE(outcomes[0].from_cache);
    EXPECT_EQ(engine.snapshot().executed, 1u);
}

TEST(BatchEngine, InfeasibleJobReportsErrorWithoutPoisoningThePass)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 1, model, 41);
    batch_engine engine(batch_options{.jobs = 2});
    const auto outcomes = run_all(
        engine, model,
        {job{&corpus[0].graph, 1}, // below lambda_min
         job{&corpus[0].graph, corpus[0].lambda_min}});
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[0].error.empty());
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].error;
    EXPECT_EQ(engine.snapshot().errors, 1u);
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
    // execution -- and each job executes once: a caller whose probe
    // missed a twin that finished before it registered finds the twin's
    // result when it probes again under the in-flight lock.
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
    EXPECT_EQ(s.executed, corpus.size());
    EXPECT_EQ(s.in_flight, 0u);
    EXPECT_EQ(s.errors, 0u);
}

TEST(BatchEngine, CoalescedWaiterNeverRunsAForeignPoolTask)
{
    // run() executes a job on the thread that registered it, so a caller
    // coalescing onto it only has to block until that thread is done. It
    // must not run queued pool work meanwhile: in a campaign that work can
    // be another point's whole search, nested on the waiter's stack.
    const sonic_model model;
    const auto corpus = make_corpus(160, 1, model, 71);
    const corpus_entry& e = corpus.front();
    thread_pool pool(1);
    batch_engine engine(pool);
    testing::parked_worker parked(pool);
    std::atomic<bool> marker_ran{false};
    std::future<void> marker =
        pool.submit([&marker_ran] { marker_ran.store(true); });

    batch_engine::outcome first;
    batch_engine::outcome second;
    std::thread owner(
        [&] { first = engine.run(e.graph, model, e.lambda_min); });
    while (engine.snapshot().in_flight == 0 &&
           engine.snapshot().executed == 0) {
        std::this_thread::yield();
    }
    std::thread waiter(
        [&] { second = engine.run(e.graph, model, e.lambda_min); });
    waiter.join();
    owner.join();
    EXPECT_FALSE(marker_ran.load())
        << "a coalesced run() ran a queued pool task while it waited";
    ASSERT_TRUE(first.ok()) << first.error;
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_TRUE(second.coalesced)
        << "the job finished before the second caller arrived";
    EXPECT_EQ(second.result.get(), first.result.get());
    EXPECT_EQ(engine.snapshot().executed, 1u);

    parked.unpark();
    marker.get();
    EXPECT_TRUE(marker_ran.load());
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

// ---- pareto_sweep against the serial reference sweep (tests/oracle) ----

TEST(ParetoSweep, ByteIdenticalToSerialSweepAcrossPoolSizes)
{
    const sonic_model model;
    for (const std::size_t n : {6u, 10u, 16u}) {
        const auto corpus = make_corpus(n, 4, model, 53);
        for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
            const auto serial =
                oracle::pareto_sweep_serial(corpus[gi].graph, model);
            for (const std::size_t jobs : {1u, 2u, 3u, 8u}) {
                batch_engine engine(batch_options{.jobs = jobs});
                expect_identical_front(
                    pareto_sweep(corpus[gi].graph, model, {}, engine), serial,
                    "n=" + std::to_string(n) + " graph " +
                        std::to_string(gi) + " pool=" + std::to_string(jobs));
            }
        }
    }
}

TEST(ParetoSweep, MatchesSerialOnShortAndPatienceBoundedRanges)
{
    const sonic_model model;
    const auto corpus = make_corpus(12, 2, model, 59);
    // One engine per pool size for the whole test: later sweeps read the
    // lambdas earlier ones cached, which must not show in any frontier.
    const std::vector<std::size_t> pools{1, 2, 3, 8};
    std::vector<std::unique_ptr<batch_engine>> engines;
    for (const std::size_t jobs : pools) {
        engines.push_back(
            std::make_unique<batch_engine>(batch_options{.jobs = jobs}));
    }
    for (const corpus_entry& e : corpus) {
        for (const double max_slack : {0.0, 0.05, 2.0}) {
            for (const int patience : {1, 2, 100}) {
                pareto_options options;
                options.max_slack = max_slack;
                options.patience = patience;
                const auto serial =
                    oracle::pareto_sweep_serial(e.graph, model, options);
                for (std::size_t k = 0; k < pools.size(); ++k) {
                    expect_identical_front(
                        pareto_sweep(e.graph, model, options, *engines[k]),
                        serial,
                        "slack=" + std::to_string(max_slack) +
                            " patience=" + std::to_string(patience) +
                            " pool=" + std::to_string(pools[k]));
                }
            }
        }
    }
}

TEST(ParetoSweep, EmptyGraphAndInvalidOptionsBehaveLikeSerial)
{
    const sonic_model model;
    batch_engine engine(batch_options{.jobs = 2});
    sequencing_graph empty;
    EXPECT_TRUE(pareto_sweep(empty, model, {}, engine).empty());

    const auto corpus = make_corpus(6, 1, model, 61);
    pareto_options bad;
    bad.max_slack = -1.0;
    EXPECT_THROW(
        static_cast<void>(pareto_sweep(corpus[0].graph, model, bad, engine)),
        precondition_error);
    bad = {};
    bad.patience = 0;
    EXPECT_THROW(
        static_cast<void>(pareto_sweep(corpus[0].graph, model, bad, engine)),
        precondition_error);
}

TEST(ParetoSweep, RangePastIntMaxThrowsPreconditionError)
{
    // The range comes from relaxed_lambda, which refuses a bound past
    // INT_MAX instead of casting it (undefined behaviour), and nothing
    // runs before it does.
    const sonic_model model;
    const auto corpus = make_corpus(4, 1, model, 61);
    batch_engine engine(batch_options{.jobs = 2});
    pareto_options huge;
    huge.max_slack = 1e10;
    EXPECT_THROW(
        static_cast<void>(pareto_sweep(corpus[0].graph, model, huge, engine)),
        precondition_error);
    EXPECT_EQ(engine.snapshot().submitted, 0u);
}

TEST(ParetoSweep, RepeatedSweepOnOneEngineExecutesNothing)
{
    // Every lambda is an engine job, and the lambdas a sweep prices do not
    // depend on timing, so repeating the sweeps is all cache hits.
    const sonic_model model;
    const auto corpus = make_corpus(10, 4, model, 73);
    batch_engine engine(batch_options{.jobs = 3});
    std::vector<std::vector<pareto_point>> fronts;
    for (const corpus_entry& e : corpus) {
        fronts.push_back(pareto_sweep(e.graph, model, {}, engine));
    }
    const engine_stats before = engine.snapshot();
    EXPECT_GT(before.executed, 0u);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        expect_identical_front(
            pareto_sweep(corpus[i].graph, model, {}, engine), fronts[i],
            "graph " + std::to_string(i));
    }
    const engine_stats after = engine.snapshot();
    EXPECT_EQ(after.executed, before.executed);
    EXPECT_EQ(after.cache_hits - before.cache_hits,
              after.submitted - before.submitted);
}

TEST(ParetoSweep, AllocAtAVisitedLambdaIsACacheHit)
{
    const sonic_model model;
    const auto corpus = make_corpus(10, 1, model, 79);
    const corpus_entry& e = corpus.front();
    batch_engine engine(batch_options{.jobs = 2});
    const auto front = pareto_sweep(e.graph, model, {}, engine);
    ASSERT_FALSE(front.empty());
    const std::uint64_t executed = engine.snapshot().executed;
    for (const pareto_point& p : front) {
        const batch_engine::outcome out = engine.run(e.graph, model, p.lambda);
        ASSERT_TRUE(out.ok()) << out.error;
        EXPECT_TRUE(out.from_cache) << "lambda " << p.lambda;
        expect_identical_path(out.result->path, p.path,
                              "lambda " + std::to_string(p.lambda));
    }
    EXPECT_EQ(engine.snapshot().executed, executed);
}

/// sonic_model's latencies with no area for any shape: min_latency works,
/// and every allocation fails inside dpalloc.
class no_area_model final : public hardware_model {
public:
    [[nodiscard]] int latency(const op_shape& shape) const override
    {
        return sonic_.latency(shape);
    }
    [[nodiscard]] double area(const op_shape&) const override
    {
        throw error("no area in this model");
    }

private:
    sonic_model sonic_;
};

TEST(ParetoSweep, AFailedLambdaThrowsTheEnginesMessage)
{
    const auto corpus = make_corpus(6, 1, sonic_model{}, 61);
    const no_area_model model;
    batch_engine engine(batch_options{.jobs = 2});
    try {
        static_cast<void>(pareto_sweep(corpus[0].graph, model, {}, engine));
        ADD_FAILURE() << "the sweep did not throw";
    } catch (const error& e) {
        EXPECT_STREQ(e.what(), "no area in this model");
    }
    EXPECT_GT(engine.snapshot().errors, 0u);
}

/// Sweeps running on this thread right now (NestedSweeps... below).
thread_local int sweep_depth = 0;

TEST(ParetoSweep, NestedSweepsOnASharedPoolStayIdentical)
{
    // mwl_batch's shape: one parallel_for index per graph, each sweep
    // fanning its lambdas out on the same pool. A thread waiting on its
    // own sweep's lambdas must never start another graph's sweep on its
    // stack, so a depth probe around each sweep stays at 1. Parking one of
    // two workers keeps an outer helper queued while the sweeps wait --
    // exactly the task a waiter that runs queued work would pick up.
    const sonic_model model;
    const auto corpus = make_corpus(10, 8, model, 67);
    for (const bool park : {false, true}) {
        thread_pool pool(park ? 2 : 4);
        batch_engine engine(pool);
        std::optional<testing::parked_worker> parked;
        if (park) {
            parked.emplace(pool);
        }
        std::vector<std::vector<pareto_point>> fronts(corpus.size());
        std::atomic<int> deepest{0};
        parallel_for(pool, corpus.size(), [&](std::size_t i) {
            const int depth = ++sweep_depth;
            int seen = deepest.load();
            while (depth > seen &&
                   !deepest.compare_exchange_weak(seen, depth)) {
            }
            fronts[i] = pareto_sweep(corpus[i].graph, model, {}, engine);
            --sweep_depth;
        });
        parked.reset();
        const std::string label = park ? "parked " : "free ";
        EXPECT_EQ(deepest.load(), 1) << label << "sweeps nested";
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            expect_identical_front(
                fronts[i], oracle::pareto_sweep_serial(corpus[i].graph, model),
                label + "graph " + std::to_string(i));
        }
    }
}

} // namespace
} // namespace mwl
