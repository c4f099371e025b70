// Tests for src/support/thread_pool.hpp: futures, task groups, nested
// submits (help-while-waiting), submits from many threads at once,
// exception propagation, deterministic collection order, a stress mix,
// and the caller-runs parallel_for. Run under -fsanitize=thread and
// -fsanitize=address,undefined in CI.

#include "support/thread_pool.hpp"

#include "parked_worker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mwl {
namespace {

using testing::parked_worker;

TEST(ThreadPool, SubmitReturnsValueThroughFuture)
{
    thread_pool pool(2);
    auto f = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SizeDefaultsToAtLeastOne)
{
    thread_pool pool(0);
    EXPECT_GE(pool.size(), 1u);
    thread_pool one(1);
    EXPECT_EQ(one.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllRun)
{
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        std::atomic<int> count{0};
        task_group group(pool);
        for (int i = 0; i < 500; ++i) {
            group.run([&count] { count.fetch_add(1); });
        }
        group.wait();
        EXPECT_EQ(count.load(), 500) << threads << " threads";
    }
}

TEST(ThreadPool, ResultsCollectInSubmissionOrder)
{
    // Tasks write into preallocated slots; the slot index, not execution
    // order, determines where a result lands -- the engine's determinism
    // pattern.
    thread_pool pool(4);
    std::vector<int> slots(200, -1);
    task_group group(pool);
    for (int i = 0; i < 200; ++i) {
        group.run([&slots, i] { slots[static_cast<std::size_t>(i)] = i; });
    }
    group.wait();
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(slots[static_cast<std::size_t>(i)], i);
    }
}

TEST(ThreadPool, NestedSubmitsDoNotDeadlock)
{
    // A task fans out subtasks on the same pool and waits for them.
    // help-while-waiting makes this safe even on a single-thread pool.
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        std::atomic<int> leaves{0};
        task_group outer(pool);
        for (int i = 0; i < 8; ++i) {
            outer.run([&pool, &leaves] {
                task_group inner(pool);
                for (int j = 0; j < 8; ++j) {
                    inner.run([&leaves] { leaves.fetch_add(1); });
                }
                inner.wait();
            });
        }
        outer.wait();
        EXPECT_EQ(leaves.load(), 64) << threads << " threads";
    }
}

TEST(ThreadPool, DeeplyNestedRecursiveFanout)
{
    // Recursive tree sum: every node spawns its children and waits.
    thread_pool pool(3);
    struct tree {
        static int sum(thread_pool& pool, int depth)
        {
            if (depth == 0) {
                return 1;
            }
            std::vector<int> child(2, 0);
            task_group group(pool);
            for (std::size_t c = 0; c < child.size(); ++c) {
                int* slot = &child[c];
                group.run([&pool, depth, slot] {
                    *slot = sum(pool, depth - 1);
                });
            }
            group.wait();
            return 1 + child[0] + child[1];
        }
    };
    EXPECT_EQ(tree::sum(pool, 6), (1 << 7) - 1); // full binary tree
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    thread_pool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    EXPECT_THROW(static_cast<void>(f.get()), std::runtime_error);
}

TEST(ThreadPool, TaskGroupRethrowsAfterAllTasksComplete)
{
    thread_pool pool(2);
    std::atomic<int> completed{0};
    task_group group(pool);
    group.run([] { throw std::runtime_error("first failure"); });
    for (int i = 0; i < 50; ++i) {
        group.run([&completed] { completed.fetch_add(1); });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    // wait() only returns (or throws) once every task has finished.
    EXPECT_EQ(completed.load(), 50);
    EXPECT_EQ(group.pending(), 0u);
}

TEST(ThreadPool, RunOneFromExternalThreadExecutesWork)
{
    thread_pool pool(1);
    parked_worker parked(pool);
    std::atomic<int> ran{0};
    auto f = pool.submit([&ran] { ran.fetch_add(1); });
    // The worker is parked, so the task must still be queued.
    EXPECT_TRUE(pool.run_one());
    EXPECT_EQ(ran.load(), 1);
    parked.unpark();
    f.get();
}

TEST(ThreadPool, SubmitFromManyThreadsRunsEveryTaskOnce)
{
    // mwl_serve's traffic: one reader thread per connection submits its
    // cache misses to the shared pool, all at once.
    thread_pool pool(3);
    constexpr std::size_t producers = 8;
    constexpr std::size_t per_producer = 500;
    std::vector<std::atomic<int>> runs(producers * per_producer);
    std::vector<std::vector<std::future<std::size_t>>> futures(producers);
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&pool, &runs, &futures, p] {
            for (std::size_t t = 0; t < per_producer; ++t) {
                const std::size_t k = p * per_producer + t;
                futures[p].push_back(pool.submit([&runs, k] {
                    runs[k].fetch_add(1);
                    return k;
                }));
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (std::size_t p = 0; p < producers; ++p) {
        for (std::size_t t = 0; t < per_producer; ++t) {
            EXPECT_EQ(futures[p][t].get(), p * per_producer + t);
        }
    }
    for (std::size_t k = 0; k < runs.size(); ++k) {
        EXPECT_EQ(runs[k].load(), 1) << k;
    }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::future<int> f;
    {
        thread_pool pool(1);
        for (int i = 0; i < 32; ++i) {
            static_cast<void>(pool.submit([] { return 0; }));
        }
        f = pool.submit([] { return 99; });
    }
    // The pool drained its queue before joining: the future is fulfilled,
    // not abandoned.
    EXPECT_EQ(f.get(), 99);
}

TEST(ThreadPool, StressMixedNestedWorkAndExceptions)
{
    thread_pool pool(4);
    std::atomic<long> total{0};
    task_group outer(pool);
    for (int i = 0; i < 64; ++i) {
        outer.run([&pool, &total, i] {
            std::vector<long> parts(8, 0);
            task_group inner(pool);
            for (std::size_t j = 0; j < parts.size(); ++j) {
                long* slot = &parts[j];
                const long value = i * 8 + static_cast<long>(j);
                inner.run([slot, value] { *slot = value; });
            }
            inner.wait();
            total.fetch_add(std::accumulate(parts.begin(), parts.end(), 0L));
        });
    }
    outer.wait();
    const long n = 64 * 8;
    EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        for (const std::size_t n : {2u, 3u, 17u, 500u}) {
            std::vector<std::atomic<int>> runs(n);
            parallel_for(pool, n, [&runs](std::size_t i) {
                runs[i].fetch_add(1);
            });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(runs[i].load(), 1)
                    << "index " << i << " of " << n << ", " << threads
                    << " threads";
            }
        }
    }
}

TEST(ParallelFor, PutsIdleWorkersToWork)
{
    // Whichever thread claims index 0 waits until index 1 has started, so
    // the call only completes if a second thread -- a pool helper -- ran
    // concurrently with the first.
    thread_pool pool(2);
    std::atomic<bool> second_started{false};
    std::atomic<bool> overlapped{false};
    parallel_for(pool, 2, [&](std::size_t i) {
        if (i == 1) {
            second_started.store(true);
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!second_started.load() &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        overlapped.store(second_started.load());
    });
    EXPECT_TRUE(overlapped.load());
}

TEST(ParallelFor, RethrowsTheLowestFailingIndexAfterEveryIndexFinished)
{
    thread_pool pool(4);
    constexpr std::size_t n = 32;
    std::atomic<int> finished{0};
    try {
        parallel_for(pool, n, [&finished](std::size_t i) {
            if (i == 5) {
                // Fail last, so the higher failures are recorded first.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::runtime_error(std::to_string(i));
            }
            if (i == 20 || i == 27) {
                throw std::runtime_error(std::to_string(i));
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            finished.fetch_add(1);
        });
        ADD_FAILURE() << "parallel_for swallowed the failures";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "5");
        // Every other index ran to completion before the rethrow.
        EXPECT_EQ(finished.load(), static_cast<int>(n) - 3);
    }
}

TEST(ParallelFor, ZeroOrOneIndexRunsInlineWithoutThePool)
{
    thread_pool pool(1);
    parked_worker parked(pool);
    int calls = 0;
    parallel_for(pool, 0, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::thread::id ran_on;
    parallel_for(pool, 1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ran_on = std::this_thread::get_id();
        ++calls;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    EXPECT_FALSE(pool.run_one()) << "a lone index posted a helper";
}

TEST(ParallelFor, CallerDoesAllTheWorkWhenEveryWorkerIsBusy)
{
    // The only worker is parked, so the helper stays queued and the caller
    // claims every index. The helper runs after the call has returned and
    // its callable is gone, and must not call it.
    thread_pool pool(1);
    parked_worker parked(pool);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> calls{0};
    {
        std::vector<int> slots(8, 0);
        parallel_for(pool, slots.size(), [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            slots[i] = 1;
            calls.fetch_add(1);
        });
        EXPECT_EQ(std::count(slots.begin(), slots.end(), 1), 8);
    }
    EXPECT_TRUE(pool.run_one()) << "expected one late helper in the queue";
    EXPECT_EQ(calls.load(), 8);
    EXPECT_FALSE(pool.run_one());
}

TEST(ParallelFor, CompletesOnOneWorkerFromOutsideAndInsideThePool)
{
    thread_pool pool(1);
    std::vector<std::atomic<int>> outside(16);
    parallel_for(pool, outside.size(), [&outside](std::size_t i) {
        outside[i].fetch_add(1);
    });
    std::vector<std::atomic<int>> inside(16);
    pool.submit([&pool, &inside] {
            parallel_for(pool, inside.size(), [&inside](std::size_t i) {
                inside[i].fetch_add(1);
            });
        })
        .get();
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(outside[i].load(), 1) << i;
        EXPECT_EQ(inside[i].load(), 1) << i;
    }
}

thread_local int task_depth = 0;

TEST(ParallelFor, NestedCallsNeverRunAForeignTaskOnTheCaller)
{
    // More outer tasks than workers, each fanning out: every worker is a
    // busy caller. A caller that ran another queued outer task while it
    // waited would nest it on its stack and raise the depth probe to 2.
    thread_pool pool(4);
    constexpr std::size_t outer = 16;
    constexpr std::size_t inner = 12;
    std::atomic<int> max_depth{0};
    std::vector<std::atomic<int>> runs(outer * inner);
    std::vector<std::future<void>> done;
    for (std::size_t t = 0; t < outer; ++t) {
        done.push_back(pool.submit([&, t] {
            ++task_depth;
            int seen = max_depth.load();
            while (seen < task_depth &&
                   !max_depth.compare_exchange_weak(seen, task_depth)) {
            }
            parallel_for(pool, inner, [&, t](std::size_t i) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                runs[t * inner + i].fetch_add(1);
            });
            --task_depth;
        }));
    }
    for (std::future<void>& f : done) {
        f.get(); // blocks without helping: only workers run tasks
    }
    EXPECT_EQ(max_depth.load(), 1);
    for (std::size_t k = 0; k < runs.size(); ++k) {
        EXPECT_EQ(runs[k].load(), 1) << k;
    }
}

} // namespace
} // namespace mwl
