// Thread pool: a fixed set of workers serving one FIFO task queue.
//
// The execution substrate of the batch engine (src/engine/), mwl_serve's
// cache misses and every fan-out in src/ and tools/. `post` appends a
// task and wakes one idle worker; workers and `run_one` take the oldest.
// One queue under one mutex is enough because no caller depends on where
// a task lands or in which order queued tasks start: a `parallel_for`
// posts interchangeable helpers that each claim the next index from a
// shared cursor, and `submit` posts independent one-shot tasks. A helper
// claims its indices from an atomic cursor, so the queue's lock is taken
// once per helper, not once per index.
//
// Every fan-out in src/ and tools/ is one `parallel_for`: caller-runs. The
// caller works through the indices itself, idle workers join in, and the
// caller then waits only for indices a helper already started. It never
// runs a foreign pool task while it waits, so a fan-out may run inside
// another fan-out's index on the same pool (a sweep per manifest entry, a
// candidate pricing per campaign point) on any pool size, including 1,
// without nesting unrelated work on its stack. Results are deterministic
// because each index writes only its own caller-preallocated slot, never
// a shared accumulator; a failing index's exception reaches the caller.
//
// `submit` returns a future for one task (mwl_serve's request tasks).
// `task_group` and `run_one` are the older helping wait: `task_group::wait`
// runs any queued pool task while it blocks, so a waiter can start
// unrelated work nested on its stack. Nothing in src/ or tools/ uses them
// any more; they remain for perfbench's tune_sweep and the tests.
#ifndef MWL_SUPPORT_THREAD_POOL_HPP
#define MWL_SUPPORT_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mwl {

class thread_pool;

namespace detail {
/// `parallel_for`'s type-erased body: calls the caller's callable `fn`
/// with one index.
using index_body = void (*)(void* fn, std::size_t index);
void parallel_for(thread_pool& pool, std::size_t n, index_body body,
                  void* fn);
} // namespace detail

class thread_pool {
public:
    /// Start `threads` workers; 0 picks the hardware concurrency (>= 1).
    explicit thread_pool(std::size_t threads = 0);

    /// Drains every queued task (fulfilling all futures), then joins.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// Schedule `f()`; the returned future carries its value or exception.
    template <typename F>
    auto submit(F f) -> std::future<std::invoke_result_t<F&>>
    {
        using R = std::invoke_result_t<F&>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
        std::future<R> future = task->get_future();
        post([task] { (*task)(); });
        return future;
    }

    /// Execute the oldest pending task on the calling thread. Returns false
    /// when the queue is empty (tasks may still be *running* on workers).
    /// The building block of helping waits.
    bool run_one();

private:
    friend void detail::parallel_for(thread_pool&, std::size_t,
                                     detail::index_body, void*);

    void post(std::function<void()> task);
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable wake_;             ///< an idle worker's wait
    std::deque<std::function<void()>> tasks_;  ///< FIFO, under mutex_
    bool stop_ = false;                        ///< under mutex_
    std::vector<std::thread> workers_;
};

/// A set of related tasks on one pool, awaited together.
class task_group {
public:
    explicit task_group(thread_pool& pool) : pool_(pool) {}

    /// `task_group` must be waited before destruction (wait() clears it).
    ~task_group() { wait_nothrow(); }

    task_group(const task_group&) = delete;
    task_group& operator=(const task_group&) = delete;

    /// Schedule `f()` (must return void) as part of this group.
    template <typename F>
    void run(F f)
    {
        static_assert(std::is_void_v<std::invoke_result_t<F&>>,
                      "group tasks return their results through "
                      "caller-preallocated slots, not return values");
        futures_.push_back(pool_.submit(std::move(f)));
    }

    /// Block until every task in the group has finished, executing pending
    /// pool tasks while waiting. Rethrows the first exception thrown by a
    /// task (in `run` order); the remaining exceptions are discarded, but
    /// every task is complete when this returns.
    void wait();

    [[nodiscard]] std::size_t pending() const { return futures_.size(); }

private:
    void wait_nothrow() noexcept;

    thread_pool& pool_;
    std::vector<std::future<void>> futures_;
};

/// Run `fn(i)` exactly once for every i in [0, n). The calling thread and
/// up to min(n - 1, pool.size()) pool helpers claim indices from one
/// shared cursor, so the caller does all the work itself when every
/// worker is busy, and the call completes on any pool size. n <= 1 runs
/// inline and never touches the pool.
///
/// Returns once every index has finished; the caller blocks only on
/// indices a helper has claimed, and never runs a foreign pool task. A
/// helper that starts after the last index was claimed returns without
/// touching `fn`. If indices throw, the exception of the lowest failing
/// index is rethrown -- the one a serial loop would have thrown first.
/// `fn` is called concurrently from several threads; each index should
/// write only its own preallocated slot.
template <typename F>
void parallel_for(thread_pool& pool, std::size_t n, F&& fn)
{
    if (n == 0) {
        return;
    }
    if (n == 1) {
        fn(std::size_t{0});
        return;
    }
    using callable = std::remove_reference_t<F>;
    detail::parallel_for(
        pool, n,
        [](void* target, std::size_t index) {
            (*static_cast<callable*>(target))(index);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

} // namespace mwl

#endif // MWL_SUPPORT_THREAD_POOL_HPP
