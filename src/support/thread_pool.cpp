#include "support/thread_pool.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace mwl {

namespace {

// Identity of the current thread inside its pool, so a task that spawns
// subtasks pushes them onto its own deque (LIFO locality) instead of
// round-robin.
thread_local thread_pool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;

} // namespace

thread_pool::thread_pool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0) {
            threads = 1;
        }
    }
    queues_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        queues_.push_back(std::make_unique<queue>());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

thread_pool::~thread_pool()
{
    {
        const std::lock_guard<std::mutex> lock(sleep_mutex_);
        stop_ = true;
        ++epoch_;
    }
    sleep_cv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void thread_pool::post(std::function<void()> task)
{
    std::size_t target;
    if (tl_pool == this) {
        target = tl_worker;
    } else {
        const std::lock_guard<std::mutex> lock(sleep_mutex_);
        target = next_queue_;
        next_queue_ = (next_queue_ + 1) % queues_.size();
    }
    {
        const std::lock_guard<std::mutex> lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    {
        const std::lock_guard<std::mutex> lock(sleep_mutex_);
        ++epoch_;
    }
    sleep_cv_.notify_one();
}

bool thread_pool::try_acquire(std::size_t home, std::function<void()>& out)
{
    const std::size_t n = queues_.size();
    // Own deque first, newest task (back); then steal oldest (front) from
    // the others, scanning the ring from the right neighbour.
    if (home < n) {
        queue& own = *queues_[home];
        const std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            out = std::move(own.tasks.back());
            own.tasks.pop_back();
            return true;
        }
    }
    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t victim = (home + i) % n;
        if (victim == home) {
            continue;
        }
        queue& q = *queues_[victim];
        const std::lock_guard<std::mutex> lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.front());
            q.tasks.pop_front();
            return true;
        }
    }
    return false;
}

bool thread_pool::run_one()
{
    const std::size_t home =
        tl_pool == this ? tl_worker : queues_.size(); // externals only steal
    std::function<void()> task;
    if (!try_acquire(home, task)) {
        return false;
    }
    task();
    return true;
}

void thread_pool::worker_loop(std::size_t self)
{
    tl_pool = this;
    tl_worker = self;
    for (;;) {
        // Read the epoch BEFORE scanning the queues: a post that lands
        // during or after an empty scan bumps the epoch past `seen`, so
        // the wait below returns immediately instead of missing the wake.
        std::uint64_t seen;
        {
            const std::lock_guard<std::mutex> lock(sleep_mutex_);
            seen = epoch_;
        }
        std::function<void()> task;
        if (try_acquire(self, task)) {
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        if (stop_) {
            // A racing post may have landed since the empty scan; drain
            // before exiting so no future is broken.
            lock.unlock();
            while (try_acquire(self, task)) {
                task();
            }
            return;
        }
        sleep_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    }
}

void task_group::wait()
{
    using namespace std::chrono_literals;
    for (std::future<void>& future : futures_) {
        while (future.wait_for(0s) != std::future_status::ready) {
            if (!pool_.run_one()) {
                // Nothing left to steal -- our task is running on another
                // worker; poll briefly rather than spin.
                future.wait_for(100us);
            }
        }
    }
    std::exception_ptr first;
    for (std::future<void>& future : futures_) {
        try {
            future.get();
        } catch (...) {
            if (!first) {
                first = std::current_exception();
            }
        }
    }
    futures_.clear();
    if (first) {
        std::rethrow_exception(first);
    }
}

void task_group::wait_nothrow() noexcept
{
    try {
        wait();
    } catch (...) {
        // Destructor path: the exception already surfaced through wait()
        // if the owner called it; an abandoned group only guarantees
        // completion, not delivery.
    }
}

namespace detail {

namespace {

/// One parallel_for call, co-owned by the caller and every helper it
/// posted, so a helper that starts late finds a live cursor. `fn_` lives
/// in the caller's frame; it is called only for a claimed index, and the
/// caller does not return before every claimed index has finished.
class fan_out {
public:
    fan_out(std::size_t n, index_body body, void* fn)
        : n_(n), body_(body), fn_(fn), failed_index_(n)
    {
    }

    /// Claim and run indices until the cursor passes n.
    void work()
    {
        for (std::size_t i = next_.fetch_add(1); i < n_;
             i = next_.fetch_add(1)) {
            std::exception_ptr failure;
            try {
                body_(fn_, i);
            } catch (...) {
                failure = std::current_exception();
            }
            const std::lock_guard<std::mutex> lock(mutex_);
            if (failure && i < failed_index_) {
                failed_index_ = i;
                failure_ = std::move(failure);
            }
            if (++finished_ == n_) {
                done_.notify_all();
            }
        }
    }

    /// Block until every index has finished; rethrow the lowest failure.
    void wait()
    {
        std::exception_ptr failure;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            done_.wait(lock, [this] { return finished_ == n_; });
            // Take the exception out of the shared state: a late helper
            // may free that state while the caller still handles it.
            failure = std::move(failure_);
        }
        if (failure) {
            std::rethrow_exception(failure);
        }
    }

private:
    const std::size_t n_;
    const index_body body_;
    void* const fn_;
    std::atomic<std::size_t> next_{0}; ///< the claim cursor

    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t finished_ = 0;       ///< under mutex_
    std::size_t failed_index_;       ///< under mutex_; n_ = none failed
    std::exception_ptr failure_;     ///< under mutex_
};

} // namespace

void parallel_for(thread_pool& pool, std::size_t n, index_body body, void* fn)
{
    const auto state = std::make_shared<fan_out>(n, body, fn);
    const std::size_t helpers = std::min(n - 1, pool.size());
    for (std::size_t h = 0; h < helpers; ++h) {
        pool.post([state] { state->work(); });
    }
    state->work();
    state->wait();
}

} // namespace detail

} // namespace mwl
