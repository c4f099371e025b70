#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

namespace mwl {

thread_pool::thread_pool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

thread_pool::~thread_pool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void thread_pool::post(std::function<void()> task)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    wake_.notify_one();
}

bool thread_pool::run_one()
{
    std::function<void()> task;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty()) {
            return false;
        }
        task = std::move(tasks_.front());
        tasks_.pop_front();
    }
    task();
    return true;
}

void thread_pool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            // Exit only once stopped AND drained, so every future is
            // fulfilled; a task that posts while the pool stops keeps its
            // own worker alive to run what it posted.
            if (tasks_.empty()) {
                return;
            }
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

void task_group::wait()
{
    using namespace std::chrono_literals;
    for (std::future<void>& future : futures_) {
        while (future.wait_for(0s) != std::future_status::ready) {
            if (!pool_.run_one()) {
                // Queue empty -- our task is running on another worker;
                // poll briefly rather than spin.
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
