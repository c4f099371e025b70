// Test helper for the thread-pool and engine suites: a pool worker held
// busy on purpose, so anything posted meanwhile stays queued and a test
// can see whether some other thread picks it up.

#ifndef MWL_TESTS_PARKED_WORKER_HPP
#define MWL_TESTS_PARKED_WORKER_HPP

#include "support/thread_pool.hpp"

#include <atomic>
#include <future>
#include <thread>

namespace mwl::testing {

/// Occupies a pool's only worker until released, so anything posted
/// meanwhile stays queued. The worker blocks on a future rather than
/// spinning (the test machine may have one core), and the constructor
/// returns only once the worker has picked the blocker up.
class parked_worker {
public:
    explicit parked_worker(thread_pool& pool)
    {
        std::shared_future<void> released = release_.get_future().share();
        blocker_ = pool.submit([this, released] {
            started_.store(true);
            released.wait();
        });
        while (!started_.load()) {
            std::this_thread::yield();
        }
    }

    ~parked_worker() { unpark(); }

    parked_worker(const parked_worker&) = delete;
    parked_worker& operator=(const parked_worker&) = delete;

    void unpark()
    {
        if (blocker_.valid()) {
            release_.set_value();
            blocker_.get();
        }
    }

private:
    std::promise<void> release_;
    std::atomic<bool> started_{false};
    std::future<void> blocker_;
};

} // namespace mwl::testing

#endif // MWL_TESTS_PARKED_WORKER_HPP
