// Concurrent batch allocation service.
//
// Turns the one-shot `dpalloc` call into a service: allocation jobs --
// (graph, model, lambda, options) tuples -- are submitted from any thread,
// deduplicated by a content fingerprint of their inputs, fanned out across
// a work-stealing thread pool, and collected in submission order. Two
// mechanisms make repeated work free:
//
//  * In-flight coalescing: a job identical to one currently executing
//    attaches to it and shares its result instead of running again.
//  * A bounded LRU result cache keyed on the job fingerprint, surviving
//    across batches for the lifetime of the engine, so a service replaying
//    popular designs (or a sweep revisiting a lambda) answers from memory.
//
// The cache is lock-striped (support/sharded_lru.hpp): lookups take only
// the shard lock their key hashes to, never the engine mutex, so N serve
// connections hitting the cache do not serialise on one lock. Counters
// are atomics, published as an `engine_stats` snapshot that is queryable
// while jobs run -- the serve daemon's stats endpoint reads it live.
//
// Two consumption styles share the dedup/coalesce/cache machinery:
//
//  * Batch: submit() many jobs, drain() them in submission order
//    (mwl_batch, the campaign runner).
//  * Direct: run() one job to completion on the calling thread
//    (mwl_serve's cache misses, mwl_tune's candidates). run() never
//    touches the batch entry list, so concurrent callers do not contend
//    on drain()'s global barrier; it coalesces with in-flight work from
//    either style. lookup() is run()'s first step on its own: a cache
//    probe that never executes, which mwl_serve's reader threads use to
//    answer hits without a pool hop.
//
// Identity is structural: the graph fingerprint covers shapes and edges
// (io/graph_io.hpp), the model contributes hardware_model::fingerprint(),
// and options compare field-wise. Equal keys therefore imply inputs the
// allocator cannot distinguish, which (dpalloc being deterministic and
// pure) implies byte-identical results -- the invariant that makes serving
// a cached datapath indistinguishable from recomputing it. Asserted
// against direct serial dpalloc calls in tests/engine_test.cpp.

#ifndef MWL_ENGINE_BATCH_ENGINE_HPP
#define MWL_ENGINE_BATCH_ENGINE_HPP

#include "core/dpalloc.hpp"
#include "io/graph_io.hpp"
#include "support/sharded_lru.hpp"
#include "support/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mwl {

struct batch_options {
    /// Worker threads for an engine-owned pool; 0 = hardware concurrency.
    std::size_t jobs = 0;
    /// Bound on the LRU result cache (completed jobs retained).
    std::size_t cache_capacity = 1024;
    /// Lock stripes the cache is split across (rounded up to a power of
    /// two). More stripes = less same-shard contention under concurrent
    /// serve traffic; 16 keeps per-shard capacity sane at the default
    /// cache size.
    std::size_t cache_shards = 16;
    /// Debug mode: run the static analyzer (analyze_allocation) over every
    /// freshly executed allocation; findings turn the job into an error
    /// carrying the rendered report. Costs one elaboration per execution
    /// (cache hits and coalesced jobs are not re-checked).
    bool debug_static_check = false;
};

/// Cumulative engine statistics up to `stats()` (kept for the batch
/// tools' end-of-run report; a subset of `engine_stats`).
struct batch_stats {
    std::size_t submitted = 0; ///< jobs accepted by submit() or run()
    std::size_t executed = 0;  ///< dpalloc runs actually performed
    std::size_t cache_hits = 0; ///< served from the LRU at submit time
    std::size_t coalesced = 0;  ///< attached to an identical in-flight job
    std::size_t errors = 0;     ///< executions that threw (e.g. infeasible)
};

/// Structured point-in-time snapshot, safe to read from any thread while
/// jobs run (counters are atomics; no engine lock is taken). The serve
/// daemon's stats endpoint reports this verbatim.
struct engine_stats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0; ///< submitted - cache_hits
    std::uint64_t coalesced = 0;
    std::uint64_t errors = 0;
    std::uint64_t evictions = 0;   ///< results aged out of the LRU
    std::size_t in_flight = 0;     ///< distinct jobs executing right now
    std::size_t cache_size = 0;
    std::size_t cache_capacity = 0;
};

class batch_engine {
public:
    /// Per-job outcome, in submission order. Coalesced and cached jobs
    /// share one immutable result object with the job that computed it.
    struct outcome {
        std::shared_ptr<const dpalloc_result> result; ///< null on error
        std::string error;     ///< what() of the failure, empty on success
        std::uint64_t key = 0; ///< job fingerprint (reported by mwl_batch)
        bool from_cache = false;
        bool coalesced = false;

        [[nodiscard]] bool ok() const { return result != nullptr; }
    };

    /// Engine with its own pool.
    explicit batch_engine(const batch_options& options = {});

    /// Engine sharing an external pool (e.g. with a parallel Pareto sweep);
    /// `pool` must outlive the engine.
    batch_engine(thread_pool& pool, const batch_options& options = {});

    /// Completes all in-flight work (an implicit drain) before returning.
    /// No run() call may still be executing.
    ~batch_engine();

    batch_engine(const batch_engine&) = delete;
    batch_engine& operator=(const batch_engine&) = delete;

    /// Enqueue one allocation job; returns its index into the vector the
    /// next drain() returns. `graph` and `model` are borrowed and must stay
    /// alive until that drain() completes. Thread-safe.
    std::size_t submit(const sequencing_graph& graph,
                       const hardware_model& model, int lambda,
                       const dpalloc_options& options = {});

    /// Answer one job from the result cache without waiting on anything
    /// but the key's shard lock. A hit counts one submission and one cache
    /// hit, exactly as a hit inside run() does; a miss counts nothing, so
    /// a run() of the same job afterwards counts it once. run() and
    /// submit() probe through the same path. Thread-safe.
    [[nodiscard]] std::optional<outcome> lookup(
        const sequencing_graph& graph, const hardware_model& model,
        int lambda, const dpalloc_options& options = {});

    /// Run one job to completion on the calling thread: answer from the
    /// cache (through lookup()'s probe), coalesce onto an identical
    /// in-flight job (helping the pool while waiting, so run() may be
    /// called from a pool task), or execute dpalloc inline. Never touches
    /// the batch entry list -- concurrent run() calls from N serve
    /// connections share only the striped cache and the (brief)
    /// in-flight registration, not drain()'s barrier.
    /// The completion hook does not fire for run() jobs (it is an index
    /// contract over submit()). Thread-safe; `graph`/`model` only need to
    /// live for the duration of the call.
    [[nodiscard]] outcome run(const sequencing_graph& graph,
                              const hardware_model& model, int lambda,
                              const dpalloc_options& options = {});

    /// Wait for every submitted job (helping the pool while blocked, so
    /// drain() may be called from inside a pool task) and return the
    /// outcomes in submission order, starting the next batch. The result
    /// cache persists across batches.
    [[nodiscard]] std::vector<outcome> drain();

    /// Jobs submitted but not yet resolved in the current batch.
    [[nodiscard]] std::size_t pending() const;

    /// Per-job checkpoint hook: invoked exactly once per submitted index
    /// the moment its outcome is known (cache hit at submit, execution,
    /// or coalesced resolution), with the engine lock *not* held, from
    /// whichever thread resolved the job. Every hook call for a batch
    /// completes before that batch's drain() returns, so a caller may
    /// reuse its index-keyed state across batches. The campaign runner
    /// journals completed points from here (src/campaign/). The hook must
    /// not call back into the engine; it must be set while no jobs are in
    /// flight.
    using completion_hook =
        std::function<void(std::size_t index, const outcome&)>;
    void set_completion_hook(completion_hook hook);

    [[nodiscard]] batch_stats stats() const;

    /// Lock-free structured snapshot, valid mid-flight (cache_size and
    /// evictions briefly lock each cache shard in turn).
    [[nodiscard]] engine_stats snapshot() const;

    [[nodiscard]] thread_pool& pool() { return *pool_; }

private:
    struct job_key {
        std::uint64_t graph_fp = 0;
        std::uint64_t model_fp = 0;
        int lambda = 0;
        dpalloc_options options;

        friend bool operator==(const job_key&, const job_key&) = default;
    };
    struct job_key_hash {
        std::size_t operator()(const job_key& key) const;
    };

    /// Rendezvous for run() callers coalescing onto an in-flight job.
    struct sync_slot {
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        std::shared_ptr<const dpalloc_result> result;
        std::string error;
    };

    /// One executing job and everyone waiting on it.
    struct inflight_entry {
        std::vector<std::size_t> indices;  ///< batch waiters (entry index)
        std::shared_ptr<sync_slot> sync;   ///< run() waiters, lazily made
    };

    /// The one cache probe: on a hit, count the submission and the hit
    /// and return the cached outcome; on a miss, count nothing.
    std::optional<outcome> probe(const job_key& key);

    void execute(const job_key& key, const sequencing_graph& graph,
                 const hardware_model& model);
    /// dpalloc + (optionally) the static analyzer; fills exactly one of
    /// `result` / `error`.
    void allocate(const sequencing_graph& graph, const hardware_model& model,
                  int lambda, const dpalloc_options& options,
                  std::shared_ptr<const dpalloc_result>& result,
                  std::string& error) const;
    void resolve(const job_key& key,
                 std::shared_ptr<const dpalloc_result> result,
                 std::string error);
    outcome wait_coalesced(const std::shared_ptr<sync_slot>& slot,
                           std::uint64_t key_hash);

    std::unique_ptr<thread_pool> owned_pool_; ///< null when pool is shared
    thread_pool* pool_;
    bool debug_static_check_ = false;

    mutable std::mutex mutex_;
    std::condition_variable idle_cv_;
    std::vector<outcome> entries_;
    std::unordered_map<job_key, inflight_entry, job_key_hash> inflight_;
    sharded_lru<job_key, std::shared_ptr<const dpalloc_result>, job_key_hash>
        cache_;
    completion_hook hook_; ///< set while idle, read under mutex_

    // Queryable-while-running counters (engine_stats); relaxed ordering is
    // enough, the snapshot is advisory.
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> cache_hits_{0};
    std::atomic<std::uint64_t> coalesced_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::size_t> in_flight_{0};
};

} // namespace mwl

#endif // MWL_ENGINE_BATCH_ENGINE_HPP
