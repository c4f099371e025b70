// Concurrent batch allocation service.
//
// Turns the one-shot `dpalloc` call into a service: allocation jobs --
// (graph, model, lambda, options) tuples -- are run from any thread and
// deduplicated by a content fingerprint of their inputs. Two mechanisms
// make repeated work free:
//
//  * In-flight coalescing: a job identical to one currently executing
//    attaches to it and shares its result instead of running again.
//  * A bounded LRU result cache keyed on the job fingerprint, surviving
//    for the lifetime of the engine, so a service replaying popular
//    designs (or a sweep revisiting a lambda) answers from memory.
//
// The cache is lock-striped (support/sharded_lru.hpp): lookups take only
// the shard lock their key hashes to, never the engine mutex, so N serve
// connections hitting the cache do not serialise on one lock. Counters
// are atomics, published as an `engine_stats` snapshot that is queryable
// while jobs run -- the serve daemon's stats endpoint reads it live.
//
// There is one way to consume it: run() one job to completion on the
// calling thread. Fan-outs (mwl_batch, the campaign runner, mwl_tune's
// candidate pricing, the Pareto sweep in engine/pareto_sweep.hpp) call
// run() from `parallel_for` indices over the engine's pool(); mwl_serve
// calls it from its request tasks. lookup() is run()'s first step on its
// own: a cache probe that never executes, which mwl_serve's reader
// threads use to answer hits without a pool hop.
// Because run() executes a job on the thread that registered it, every
// in-flight job is being computed by a running thread, so a coalescing
// caller simply blocks until it is done and never runs other pool work.
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
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

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
};

/// Structured point-in-time snapshot, safe to read from any thread while
/// jobs run (counters are atomics; no engine lock is taken). The serve
/// daemon's stats endpoint reports this verbatim, and the batch tools
/// print their end-of-run engine line from it.
struct engine_stats {
    std::uint64_t submitted = 0;   ///< run() calls plus lookup() hits
    std::uint64_t executed = 0;    ///< dpalloc runs actually performed
    std::uint64_t cache_hits = 0;  ///< served from the LRU
    std::uint64_t cache_misses = 0; ///< submitted - cache_hits
    std::uint64_t coalesced = 0;   ///< attached to an identical in-flight job
    std::uint64_t errors = 0;      ///< executions that threw (e.g. infeasible)
    std::uint64_t evictions = 0;   ///< results aged out of the LRU
    std::size_t in_flight = 0;     ///< distinct jobs executing right now
    std::size_t cache_size = 0;
    std::size_t cache_capacity = 0;
};

class batch_engine {
public:
    /// One job's outcome. Coalesced and cached jobs share one immutable
    /// result object with the job that computed it.
    struct outcome {
        std::shared_ptr<const dpalloc_result> result; ///< null on error
        std::string error;     ///< what() of the failure, empty on success
        bool from_cache = false;
        bool coalesced = false;

        [[nodiscard]] bool ok() const { return result != nullptr; }
    };

    /// Engine with its own pool.
    explicit batch_engine(const batch_options& options = {});

    /// Engine sharing an external pool (e.g. with the caller's own
    /// fan-out, as mwl_batch does); `pool` must outlive the engine.
    batch_engine(thread_pool& pool, const batch_options& options = {});

    batch_engine(const batch_engine&) = delete;
    batch_engine& operator=(const batch_engine&) = delete;

    /// Answer one job from the result cache without waiting on anything
    /// but the key's shard lock. A hit counts one submission and one cache
    /// hit, exactly as a hit inside run() does; a miss counts nothing, so
    /// a run() of the same job afterwards counts it once. run() probes
    /// through the same path. Thread-safe.
    [[nodiscard]] std::optional<outcome> lookup(
        const sequencing_graph& graph, const hardware_model& model,
        int lambda, const dpalloc_options& options = {});

    /// Run one job to completion on the calling thread: answer from the
    /// cache (through lookup()'s probe), coalesce onto an identical
    /// in-flight job (blocking until the thread computing it is done), or
    /// execute dpalloc inline. A job executes once while its result stays
    /// cached: a caller whose first probe raced an identical job's finish
    /// finds its result on a second probe. Concurrent callers
    /// share only the striped cache and the brief in-flight registration.
    /// Thread-safe, and safe to call from a pool task; `graph`/`model`
    /// only need to live for the duration of the call, and the engine
    /// must not be destroyed while a call is running.
    [[nodiscard]] outcome run(const sequencing_graph& graph,
                              const hardware_model& model, int lambda,
                              const dpalloc_options& options = {});

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

    /// The one cache probe: on a hit, count the submission and the hit
    /// and return the cached outcome; on a miss, count nothing.
    std::optional<outcome> probe(const job_key& key);

    /// Publish an executed job: count it, cache a result, retire the key
    /// from inflight_ and wake its coalesced waiters.
    void resolve(const job_key& key, const outcome& out);

    std::unique_ptr<thread_pool> owned_pool_; ///< null when pool is shared
    thread_pool* pool_;

    std::mutex mutex_; ///< guards inflight_
    /// Executing jobs, each with the slot its coalesced waiters block on
    /// (made by the first of them; null while nobody waits).
    std::unordered_map<job_key, std::shared_ptr<sync_slot>, job_key_hash>
        inflight_;
    sharded_lru<job_key, std::shared_ptr<const dpalloc_result>, job_key_hash>
        cache_;

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
