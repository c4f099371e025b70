#include "engine/batch_engine.hpp"

#include "support/error.hpp"
#include "support/hash.hpp"

namespace mwl {

std::size_t batch_engine::job_key_hash::operator()(const job_key& key) const
{
    fnv1a_hasher h;
    h.mix(static_cast<std::int64_t>(key.graph_fp));
    h.mix(static_cast<std::int64_t>(key.model_fp));
    h.mix(static_cast<std::int64_t>(key.lambda));
    h.mix(static_cast<std::int64_t>(key.options.enable_growth));
    h.mix(static_cast<std::int64_t>(key.options.reassign_cheapest));
    h.mix(static_cast<std::int64_t>(key.options.classic_constraint));
    h.mix(static_cast<std::int64_t>(key.options.initial_capacity));
    h.mix(static_cast<std::int64_t>(key.options.max_iterations));
    return h.digest();
}

batch_engine::batch_engine(const batch_options& options)
    : owned_pool_(std::make_unique<thread_pool>(options.jobs)),
      pool_(owned_pool_.get()),
      cache_(options.cache_capacity, options.cache_shards)
{
}

batch_engine::batch_engine(thread_pool& pool, const batch_options& options)
    : pool_(&pool), cache_(options.cache_capacity, options.cache_shards)
{
}

std::optional<batch_engine::outcome> batch_engine::probe(const job_key& key)
{
    std::optional<std::shared_ptr<const dpalloc_result>> cached =
        cache_.get(key);
    if (!cached) {
        return std::nullopt;
    }
    // Submitted before hits: snapshot() reads them in the other order.
    submitted_.fetch_add(1, std::memory_order_relaxed);
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    outcome out;
    out.result = std::move(*cached);
    out.from_cache = true;
    return out;
}

std::optional<batch_engine::outcome> batch_engine::lookup(
    const sequencing_graph& graph, const hardware_model& model, int lambda,
    const dpalloc_options& options)
{
    return probe(job_key{graph_fingerprint(graph), model.fingerprint(),
                         lambda, options});
}

batch_engine::outcome batch_engine::run(const sequencing_graph& graph,
                                        const hardware_model& model,
                                        int lambda,
                                        const dpalloc_options& options)
{
    const job_key key{graph_fingerprint(graph), model.fingerprint(), lambda,
                      options};
    if (std::optional<outcome> hit = probe(key)) {
        return std::move(*hit);
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);

    std::unique_lock<std::mutex> lock(mutex_);
    // The identical job may have finished since the probe above. resolve()
    // caches a result and retires its key under this mutex, so under it a
    // job is cached, in flight or neither, and probing again here keeps
    // it from executing twice (identical sweeps side by side hit this).
    if (std::optional<std::shared_ptr<const dpalloc_result>> cached =
            cache_.get(key)) {
        lock.unlock();
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        return outcome{
            .result = std::move(*cached), .error = {}, .from_cache = true};
    }
    const auto [it, fresh] = inflight_.try_emplace(key);
    if (!fresh) {
        // The identical job is executing on the thread that registered
        // it, so it finishes without help: block on its slot.
        if (!it->second) {
            it->second = std::make_shared<sync_slot>();
        }
        const std::shared_ptr<sync_slot> slot = it->second;
        lock.unlock();
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> wait(slot->mutex);
        slot->cv.wait(wait, [&] { return slot->done; });
        outcome out;
        out.result = slot->result;
        out.error = slot->error;
        out.coalesced = true;
        return out;
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();

    // Execute on the calling thread: the concurrency is the callers' --
    // fan-out indices, serve request tasks -- so the work happens there.
    outcome out;
    try {
        out.result = std::make_shared<const dpalloc_result>(
            dpalloc(graph, model, lambda, options));
    } catch (const std::exception& e) {
        out.error = e.what();
        if (out.error.empty()) {
            out.error = "allocation failed";
        }
    }
    resolve(key, out);
    return out;
}

void batch_engine::resolve(const job_key& key, const outcome& out)
{
    std::shared_ptr<sync_slot> sync;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = inflight_.find(key);
        MWL_ASSERT(it != inflight_.end());
        executed_.fetch_add(1, std::memory_order_relaxed);
        if (out.ok()) {
            // Insert before erasing the in-flight entry, so a concurrent
            // run() always sees the key in at least one place. Errors are
            // not cached: they are cheap to rediscover and a bounded cache
            // slot is better spent on a datapath.
            cache_.put(key, out.result);
        } else {
            errors_.fetch_add(1, std::memory_order_relaxed);
        }
        sync = std::move(it->second);
        inflight_.erase(it);
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (sync) {
        // The slot is jointly owned with its waiters, so waking them after
        // the engine bookkeeping is released is lifetime-safe.
        const std::lock_guard<std::mutex> lock(sync->mutex);
        sync->result = out.result;
        sync->error = out.error;
        sync->done = true;
        sync->cv.notify_all();
    }
}

engine_stats batch_engine::snapshot() const
{
    engine_stats snap;
    // Hits before submitted: every hit follows its submit, so this read
    // order keeps submitted >= hits even mid-flight.
    snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    snap.submitted = submitted_.load(std::memory_order_relaxed);
    snap.executed = executed_.load(std::memory_order_relaxed);
    snap.cache_misses = snap.submitted - snap.cache_hits;
    snap.coalesced = coalesced_.load(std::memory_order_relaxed);
    snap.errors = errors_.load(std::memory_order_relaxed);
    snap.evictions = cache_.evictions();
    snap.in_flight = in_flight_.load(std::memory_order_relaxed);
    snap.cache_size = cache_.size();
    snap.cache_capacity = cache_.capacity();
    return snap;
}

} // namespace mwl
