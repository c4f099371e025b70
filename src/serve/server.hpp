// Allocation-as-a-service daemon core (the library behind tools/mwl_serve).
//
// A `server` owns listeners (unix and/or TCP), a batch engine with a
// lock-striped result cache, and one reader thread per connection.
// The reader thread parses each alloc request's header and `.mwl` body,
// derives lambda (given, or relaxed from min_latency by the slack) and
// probes the result cache itself. It answers on the spot:
//
//   * a cache hit (`cached=1`, `micros` = the probe's time), with no pool
//     hop -- DPAlloc is deterministic, so a repeated (graph, lambda) is
//     served straight from the cache;
//   * a body that does not parse, or a lambda it cannot derive
//     (`error`), and an empty graph (`ok`).
//
// Only a miss is admitted against two bounds and executed as a task on
// the engine's work-stealing pool, carrying the already-parsed graph.
// Responses are written back frame-at-a-time under a per-connection
// lock, so frames never tear even when many jobs for one client finish
// at once. A hit can therefore overtake an earlier miss on the same
// connection; responses echo the request id, so clients match by id.
//
// Admission control / backpressure: a miss is rejected with
// `busy retry-after-ms=R` (nothing queued, reader keeps reading) when
// either bound would be exceeded --
//
//   * per-connection: more than `queue_depth` of this client's jobs
//     admitted but unanswered (a greedy client cannot monopolise the
//     pool), or
//   * global: more than `max_inflight` jobs admitted across all clients
//     (the pool's backlog stays bounded; latency stays predictable).
//
// Hits and bad requests never count against either bound and are never
// answered `busy`. Because the reader parses and probes before it
// admits, an overloaded server still parses each request before it can
// reject it; `max_frame` bounds that parse. Within a bound, TCP flow
// control is the natural backpressure: the reader thread only parses as
// fast as jobs are admitted or answered.
//
// Graceful drain: `run()` polls `stop` every poll interval. Once it
// returns true (mwl_serve passes `interrupt_requested`), the server
// stops accepting, every reader stops parsing new frames -- a frame
// still arriving is dropped unanswered, so a peer that stops sending
// mid-frame cannot hold the drain -- admitted jobs finish and their
// responses are written whole, connections close, and run() returns --
// the tool then exits 3, mirroring mwl_batch and mwl_campaign. A client
// therefore sees one of: a complete response for every admitted
// request, then EOF; never a torn frame.
//
// Test knob (mirrors support/fault_inject): MWL_SERVE_STALL_MS=<n> makes
// every admitted alloc job (a miss; hits never reach the pool) sleep
// n ms before allocating, so the queue-full, hit-path,
// drain-during-inflight, and disconnect-with-inflight suites can pin
// their races deterministically.

#ifndef MWL_SERVE_SERVER_HPP
#define MWL_SERVE_SERVER_HPP

#include "engine/batch_engine.hpp"
#include "model/hardware_model.hpp"
#include "serve/protocol.hpp"
#include "support/stats.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace mwl::serve {

struct server_options {
    std::string unix_path;  ///< empty = no unix listener
    int tcp_port = -1;      ///< < 0 = no TCP listener; 0 = ephemeral port
    std::string tcp_host = "127.0.0.1";
    std::size_t jobs = 0;            ///< pool threads; 0 = hw concurrency
    std::size_t cache_capacity = 4096;
    std::size_t cache_shards = 16;
    std::size_t queue_depth = 64;    ///< per-connection admitted-job bound
    std::size_t max_inflight = 0;    ///< global bound; 0 = 4 * pool size
    std::size_t max_frame = default_max_frame;
    int retry_after_ms = 25;         ///< suggested client backoff on busy
    std::size_t latency_window_size = 4096;
    std::size_t max_connections = 256;
};

/// Server-side counters (the engine keeps its own `engine_stats`).
struct server_counters {
    std::uint64_t accepted = 0;        ///< connections ever accepted
    std::size_t active = 0;            ///< connections open right now
    std::uint64_t alloc_requests = 0;  ///< alloc frames parsed
    std::uint64_t stats_requests = 0;
    std::uint64_t ok_responses = 0;
    std::uint64_t error_responses = 0;
    std::uint64_t rejected_busy = 0;   ///< admission rejections
    std::uint64_t protocol_errors = 0; ///< malformed/truncated/oversized
    std::size_t queued = 0;            ///< jobs admitted, not yet answered
};

class server {
public:
    /// Bind the configured listeners (throws `mwl::error` on bind
    /// failure; a stale unix socket nobody answers on is replaced).
    explicit server(const server_options& options);

    /// Closes listeners and removes the unix socket path. `run()` must
    /// have returned (or never been called).
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Bound TCP port (useful with tcp_port = 0), -1 without a listener.
    [[nodiscard]] int tcp_port() const { return tcp_port_; }

    /// Accept and serve until `stop()` returns true (polled every ~50ms),
    /// then drain and return. `stop` must be callable from this thread.
    void run(const std::function<bool()>& stop);

    [[nodiscard]] server_counters counters() const;
    [[nodiscard]] engine_stats engine_snapshot() const
    {
        return engine_.snapshot();
    }
    [[nodiscard]] latency_summary latency() const
    {
        return latency_.summarize();
    }

    /// The stats endpoint's JSON document (also handy in-process).
    [[nodiscard]] std::string stats_json() const;

private:
    struct connection {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> finished{false};

        std::mutex write_mutex;     ///< one frame at a time onto the wire
        std::atomic<bool> dead{false}; ///< a write failed; stop writing

        /// Admitted jobs not yet answered; guarded by the server-wide
        /// pending_mutex_, NOT a per-connection lock: the pool worker
        /// that answers the last job must never touch a sync object
        /// whose lifetime ends with the connection it just finished.
        std::size_t pending = 0;
    };

    void serve_connection(connection& conn);
    void handle_alloc(connection& conn, const request& req);
    void respond(connection& conn, const response& r);
    /// respond() to an alloc request, counted as an ok or error response.
    void answer(connection& conn, const response& r);
    void reap_finished(bool join_all);
    void retain_task(std::future<void> task);
    void await_tasks();

    server_options options_;
    sonic_model model_;
    batch_engine engine_;
    latency_window latency_;
    std::chrono::steady_clock::time_point started_;

    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = -1;
    std::size_t max_inflight_ = 0;
    std::size_t pool_threads_ = 0;
    std::atomic<bool> draining_{false};

    std::mutex connections_mutex_;
    std::list<std::unique_ptr<connection>> connections_;

    std::mutex pending_mutex_;          ///< guards every connection's pending
    std::condition_variable pending_cv_; ///< signalled per answered job

    /// Futures of the completion tasks on the engine pool. A worker can
    /// still be in a task's tail after the job was answered and counted;
    /// run()'s drain (and ~server) waits on these so no worker touches a
    /// server member that is being destroyed under it.
    std::mutex tasks_mutex_;
    std::vector<std::future<void>> tasks_;

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::size_t> active_{0};
    std::atomic<std::uint64_t> alloc_requests_{0};
    std::atomic<std::uint64_t> stats_requests_{0};
    std::atomic<std::uint64_t> ok_responses_{0};
    std::atomic<std::uint64_t> error_responses_{0};
    std::atomic<std::uint64_t> rejected_busy_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::size_t> queued_{0};
};

} // namespace mwl::serve

#endif // MWL_SERVE_SERVER_HPP
