#include "serve/server.hpp"

#include "dfg/analysis.hpp"
#include "io/graph_io.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mwl::serve {

namespace {

/// Lock stripes of the engine's result cache, and how many recent requests
/// the `stats` latency percentiles cover.
constexpr std::size_t cache_shards = 16;
constexpr std::size_t latency_window_size = 4096;

[[noreturn]] void fail_errno(const std::string& what)
{
    throw error(what + ": " + std::strerror(errno));
}

/// MWL_SERVE_STALL_MS (test knob; see header). Read per job, so one
/// test process can host servers with different stall settings; tests
/// set the variable before the server (and its pool) is constructed.
int stall_ms()
{
    const char* text = std::getenv("MWL_SERVE_STALL_MS");
    return text != nullptr ? std::atoi(text) : 0;
}

int bind_unix_listener(const std::string& path)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    require(path.size() < sizeof addr.sun_path,
            "unix socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        fail_errno("cannot create unix socket");
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
        if (errno != EADDRINUSE) {
            ::close(fd);
            fail_errno("cannot bind " + path);
        }
        // A socket file exists. Live server behind it -> hard error; a
        // stale leftover from a crash (nobody accepts) is replaced.
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        const bool live =
            probe >= 0 &&
            ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0;
        if (probe >= 0) {
            ::close(probe);
        }
        if (live) {
            ::close(fd);
            throw error("unix socket " + path +
                        " is already served by a live process");
        }
        ::unlink(path.c_str());
        if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0) {
            ::close(fd);
            fail_errno("cannot bind " + path);
        }
    }
    if (::listen(fd, 128) != 0) {
        ::close(fd);
        fail_errno("cannot listen on " + path);
    }
    return fd;
}

int bind_tcp_listener(const std::string& host, int port, int& bound_port)
{
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    require(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
            "tcp host must be a numeric IPv4 address: " + host);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        fail_errno("cannot create tcp socket");
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        fail_errno("cannot bind " + host + ":" + std::to_string(port));
    }
    if (::listen(fd, 128) != 0) {
        ::close(fd);
        fail_errno("cannot listen on " + host + ":" + std::to_string(port));
    }
    sockaddr_in bound = {};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        bound_port = ntohs(bound.sin_port);
    }
    return fd;
}

} // namespace

server::server(const server_options& options)
    : options_(options),
      engine_(batch_options{.jobs = options.jobs,
                            .cache_capacity = options.cache_capacity,
                            .cache_shards = cache_shards}),
      latency_(latency_window_size),
      started_(std::chrono::steady_clock::now())
{
    require(!options.unix_path.empty() || options.tcp_port >= 0,
            "server needs a unix path or a tcp port to listen on");
    require(options.queue_depth >= 1, "queue depth must be >= 1");
    pool_threads_ = engine_.pool().size();
    max_inflight_ = options.max_inflight != 0 ? options.max_inflight
                                              : 4 * pool_threads_;
    if (!options.unix_path.empty()) {
        unix_fd_ = bind_unix_listener(options.unix_path);
    }
    if (options.tcp_port >= 0) {
        try {
            tcp_fd_ =
                bind_tcp_listener(options.tcp_host, options.tcp_port,
                                  tcp_port_);
        } catch (...) {
            if (unix_fd_ >= 0) {
                ::close(unix_fd_);
                ::unlink(options.unix_path.c_str());
            }
            throw;
        }
    }
}

server::~server()
{
    await_tasks();
    if (unix_fd_ >= 0) {
        ::close(unix_fd_);
    }
    if (tcp_fd_ >= 0) {
        ::close(tcp_fd_);
    }
    if (!options_.unix_path.empty()) {
        ::unlink(options_.unix_path.c_str());
    }
}

void server::run(const std::function<bool()>& stop)
{
    for (;;) {
        if (stop && stop()) {
            break;
        }
        pollfd fds[2];
        nfds_t n = 0;
        if (unix_fd_ >= 0) {
            fds[n++] = {unix_fd_, POLLIN, 0};
        }
        if (tcp_fd_ >= 0) {
            fds[n++] = {tcp_fd_, POLLIN, 0};
        }
        const int ready = ::poll(fds, n, poll_interval_ms);
        if (ready > 0) {
            for (nfds_t i = 0; i < n; ++i) {
                if ((fds[i].revents & POLLIN) == 0) {
                    continue;
                }
                const int client = ::accept(fds[i].fd, nullptr, nullptr);
                if (client < 0) {
                    continue;
                }
                if (active_.load(std::memory_order_relaxed) >=
                    options_.max_connections) {
                    response r;
                    r.what = response::status::error;
                    r.message = "server at connection capacity";
                    static_cast<void>(
                        write_frame(client, format_response(r)));
                    ::close(client);
                    continue;
                }
                accepted_.fetch_add(1, std::memory_order_relaxed);
                active_.fetch_add(1, std::memory_order_relaxed);
                const std::lock_guard<std::mutex> lock(connections_mutex_);
                auto conn = std::make_unique<connection>();
                conn->fd = client;
                connection& ref = *conn;
                connections_.push_back(std::move(conn));
                ref.thread = std::thread(
                    [this, &ref] { serve_connection(ref); });
            }
        }
        reap_finished(false);
    }

    // Drain: no new connections, readers stop parsing new frames, every
    // admitted job finishes and is answered, then the threads join.
    draining_.store(true, std::memory_order_relaxed);
    if (unix_fd_ >= 0) {
        ::close(unix_fd_);
        unix_fd_ = -1;
    }
    if (tcp_fd_ >= 0) {
        ::close(tcp_fd_);
        tcp_fd_ = -1;
    }
    reap_finished(true);
    await_tasks();
}

void server::reap_finished(bool join_all)
{
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        connection& conn = **it;
        if (join_all || conn.finished.load(std::memory_order_acquire)) {
            if (conn.thread.joinable()) {
                conn.thread.join();
            }
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void server::retain_task(std::future<void> task)
{
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    // Prune finished tasks first so the list tracks only live work (the
    // global admission bound keeps it small).
    for (auto it = tasks_.begin(); it != tasks_.end();) {
        if (it->wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            it = tasks_.erase(it);
        } else {
            ++it;
        }
    }
    tasks_.push_back(std::move(task));
}

void server::await_tasks()
{
    std::vector<std::future<void>> tail;
    {
        const std::lock_guard<std::mutex> lock(tasks_mutex_);
        tail.swap(tasks_);
    }
    for (std::future<void>& task : tail) {
        task.wait();
    }
}

void server::respond(connection& conn, const response& r)
{
    if (conn.dead.load(std::memory_order_relaxed)) {
        return;
    }
    const std::lock_guard<std::mutex> lock(conn.write_mutex);
    if (!write_frame(conn.fd, format_response(r))) {
        // Peer is gone; pending jobs still finish (their results land in
        // the cache), but nothing more is written to this socket.
        conn.dead.store(true, std::memory_order_relaxed);
    }
}

void server::answer(connection& conn, const response& r)
{
    if (r.what == response::status::ok) {
        ok_responses_.fetch_add(1, std::memory_order_relaxed);
    } else {
        error_responses_.fetch_add(1, std::memory_order_relaxed);
    }
    respond(conn, r);
}

namespace {

response error_response(std::uint64_t id, std::string message)
{
    response r;
    r.what = response::status::error;
    r.id = id;
    r.message = std::move(message);
    return r;
}

/// The response to an alloc job that reached the engine.
response engine_response(std::uint64_t id, int lambda,
                         const batch_engine::outcome& out, double micros)
{
    if (!out.ok()) {
        return error_response(id, out.error);
    }
    response r;
    r.id = id;
    r.lambda = lambda;
    r.latency = out.result->path.latency;
    r.area = out.result->path.total_area;
    r.cached = out.from_cache;
    r.coalesced = out.coalesced;
    r.micros = micros;
    return r;
}

} // namespace

void server::handle_alloc(connection& conn, const request& req)
{
    // Parse and probe on the reader thread: a bad body or a cache hit is
    // answered right here, so only a miss takes a pool slot.
    sequencing_graph graph;
    int lambda = 0;
    try {
        graph = parse_graph_string(req.graph_text);
        if (graph.empty()) {
            response r;
            r.id = req.id;
            answer(conn, r);
            return;
        }
        lambda = req.lambda ? *req.lambda
                            : relaxed_lambda(min_latency(graph, model_),
                                             req.slack);
    } catch (const std::exception& e) {
        answer(conn, error_response(req.id, e.what()));
        return;
    }
    const stopwatch clock;
    if (const std::optional<batch_engine::outcome> hit =
            engine_.lookup(graph, model_, lambda)) {
        const double micros = clock.seconds() * 1e6;
        latency_.record(micros / 1e3);
        answer(conn, engine_response(req.id, lambda, *hit, micros));
        return;
    }

    // Admission control, decided on the reader thread before anything is
    // queued: both bounds reject with a retry hint instead of letting the
    // backlog (and every client's latency) grow without bound.
    bool admit = queued_.load(std::memory_order_relaxed) < max_inflight_;
    if (admit) {
        const std::lock_guard<std::mutex> lock(pending_mutex_);
        admit = conn.pending < options_.queue_depth;
        if (admit) {
            ++conn.pending;
        }
    }
    if (!admit) {
        rejected_busy_.fetch_add(1, std::memory_order_relaxed);
        response r;
        r.what = response::status::busy;
        r.id = req.id;
        r.retry_after_ms = options_.retry_after_ms;
        respond(conn, r);
        return;
    }
    queued_.fetch_add(1, std::memory_order_relaxed);

    retain_task(engine_.pool().submit(
        [this, &conn, id = req.id, lambda, graph = std::move(graph)] {
            if (stall_ms() > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(stall_ms()));
            }
            response r;
            try {
                const stopwatch clock;
                const batch_engine::outcome out =
                    engine_.run(graph, model_, lambda);
                const double micros = clock.seconds() * 1e6;
                latency_.record(micros / 1e3);
                r = engine_response(id, lambda, out, micros);
            } catch (const std::exception& e) {
                r = error_response(id, e.what());
            }
            answer(conn, r);
            queued_.fetch_sub(1, std::memory_order_relaxed);
            {
                const std::lock_guard<std::mutex> lock(pending_mutex_);
                --conn.pending;
            }
            // Server-scope cv: after the decrement above, this worker
            // holds no reference into `conn`, which the reaper may now
            // destroy the moment its reader thread sees pending == 0.
            pending_cv_.notify_all();
        }));
}

void server::serve_connection(connection& conn)
{
    std::string payload;
    // A drain also ends a frame that is still arriving: its bytes are
    // dropped unanswered, like a frame that never arrived.
    const std::function<bool()> abandon = [this] {
        return draining_.load(std::memory_order_relaxed);
    };
    while (!abandon()) {
        pollfd p = {conn.fd, POLLIN, 0};
        const int ready = ::poll(&p, 1, poll_interval_ms);
        if (ready < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if (ready == 0) {
            continue;
        }
        const frame_status status =
            read_frame(conn.fd, payload, options_.max_frame, abandon);
        if (status == frame_status::eof ||
            status == frame_status::abandoned) {
            break;
        }
        if (status != frame_status::ok) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            if (status != frame_status::truncated) {
                // Tell the peer why before hanging up; after a bad header
                // or an unread oversized payload the stream is desynced,
                // so the connection cannot continue either way.
                response r;
                r.what = response::status::error;
                r.message =
                    status == frame_status::malformed
                        ? "malformed frame header"
                        : "frame exceeds " +
                              std::to_string(options_.max_frame) + " bytes";
                respond(conn, r);
            }
            break;
        }
        request req;
        try {
            req = parse_request(payload);
        } catch (const protocol_error& e) {
            // The framing is intact, so the connection survives a bad
            // payload: report and keep reading.
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            response r;
            r.what = response::status::error;
            r.message = e.what();
            respond(conn, r);
            continue;
        }
        switch (req.what) {
        case request::kind::ping: {
            response r;
            r.id = req.id;
            respond(conn, r);
            break;
        }
        case request::kind::stats: {
            stats_requests_.fetch_add(1, std::memory_order_relaxed);
            response r;
            r.id = req.id;
            r.body = stats_json();
            respond(conn, r);
            break;
        }
        case request::kind::alloc:
            alloc_requests_.fetch_add(1, std::memory_order_relaxed);
            handle_alloc(conn, req);
            break;
        }
    }

    // Connection drain: every admitted job is answered (or its write
    // failed against a dead peer) before the socket closes -- whether we
    // got here by client EOF, a protocol error, or a server drain.
    {
        std::unique_lock<std::mutex> lock(pending_mutex_);
        pending_cv_.wait(lock, [&] { return conn.pending == 0; });
    }
    ::close(conn.fd);
    conn.fd = -1;
    active_.fetch_sub(1, std::memory_order_relaxed);
    conn.finished.store(true, std::memory_order_release);
}

server_counters server::counters() const
{
    server_counters c;
    c.accepted = accepted_.load(std::memory_order_relaxed);
    c.active = active_.load(std::memory_order_relaxed);
    c.alloc_requests = alloc_requests_.load(std::memory_order_relaxed);
    c.stats_requests = stats_requests_.load(std::memory_order_relaxed);
    c.ok_responses = ok_responses_.load(std::memory_order_relaxed);
    c.error_responses = error_responses_.load(std::memory_order_relaxed);
    c.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
    c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    c.queued = queued_.load(std::memory_order_relaxed);
    return c;
}

std::string server::stats_json() const
{
    const server_counters c = counters();
    const engine_stats e = engine_.snapshot();
    const latency_summary l = latency_.summarize();
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    const double hit_rate =
        e.submitted != 0
            ? static_cast<double>(e.cache_hits) /
                  static_cast<double>(e.submitted)
            : 0.0;
    std::string out = "{\"uptime_seconds\":";
    append_double(out, uptime);
    out += ",\"server\":{\"accepted\":" + std::to_string(c.accepted) +
           ",\"active\":" + std::to_string(c.active) +
           ",\"alloc_requests\":" + std::to_string(c.alloc_requests) +
           ",\"stats_requests\":" + std::to_string(c.stats_requests) +
           ",\"ok_responses\":" + std::to_string(c.ok_responses) +
           ",\"error_responses\":" + std::to_string(c.error_responses) +
           ",\"rejected_busy\":" + std::to_string(c.rejected_busy) +
           ",\"protocol_errors\":" + std::to_string(c.protocol_errors) +
           ",\"queued\":" + std::to_string(c.queued) +
           ",\"queue_depth\":" + std::to_string(options_.queue_depth) +
           ",\"max_inflight\":" + std::to_string(max_inflight_) +
           ",\"pool_threads\":" + std::to_string(pool_threads_) +
           "},\"engine\":{\"submitted\":" + std::to_string(e.submitted) +
           ",\"executed\":" + std::to_string(e.executed) +
           ",\"cache_hits\":" + std::to_string(e.cache_hits) +
           ",\"cache_misses\":" + std::to_string(e.cache_misses) +
           ",\"hit_rate\":";
    append_double(out, hit_rate);
    out += ",\"coalesced\":" + std::to_string(e.coalesced) +
           ",\"errors\":" + std::to_string(e.errors) +
           ",\"evictions\":" + std::to_string(e.evictions) +
           ",\"in_flight\":" + std::to_string(e.in_flight) +
           ",\"cache_size\":" + std::to_string(e.cache_size) +
           ",\"cache_capacity\":" + std::to_string(e.cache_capacity) +
           "},\"latency_ms\":{\"count\":" + std::to_string(l.count) +
           ",\"mean\":";
    append_double(out, l.mean);
    out += ",\"p50\":";
    append_double(out, l.p50);
    out += ",\"p99\":";
    append_double(out, l.p99);
    out += ",\"max\":";
    append_double(out, l.max);
    out += "}}";
    return out;
}

} // namespace mwl::serve
