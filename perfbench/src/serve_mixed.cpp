// serve_mixed: the in-process serve::server core on a unix socket, its pool
// sized to the hardware concurrency, loaded by one closed-loop client
// connection per core from this process (each waits for its reply, as
// mwl_client manifests and campaigns do).
//
// Mix per request: ~90% replays of a warmed hot set of small tgff graphs,
// ~9.5% cold distinct small graphs and ~0.5% medium graphs (|O| 80-120),
// alternating slack= and lambda= constraints. A warm hit pays frame read,
// request parse, graph parse, min_latency and fingerprint before a ~1 us
// cache probe, so serve / io dominate the median; cold and medium misses
// put dpalloc on the tail. One operation is one request.

#include "bench.hpp"
#include "replay.hpp"
#include "trace.hpp"

#include "dfg/analysis.hpp"
#include "io/graph_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

namespace perfbench {

using namespace mwl;

namespace {

constexpr double cold_share = 0.095;
constexpr double medium_share = 0.005;

/// One request as sent: graph text plus its constraint.
struct payload {
    std::string graph_text;
    std::optional<int> lambda;
    double slack = 0.0;
};

/// Alternate slack= and lambda= by position.
payload make_payload(const sequencing_graph& g, const hardware_model& model,
                     std::uint64_t position)
{
    payload p;
    p.graph_text = write_graph(g);
    if (position % 2 == 0) {
        p.slack = 0.05 * static_cast<double>(position % 5);
    } else {
        p.lambda = min_latency(g, model) + static_cast<int>(position % 4);
    }
    return p;
}

sequencing_graph small_graph(std::uint64_t seed, std::size_t lo,
                             std::size_t hi)
{
    rng random(seed);
    tgff_options options;
    options.n_ops = lo + random.uniform(0, hi - lo);
    return generate_tgff(options, random);
}

/// Hot graph `i`: sizes cycle through 8-16 ops, so the seed draws the
/// graphs' shapes but not how much text the hot set parses.
sequencing_graph hot_graph(std::uint64_t seed, std::size_t i)
{
    rng random(seed);
    tgff_options options;
    options.n_ops = 8 + i % 9;
    return generate_tgff(options, random);
}

struct hot_entry {
    payload request;
    serve::response reference; ///< the warm-up answer
};

/// A running server plus the thread driving its accept loop.
class live_server {
public:
    explicit live_server(const serve::server_options& options)
        : server_(options),
          runner_([this] { server_.run([this] { return stop_.load(); }); })
    {
    }
    ~live_server()
    {
        stop_.store(true);
        runner_.join();
    }
    live_server(const live_server&) = delete;
    live_server& operator=(const live_server&) = delete;

    serve::server& get() { return server_; }

private:
    serve::server server_;
    std::atomic<bool> stop_{false};
    std::thread runner_; // declared last: starts once server_ exists
};

/// One request as the client saw it.
struct sample {
    bool ok = false;
    bool cached = false;
    float rtt_us = 0.0F;
    float micros = 0.0F; ///< server-side engine time
};

/// Requests kept per connection for the latency percentiles: a uniform
/// sample (reservoir sampling), so client memory stays flat however many
/// requests a run completes and peak_rss_mb measures the server.
constexpr std::size_t reservoir_size = 16384;
/// Round-trip times kept per connection and whole second, the same way.
constexpr std::size_t second_sample_size = 1024;

/// Keep `value` in the uniform sample `into` of the `seen` values so far.
template <typename T>
void keep_sample(std::vector<T>& into, std::size_t capacity, std::uint64_t seen,
                 rng& pick, const T& value)
{
    if (into.size() < capacity) {
        into.push_back(value);
    } else if (const std::uint64_t slot = pick.uniform(0, seen - 1);
               slot < capacity) {
        into[slot] = value;
    }
}

/// A cold or medium request kept for the direct-dpalloc check.
struct kept {
    payload request;
    serve::response reply;
};

/// What one connection brings back from a load phase.
struct client_log {
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::vector<double> per_second; ///< completions in each whole second
    std::vector<std::vector<float>> rtt_us_by_second; ///< sampled per second
    std::vector<sample> reservoir;
    std::vector<kept> checked;
    std::size_t hot_mismatches = 0;
};

std::optional<serve::response> round_trip(serve::client_connection& conn,
                                          std::uint64_t id, const payload& p)
{
    if (!conn.send(serve::format_alloc_request(id, p.lambda, p.slack,
                                               p.graph_text))) {
        return std::nullopt;
    }
    return conn.receive();
}

/// The constraint and graph exactly as the server derives them.
std::pair<sequencing_graph, int> resolve(const payload& p,
                                         const hardware_model& model)
{
    const serve::request req = serve::parse_request(
        serve::format_alloc_request(0, p.lambda, p.slack, p.graph_text));
    sequencing_graph g = parse_graph_string(req.graph_text);
    const int lambda =
        req.lambda ? *req.lambda
                   : relaxed_lambda(min_latency(g, model), req.slack);
    return {std::move(g), lambda};
}

struct setup_state {
    std::vector<hot_entry> hot;
    std::unique_ptr<live_server> server;
    double start_ms = 0.0;
    double warmup_ms = 0.0;
};

struct workload {
    const config& cfg;
    const sonic_model model;
    std::string socket;
    std::size_t hot_count = 0;

    setup_state set_up(tracer* trace) const
    {
        setup_state s;
        {
            const scope span(trace, "tgff.generate", "tgff");
            for (std::size_t i = 0; i < hot_count; ++i) {
                const sequencing_graph g =
                    hot_graph(mix(cfg.seed, 1000 + i), i);
                s.hot.push_back({make_payload(g, model, i), {}});
            }
        }
        clock::time_point t0 = clock::now();
        serve::server_options options;
        options.unix_path = socket;
        options.jobs = cfg.jobs;
        s.server = std::make_unique<live_server>(options);
        s.start_ms = seconds_since(t0) * 1e3;

        t0 = clock::now();
        const scope span(trace, "serve.warmup", "serve");
        serve::client_connection conn(serve::parse_endpoint("unix:" + socket));
        for (std::size_t i = 0; i < s.hot.size(); ++i) {
            const std::optional<serve::response> r =
                round_trip(conn, i, s.hot[i].request);
            if (!r || r->what != serve::response::status::ok) {
                throw error("serve_mixed: warm-up request failed");
            }
            s.hot[i].reference = *r;
        }
        s.warmup_ms = seconds_since(t0) * 1e3;
        return s;
    }

    /// One connection's closed loop until `deadline`. Hot replies are
    /// checked against their warm-up answer as they arrive.
    client_log client(const setup_state& s, std::uint64_t phase,
                      std::size_t c, clock::time_point begin,
                      clock::time_point deadline, tracer* trace) const
    {
        serve::client_connection conn(serve::parse_endpoint("unix:" + socket));
        rng stream(mix(cfg.seed, (phase << 32) + 2000 + c));
        rng reservoir_pick(mix(cfg.seed, (phase << 32) + 3000 + c));
        client_log log;
        const auto seconds = static_cast<std::size_t>(
            std::chrono::duration<double>(deadline - begin).count());
        log.per_second.assign(seconds, 0.0);
        log.rtt_us_by_second.resize(seconds);
        log.reservoir.reserve(reservoir_size);
        for (std::uint64_t k = 0; clock::now() < deadline; ++k) {
            sample one;
            const double u = stream.uniform_real();
            // Unique per (phase, connection, request), so a later load
            // phase never replays an earlier phase's cold graphs.
            const std::uint64_t id = (phase << 56) | (c << 40) | k;
            const hot_entry* hot = nullptr;
            payload fresh;
            bool keep = false;
            if (u < cold_share + medium_share) {
                // A distinct graph: medium with probability medium_share.
                const bool medium = u < medium_share;
                const std::uint64_t graph_seed = mix(cfg.seed, id);
                fresh = make_payload(medium ? small_graph(graph_seed, 80, 120)
                                            : small_graph(graph_seed, 8, 16),
                                     model, k);
                keep = graph_seed % 61 == 0 || (medium && k % 16 == 0);
            } else {
                hot = &s.hot[stream.uniform(0, s.hot.size() - 1)];
            }
            const clock::time_point t0 = clock::now();
            std::optional<serve::response> reply;
            {
                const scope span(trace, "serve.request", "serve", id + 1);
                reply = round_trip(conn, id, hot ? hot->request : fresh);
            }
            one.rtt_us = static_cast<float>(seconds_since(t0) * 1e6);
            one.ok = reply && reply->what == serve::response::status::ok;
            if (one.ok) {
                one.cached = reply->cached;
                one.micros = static_cast<float>(reply->micros);
            }
            ++log.requests;
            log.failed += one.ok ? 0 : 1;
            const auto second =
                static_cast<std::size_t>(seconds_since(begin));
            if (second < log.per_second.size()) {
                log.per_second[second] += 1.0;
                keep_sample(log.rtt_us_by_second[second], second_sample_size,
                            static_cast<std::uint64_t>(log.per_second[second]),
                            reservoir_pick, one.rtt_us);
            }
            keep_sample(log.reservoir, reservoir_size, log.requests,
                        reservoir_pick, one);
            if (!reply) {
                break; // connection dropped
            }
            if (one.ok && hot != nullptr &&
                (reply->lambda != hot->reference.lambda ||
                 reply->latency != hot->reference.latency ||
                 reply->area != hot->reference.area)) {
                ++log.hot_mismatches;
            }
            if (one.ok && keep) {
                log.checked.push_back({std::move(fresh), std::move(*reply)});
            }
        }
        return log;
    }

    /// Run every connection for `seconds`; returns the merged logs and the
    /// measured wall time.
    client_log load(const setup_state& s, std::uint64_t phase,
                    double seconds, tracer* trace, double& wall) const
    {
        // Half as many closed-loop connections as cores: each request
        // also occupies a server reader thread and a pool worker, and a
        // fully subscribed machine makes the figures swing by 20%.
        const std::size_t connections = std::max<std::size_t>(1, cfg.jobs / 2);
        std::vector<client_log> per(connections);
        std::vector<std::string> errors(connections);
        const clock::time_point t0 = clock::now();
        const clock::time_point deadline =
            t0 + std::chrono::duration_cast<clock::duration>(
                     std::chrono::duration<double>(seconds));
        {
            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < connections; ++c) {
                threads.emplace_back([&, c] {
                    try {
                        per[c] = client(s, phase, c, t0, deadline, trace);
                    } catch (const std::exception& e) {
                        errors[c] = e.what();
                    }
                });
            }
            for (std::thread& t : threads) {
                t.join();
            }
        }
        wall = seconds_since(t0);
        client_log all;
        for (std::size_t c = 0; c < connections; ++c) {
            if (!errors[c].empty()) {
                throw error("serve_mixed client: " + errors[c]);
            }
            merge(all, std::move(per[c]));
        }
        return all;
    }

    static void merge(client_log& into, client_log&& from)
    {
        into.requests += from.requests;
        into.failed += from.failed;
        into.per_second.resize(
            std::max(into.per_second.size(), from.per_second.size()), 0.0);
        into.rtt_us_by_second.resize(into.per_second.size());
        for (std::size_t i = 0; i < from.per_second.size(); ++i) {
            into.per_second[i] += from.per_second[i];
            into.rtt_us_by_second[i].insert(into.rtt_us_by_second[i].end(),
                                            from.rtt_us_by_second[i].begin(),
                                            from.rtt_us_by_second[i].end());
        }
        into.reservoir.insert(into.reservoir.end(), from.reservoir.begin(),
                              from.reservoir.end());
        for (kept& k : from.checked) {
            into.checked.push_back(std::move(k));
        }
        into.hot_mismatches += from.hot_mismatches;
    }

    /// Output checks: every request answered ok, hot replies equal their
    /// warm-up answer, kept cold / medium replies equal a direct dpalloc().
    void check(client_log& log, report& out) const
    {
        out.attempt(log.requests);
        out.fail(log.failed);
        out.check(log.hot_mismatches == 0,
                  "serve_mixed: a hot replay answered differently from its "
                  "warm-up");
        out.check(!log.checked.empty(), "serve_mixed: no reply was sampled");
        if (cfg.corrupt && !log.checked.empty()) {
            log.checked.front().reply.area += 1.0;
        }
        for (const kept& k : log.checked) {
            const auto [g, lambda] = resolve(k.request, model);
            const dpalloc_result direct = dpalloc(g, model, lambda);
            out.check(k.reply.lambda == lambda &&
                          k.reply.latency == direct.path.latency &&
                          k.reply.area == direct.path.total_area,
                      "serve_mixed: a reply differs from a direct dpalloc()");
        }
    }
};

double area_of(const setup_state& s)
{
    double sum = 0.0;
    for (const hot_entry& h : s.hot) {
        sum += h.reference.area;
    }
    return sum;
}

/// Per-layer timings of the request path, replayed in-process on the
/// payloads the load sent.
void replay_request_path(const workload& w, const setup_state& s,
                         const client_log& log, report& out, tracer& trace)
{
    std::vector<const payload*> payloads;
    for (const hot_entry& h : s.hot) {
        payloads.push_back(&h.request);
    }
    for (const kept& k : log.checked) {
        payloads.push_back(&k.request);
    }
    std::vector<double> parse_req, parse_graph, min_lat, fingerprint, format;
    const auto timed = [](std::vector<double>& into, auto&& f) {
        const clock::time_point t0 = clock::now();
        f();
        into.push_back(seconds_since(t0) * 1e6);
    };
    for (const payload* p : payloads) {
        const std::string frame = serve::format_alloc_request(
            1, p->lambda, p->slack, p->graph_text);
        serve::request req;
        {
            const scope span(&trace, "serve.parse_request", "serve");
            timed(parse_req, [&] { req = serve::parse_request(frame); });
        }
        sequencing_graph g;
        {
            const scope span(&trace, "io.parse_graph", "io");
            timed(parse_graph, [&] { g = parse_graph_string(req.graph_text); });
        }
        {
            const scope span(&trace, "dfg.min_latency", "dfg");
            timed(min_lat, [&] {
                static_cast<void>(min_latency(g, w.model));
            });
        }
        {
            const scope span(&trace, "io.fingerprint", "io");
            timed(fingerprint,
                  [&] { static_cast<void>(graph_fingerprint(g)); });
        }
        const scope span(&trace, "serve.format_response", "serve");
        timed(format, [&] {
            static_cast<void>(serve::format_response(s.hot.front().reference));
        });
    }
    out.set("serve.parse_request_us", median(parse_req), "us");
    out.set("io.parse_graph_us", median(parse_graph), "us");
    out.set("dfg.min_latency_us", median(min_lat), "us");
    out.set("io.fingerprint_us_p50", median(fingerprint), "us");
    out.set("serve.format_response_us", median(format), "us");

    // Phase split on the hot set (a fixed set of jobs).
    replay_totals totals;
    for (const hot_entry& h : s.hot) {
        const auto [g, lambda] = resolve(h.request, w.model);
        static_cast<void>(
            replay_and_check(g, w.model, lambda, trace, totals, out));
    }
    report_replay(trace, totals, out);
}

} // namespace

void run_serve_mixed(const config& cfg, report& out, tracer* trace)
{
    workload w{cfg, sonic_model{}, (cfg.scratch_dir / "serve.sock").string(),
               cfg.smoke ? std::size_t{32} : std::size_t{256}};

    setup_timer setup;
    setup_state s;
    const auto set_up = [&] {
        s = setup_state{}; // stops the previous repetition's server
        setup.start();
        s = w.set_up(setup.first() ? trace : nullptr);
        setup.stop();
    };
    while (setup.more()) {
        set_up();
    }

    if (trace != nullptr) {
        out.set("setup.tgff_ms", trace->total_ms("tgff.generate"), "ms");
        out.set("setup.server_start_ms", s.start_ms, "ms");
        out.set("setup.warmup_ms", s.warmup_ms, "ms");
        // Half the window untraced, half traced: the request-rate ratio
        // is the tracing overhead.
        double plain_wall = 0.0;
        double traced_wall = 0.0;
        client_log plain = w.load(s, 0, cfg.seconds / 2, nullptr, plain_wall);
        client_log traced = w.load(s, 1, cfg.seconds / 2, trace, traced_wall);
        out.set("trace.overhead_ratio",
                (traced_wall / static_cast<double>(traced.requests)) /
                    (plain_wall / static_cast<double>(plain.requests)),
                "ratio");
        workload::merge(plain, std::move(traced));
        std::vector<double> rtt, hit, miss, outside;
        for (const sample& x : plain.reservoir) {
            rtt.push_back(x.rtt_us);
            if (x.ok) {
                (x.cached ? hit : miss).push_back(x.micros);
                outside.push_back(x.rtt_us - x.micros);
            }
        }
        out.set("serve.req_us_p50", median(rtt), "us");
        out.set("serve.req_us_p99", pct(rtt, 99.0), "us");
        out.set("serve.engine_us_hit_p50", median(hit), "us");
        out.set("serve.engine_us_miss_p50", median(miss), "us");
        out.set("serve.outside_engine_us_p50", median(outside), "us");
        w.check(plain, out);

        const serve::server_counters c = s.server->get().counters();
        const engine_stats e = s.server->get().engine_snapshot();
        out.set("serve.rejected_busy", static_cast<double>(c.rejected_busy),
                "count");
        out.set("serve.protocol_errors",
                static_cast<double>(c.protocol_errors), "count");
        out.set("serve.error_responses",
                static_cast<double>(c.error_responses), "count");
        out.set("engine.submitted", static_cast<double>(e.submitted), "count");
        out.set("engine.executed", static_cast<double>(e.executed), "count");
        out.set("engine.cache_hits", static_cast<double>(e.cache_hits),
                "count");
        out.set("engine.coalesced", static_cast<double>(e.coalesced), "count");
        out.set("engine.evictions", static_cast<double>(e.evictions), "count");
        out.set("engine.hit_ratio",
                static_cast<double>(e.cache_hits) /
                    static_cast<double>(e.submitted),
                "ratio");
        s.server.reset();
        replay_request_path(w, s, plain, out, *trace);
        return;
    }

    double wall = 0.0;
    reset_peak_rss();
    client_log log = w.load(s, 0, cfg.seconds, nullptr, wall);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    s.server.reset();
    // Median round trip of each whole second, or of the whole load when it
    // lasted under a second.
    std::vector<double> rtt_ms_p50;
    for (const std::vector<float>& second : log.rtt_us_by_second) {
        rtt_ms_p50.push_back(
            median(std::vector<double>(second.begin(), second.end())) / 1e3);
    }
    if (rtt_ms_p50.empty()) {
        std::vector<double> rtt_ms;
        for (const sample& x : log.reservoir) {
            rtt_ms.push_back(x.rtt_us / 1e3);
        }
        rtt_ms_p50.push_back(median(rtt_ms));
    }
    w.check(log, out);
    const double area_sum = area_of(s);
    while (setup.more_after()) {
        set_up();
    }
    out.set("setup_s", setup.median_s(), "s");
    // Throughput and median round trip per whole second of the load, as
    // the fast decile of seconds gives them: on a shared host interference
    // only ever slows a second down, and slow stretches last seconds, so
    // the fastest seconds track the program rather than its neighbours.
    out.set("ops_per_s",
            log.per_second.empty()
                ? static_cast<double>(log.requests) / wall
                : pct(log.per_second, 90.0),
            "1/s");
    out.set("op_ms_p50", pct(rtt_ms_p50, 10.0), "ms");
    out.set("area_sum", area_sum, "area");
}

} // namespace perfbench
