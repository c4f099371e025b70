// Allocation-service throughput: an in-process mwl_serve core (the same
// src/serve/ server the daemon wraps) hammered over a unix socket from
// concurrent pipelined connections, cold (every job a distinct
// allocation) and warm (replaying the corpus against the striped result
// cache, so the number is protocol + cache overhead, not dpalloc).
// Responses are checked ok and the warm arm must be all cache hits --
// the req/s can never come from dropped or failed requests.
//
// Emits the aligned table (or --csv) plus a JSON artifact, echoed to
// stdout and written to BENCH_serve_throughput.json (or --out FILE); a
// --max-size smoke run writes a file only when --out names one.

#include "bench_common.hpp"
#include "io/graph_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"

#include <atomic>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

namespace {

using namespace mwl;

constexpr std::size_t window = 16; ///< pipelined requests per connection

/// One connection's share of a pass: `requests` allocs cycling through
/// the corpus (offset by the connection index, so cold passes never ask
/// twice), pipelined up to `window` and honouring busy/retry-after
/// backpressure like a well-behaved client. Returns false on any error
/// response or transport hiccup.
bool hammer(const serve::endpoint& ep, const std::vector<std::string>& jobs,
            const std::vector<int>& lambdas, std::size_t first,
            std::size_t stride, std::size_t requests)
{
    serve::client_connection conn(ep);
    std::unordered_map<std::uint64_t, std::size_t> outstanding;
    std::size_t next = 0;
    std::size_t done = 0;
    const auto send_job = [&](std::uint64_t id, std::size_t job) {
        return conn.send(serve::format_alloc_request(id, lambdas[job], 0.0,
                                                     jobs[job]));
    };
    while (done < requests) {
        while (outstanding.size() < window && next < requests) {
            const std::size_t job = (first + next * stride) % jobs.size();
            if (!send_job(next, job)) {
                return false;
            }
            outstanding[next] = job;
            ++next;
        }
        const auto resp = conn.receive();
        if (!resp) {
            return false;
        }
        const auto it = outstanding.find(resp->id);
        if (it == outstanding.end()) {
            return false;
        }
        if (resp->what == serve::response::status::busy) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(resp->retry_after_ms));
            if (!send_job(resp->id, it->second)) {
                return false;
            }
            continue;
        }
        if (resp->what != serve::response::status::ok) {
            return false;
        }
        outstanding.erase(it);
        ++done;
    }
    return true;
}

/// Run `conns` hammer threads and return the pass wall time in ms.
double pass_ms(const serve::endpoint& ep,
               const std::vector<std::string>& jobs,
               const std::vector<int>& lambdas, std::size_t conns,
               std::size_t requests_per_conn, bool& ok)
{
    std::atomic<bool> all_ok{true};
    stopwatch clock;
    {
        std::vector<std::thread> workers;
        workers.reserve(conns);
        for (std::size_t c = 0; c < conns; ++c) {
            workers.emplace_back([&, c] {
                if (!hammer(ep, jobs, lambdas, c, conns,
                            requests_per_conn)) {
                    all_ok.store(false);
                }
            });
        }
        for (std::thread& w : workers) {
            w.join();
        }
    }
    ok = all_ok.load();
    return clock.milliseconds();
}

} // namespace

int main(int argc, char** argv)
{
    bench::bench_options opt =
        bench::parse_options(argc, argv, "serve_throughput");
    const std::size_t n_ops = opt.max_size != 0 ? opt.max_size : 10;
    const std::size_t conns = 8;

    const sonic_model model;
    const auto corpus = make_corpus(n_ops, opt.graphs, model, opt.seed);
    std::vector<std::string> jobs;
    std::vector<int> lambdas;
    jobs.reserve(corpus.size());
    for (const corpus_entry& e : corpus) {
        jobs.push_back(write_graph(e.graph));
        lambdas.push_back(e.lambda_min);
    }

    const std::string sock =
        "serve_bench_" + std::to_string(::getpid()) + ".sock";
    serve::server_options options;
    options.unix_path = sock;
    // The default cache (4096 across 16 stripes) holds the whole corpus
    // per stripe even under hash skew, so the warm arm measures replay,
    // not per-shard eviction churn. The bench likewise measures the
    // protocol + engine path, not admission control: give the backlog
    // room for every pipelined request, so busy/retry sleeps never
    // masquerade as protocol cost.
    options.max_inflight = conns * window;
    options.queue_depth = window;
    serve::server server(options);
    std::atomic<bool> stop{false};
    std::thread runner(
        [&] { server.run([&] { return stop.load(); }); });
    const serve::endpoint ep = serve::parse_endpoint("unix:" + sock);

    // Cold: every request is a distinct allocation (each connection owns
    // a disjoint slice of the corpus). Warm: the whole corpus again from
    // every connection, all answered out of the striped cache.
    const std::size_t cold_per_conn =
        (corpus.size() + conns - 1) / conns;
    bool cold_ok = false;
    const double cold_ms =
        pass_ms(ep, jobs, lambdas, conns, cold_per_conn, cold_ok);
    const std::size_t warm_per_conn = 4 * corpus.size();
    bool warm_ok = false;
    const double warm_ms =
        pass_ms(ep, jobs, lambdas, conns, warm_per_conn, warm_ok);

    stop.store(true);
    runner.join();

    const engine_stats e = server.engine_snapshot();
    const latency_summary l = server.latency();
    if (!cold_ok || !warm_ok) {
        std::cerr << "serve_throughput: A REQUEST FAILED OR WAS DROPPED\n";
        return 1;
    }

    const std::size_t cold_requests = conns * cold_per_conn;
    const std::size_t warm_requests = conns * warm_per_conn;
    const auto rate = [](std::size_t requests, double ms) {
        return ms > 0.0 ? static_cast<double>(requests) / (ms / 1e3) : 0.0;
    };
    const double hit_rate =
        e.submitted != 0 ? static_cast<double>(e.cache_hits) /
                               static_cast<double>(e.submitted)
                         : 0.0;

    table t("Serve throughput: " + std::to_string(conns) + " conns, |O| = " +
            std::to_string(n_ops) + ", " + std::to_string(corpus.size()) +
            " distinct jobs");
    t.header({"arm", "requests", "ms", "req/s"});
    t.row({"cold (distinct jobs)", table::num(static_cast<int>(cold_requests)),
           table::num(cold_ms, 1), table::num(rate(cold_requests, cold_ms), 1)});
    t.row({"warm (cache replay)", table::num(static_cast<int>(warm_requests)),
           table::num(warm_ms, 1), table::num(rate(warm_requests, warm_ms), 1)});
    bench::emit(t, opt);
    std::cout << "engine: " << e.executed << " executed, " << e.cache_hits
              << " cache hits, " << e.coalesced << " coalesced (hit rate "
              << table::num(hit_rate, 3) << "); alloc latency p50 "
              << table::num(l.p50, 3) << " ms, p99 " << table::num(l.p99, 3)
              << " ms\n";

    std::ostringstream json;
    json << "{\"bench\":\"serve_throughput\",\"graphs\":" << opt.graphs
         << ",\"n_ops\":" << n_ops << ",\"seed\":" << opt.seed
         << ",\"conns\":" << conns << ",\"window\":" << window
         << ',' << bench::env_json() << ",\"cold\":{"
         << "\"requests\":" << cold_requests << ",\"ms\":" << cold_ms
         << ",\"req_per_s\":" << rate(cold_requests, cold_ms)
         << "},\"warm\":{\"requests\":" << warm_requests
         << ",\"ms\":" << warm_ms
         << ",\"req_per_s\":" << rate(warm_requests, warm_ms)
         << "},\"engine\":{\"executed\":" << e.executed
         << ",\"cache_hits\":" << e.cache_hits
         << ",\"coalesced\":" << e.coalesced
         << ",\"evictions\":" << e.evictions
         << ",\"hit_rate\":" << hit_rate
         << "},\"latency_ms\":{\"p50\":" << l.p50 << ",\"p99\":" << l.p99
         << "}}";
    std::cout << json.str() << '\n';

    // Smoke runs must not clobber a recorded full-size artifact unless an
    // explicit --out asks for a file.
    if (opt.max_size != 0 && opt.out.empty()) {
        return 0;
    }
    const std::string path =
        opt.out.empty() ? "BENCH_serve_throughput.json" : opt.out;
    std::ofstream file(path);
    if (file) {
        file << json.str() << '\n';
    } else {
        std::cerr << "serve_throughput: cannot write " << path << '\n';
        return 1;
    }
    return 0;
}
