// mwl_serve -- long-running allocation-as-a-service daemon.
//
// Wraps the batch engine (src/engine/) in a socket server (src/serve/):
// clients stream sequencing graphs over a length-delimited framed
// protocol (unix and/or TCP), jobs are deduplicated against a
// lock-striped LRU shared by every connection, admission control keeps
// the backlog bounded (excess requests get `busy retry-after-ms=R`
// instead of unbounded queueing), and a `stats` request reports cache
// hit rate, queue depth, in-flight count, and p50/p99 allocation
// latency live. See src/serve/protocol.hpp for the wire format and
// tools/mwl_client for the matching client.
//
// SIGINT/SIGTERM drain: stop accepting, finish every admitted job,
// write the responses whole, then exit 3 -- the same contract as
// mwl_batch and mwl_campaign (0 success, 1 failure, 2 usage, 3
// interrupted-and-drained).
//
// Usage:
//   mwl_serve --unix /tmp/mwl.sock [--jobs 8] [--cache 4096]
//   mwl_serve --tcp 7447 [--host 0.0.0.0]
//   mwl_serve --unix /tmp/mwl.sock --tcp 0     # ephemeral port, printed

#include "cli.hpp"
#include "serve/server.hpp"
#include "support/interrupt.hpp"

#include <csignal>
#include <iostream>
#include <string>

namespace {

using namespace mwl;

const char* const usage_text =
    "usage: mwl_serve (--unix PATH | --tcp PORT) [options]\n"
    "  --unix PATH          listen on a unix socket\n"
    "  --tcp PORT           listen on TCP (0 = ephemeral, printed)\n"
    "  --host ADDR          TCP bind address [127.0.0.1]\n"
    "  --jobs N             worker threads [hardware concurrency]\n"
    "  --cache N            result cache capacity [4096]\n"
    "  --queue-depth N      per-connection admitted-job bound [64]\n"
    "  --max-inflight N     global admitted-job bound [4 x threads]\n"
    "  --max-frame BYTES    reject larger request frames [4194304]\n"
    "  --retry-after-ms N   backoff hint on busy rejections [25]\n"
    "  --max-conns N        connection cap [256]\n"
    "at least one of --unix / --tcp is required\n"
    "SIGINT/SIGTERM drain admitted jobs, answer them, and exit 3\n";

} // namespace

int main(int argc, char** argv)
{
    install_interrupt_handler();
    // A response racing a client disconnect must fail with EPIPE (handled
    // per connection), never kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    serve::server_options options;
    cli::tool cli("mwl_serve", usage_text);
    cli.value("--unix", options.unix_path);
    cli.value("--tcp", options.tcp_port, 0, 65535);
    cli.value("--host", options.tcp_host);
    cli.value("--jobs", options.jobs);
    cli.value("--cache", options.cache_capacity);
    cli.value("--queue-depth", options.queue_depth);
    cli.value("--max-inflight", options.max_inflight);
    cli.value("--max-frame", options.max_frame);
    cli.value("--retry-after-ms", options.retry_after_ms, 0);
    cli.value("--max-conns", options.max_connections);
    cli.parse(argc, argv);
    if (options.unix_path.empty() && options.tcp_port < 0) {
        cli.fail("one of --unix or --tcp is required");
    }

    try {
        serve::server server(options);
        if (!options.unix_path.empty()) {
            std::cout << "mwl_serve: listening on unix:" << options.unix_path
                      << '\n';
        }
        if (options.tcp_port >= 0) {
            std::cout << "mwl_serve: listening on tcp:" << options.tcp_host
                      << ':' << server.tcp_port() << '\n';
        }
        std::cout.flush();

        server.run(interrupt_requested);

        const serve::server_counters c = server.counters();
        const engine_stats e = server.engine_snapshot();
        const latency_summary l = server.latency();
        const double hit_rate =
            e.submitted != 0 ? static_cast<double>(e.cache_hits) /
                                   static_cast<double>(e.submitted)
                             : 0.0;
        std::cout << "mwl_serve: drained; " << c.accepted
                  << " connections, " << c.alloc_requests
                  << " alloc requests (" << c.ok_responses << " ok, "
                  << c.error_responses << " errors, " << c.rejected_busy
                  << " busy, " << c.protocol_errors
                  << " protocol errors), cache hit rate " << hit_rate
                  << ", p50 " << l.p50 << " ms, p99 " << l.p99 << " ms\n";
        return interrupt_requested() ? interrupt_exit_code : 0;
    } catch (const error& e) {
        std::cerr << "mwl_serve: " << e.what() << '\n';
        return 1;
    }
}
