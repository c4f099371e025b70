// mwl_client -- client CLI for the mwl_serve allocation daemon.
//
// Three shapes of use:
//
//  * One-shot commands against a running daemon:
//      mwl_client unix:/tmp/mwl.sock ping
//      mwl_client unix:/tmp/mwl.sock stats            # stats JSON
//      mwl_client unix:/tmp/mwl.sock alloc fir.mwl lambda=12
//
//  * Manifest mode -- the mwl_batch manifest grammar (graph/corpus lines
//    with lambda=/slack=; sweep=/verify= are batch-only) pushed through
//    the daemon from C concurrent connections, results reported in
//    manifest order in the same table/JSON shape as mwl_batch:
//      mwl_client unix:/tmp/mwl.sock --manifest jobs.txt --conns 8
//
//  * Soak mode -- each connection sends N requests cycling through the
//    manifest items (pipelined up to --window, honouring busy
//    retry-after backoff), reporting achieved requests/s:
//      echo 'corpus ops=10 count=32' |
//        mwl_client unix:/tmp/mwl.sock --manifest - --soak 200 --conns 8
//
// Exit codes: 0 all responses ok; 1 connect failure, server-reported
// errors, or an unexpected disconnect (tolerated with
// --tolerate-disconnect, for soaks that outlive a draining server);
// 2 usage or manifest errors.

#include "cli.hpp"
#include "io/graph_io.hpp"
#include "io/manifest.hpp"
#include "report/table.hpp"
#include "serve/client.hpp"
#include "support/atomic_write.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

#include <csignal>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

using namespace mwl;

const char* const usage_text =
    "usage: mwl_client ENDPOINT COMMAND|--manifest FILE [options]\n"
    "  ENDPOINT             unix:PATH or tcp:HOST:PORT\n"
    "commands:\n"
    "  ping                 round-trip check\n"
    "  stats                print the server's stats JSON\n"
    "  alloc FILE [lambda=N|slack=PCT]   allocate one .mwl graph\n"
    "manifest mode:\n"
    "  --manifest FILE      mwl_batch manifest ('-' = stdin);\n"
    "                       graph/corpus lines with lambda=/slack=\n"
    "  --conns C            concurrent connections [1]\n"
    "  --soak N             N requests per connection, cycling the\n"
    "                       manifest items; reports requests/s\n"
    "  --window W           pipelined requests per connection [16]\n"
    "  --json FILE          write results + stats as JSON ('-' = stdout)\n"
    "  --csv                CSV on stdout instead of the table\n"
    "  --tolerate-disconnect   a server drain mid-soak is not an error\n";

/// One expanded manifest entry, pre-serialised for the wire.
struct serve_item {
    std::string name;
    std::string graph_text;
    std::optional<int> lambda;
    double slack = 0.0;
};

/// Completed allocation for one item (manifest mode).
struct result_row {
    bool have = false;
    bool ok = false;
    int lambda = 0;
    int latency = 0;
    double area = 0.0;
    bool cached = false;
    bool coalesced = false;
    std::string message;
};

/// Shared tallies across connection workers.
struct soak_totals {
    std::mutex mutex;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t busy_retries = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t lost = 0; ///< outstanding when a connection died
    std::uint64_t connect_failures = 0;
    std::vector<double> latencies_ms; ///< client-observed round trips
};

/// The request fields of one manifest line or `alloc` argument list;
/// sweep= and verify= are batch-only and rejected.
serve_item request_of(const manifest_directives& what)
{
    require(!what.sweep, "sweep= is not supported over serve (use mwl_batch)");
    require(!what.verify,
            "verify= is not supported over serve (use mwl_batch)");
    serve_item item;
    item.lambda = what.lambda;
    item.slack = what.slack.value_or(0.0);
    return item;
}

/// Expand a manifest into wire-ready items; throws `line_error` on a bad
/// line.
std::vector<serve_item> read_manifest(std::string_view text)
{
    std::vector<serve_item> items;
    for (const manifest_entry& e : parse_manifest(text)) {
        try {
            serve_item item = request_of(e.what);
            item.name = e.name;
            item.graph_text = write_graph(e.graph);
            items.push_back(std::move(item));
        } catch (const precondition_error& err) {
            throw line_error("manifest line " + std::to_string(e.line) +
                             ": " + err.what());
        }
    }
    return items;
}

/// One connection's share of the run: non-soak partitions the items
/// (worker c owns items c, c+C, ...); soak cycles all of them. Pipelines
/// up to `window` outstanding requests, retries busy rejections after
/// the server's suggested backoff.
void run_connection(const serve::endpoint& ep, std::size_t conn_index,
                    std::size_t conns, const std::vector<serve_item>& items,
                    std::size_t soak_requests, std::size_t window,
                    std::vector<result_row>* rows, soak_totals& totals)
{
    std::vector<std::size_t> mine;
    if (soak_requests == 0) {
        for (std::size_t i = conn_index; i < items.size(); i += conns) {
            mine.push_back(i);
        }
    }
    const std::size_t total =
        soak_requests != 0 ? soak_requests : mine.size();
    if (total == 0) {
        return;
    }
    const auto item_of = [&](std::size_t seq) {
        return soak_requests != 0
                   ? (conn_index + seq * conns) % items.size()
                   : mine[seq];
    };

    std::unique_ptr<serve::client_connection> conn;
    try {
        conn = std::make_unique<serve::client_connection>(ep);
    } catch (const error& e) {
        const std::lock_guard<std::mutex> lock(totals.mutex);
        ++totals.connect_failures;
        if (totals.connect_failures == 1) {
            std::cerr << "mwl_client: " << e.what() << '\n';
        }
        return;
    }

    std::unordered_map<std::uint64_t, std::size_t> outstanding;
    std::unordered_map<std::uint64_t, stopwatch> sent_at;
    std::size_t next = 0;
    std::size_t done = 0;
    std::uint64_t busy = 0;
    std::vector<double> latencies;
    bool disconnected = false;

    const auto send_seq = [&](std::uint64_t id, std::size_t item_index) {
        const serve_item& item = items[item_index];
        sent_at[id] = stopwatch();
        return conn->send(serve::format_alloc_request(
            id, item.lambda, item.slack, item.graph_text));
    };

    while (done < total && !disconnected) {
        while (outstanding.size() < window && next < total) {
            const std::size_t item_index = item_of(next);
            if (!send_seq(next, item_index)) {
                disconnected = true;
                break;
            }
            outstanding[next] = item_index;
            ++next;
        }
        if (disconnected || outstanding.empty()) {
            break;
        }
        std::optional<serve::response> resp;
        try {
            resp = conn->receive();
        } catch (const serve::protocol_error&) {
            resp = std::nullopt;
        }
        if (!resp) {
            disconnected = true;
            break;
        }
        const auto it = outstanding.find(resp->id);
        if (it == outstanding.end()) {
            continue; // response to a request we no longer track
        }
        if (resp->what == serve::response::status::busy) {
            ++busy;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(resp->retry_after_ms));
            if (!send_seq(resp->id, it->second)) {
                disconnected = true;
            }
            continue;
        }
        latencies.push_back(sent_at[resp->id].milliseconds());
        sent_at.erase(resp->id);
        const bool ok = resp->what == serve::response::status::ok;
        if (rows != nullptr) {
            result_row& row = (*rows)[it->second];
            row.have = true;
            row.ok = ok;
            row.lambda = resp->lambda;
            row.latency = resp->latency;
            row.area = resp->area;
            row.cached = resp->cached;
            row.coalesced = resp->coalesced;
            row.message = resp->message;
        }
        {
            const std::lock_guard<std::mutex> lock(totals.mutex);
            if (ok) {
                ++totals.ok;
            } else {
                ++totals.errors;
            }
        }
        outstanding.erase(it);
        ++done;
    }

    const std::lock_guard<std::mutex> lock(totals.mutex);
    totals.busy_retries += busy;
    if (disconnected) {
        ++totals.disconnects;
        totals.lost += outstanding.size() + (total - next);
    }
    totals.latencies_ms.insert(totals.latencies_ms.end(),
                               latencies.begin(), latencies.end());
}

int one_shot(const cli::tool& cli, const serve::endpoint& ep,
             const std::string& command, const std::vector<std::string>& args)
{
    serve::client_connection conn(ep);
    std::string payload;
    if (command == "ping") {
        payload = serve::format_ping_request(1);
    } else if (command == "stats") {
        payload = serve::format_stats_request(1);
    } else if (command == "alloc") {
        if (args.empty()) {
            cli.fail("alloc needs a graph file");
        }
        manifest_directives what;
        for (std::size_t i = 1; i < args.size(); ++i) {
            if (!parse_directive(args[i], what)) {
                cli.fail("unknown alloc token '" + args[i] + "'");
            }
        }
        const serve_item item = request_of(what);
        std::string text;
        if (!read_file(args[0], text)) {
            std::cerr << "mwl_client: cannot open graph file " << args[0]
                      << '\n';
            return 2;
        }
        payload = serve::format_alloc_request(
            1, item.lambda, item.slack, write_graph(parse_graph_string(text)));
    } else {
        cli.fail("unknown command '" + command + "'");
    }
    if (!conn.send(payload)) {
        std::cerr << "mwl_client: server closed the connection\n";
        return 1;
    }
    const auto resp = conn.receive();
    if (!resp) {
        std::cerr << "mwl_client: server closed the connection\n";
        return 1;
    }
    switch (resp->what) {
    case serve::response::status::ok:
        if (command == "stats") {
            std::cout << resp->body << '\n';
        } else if (command == "ping") {
            std::cout << "ok\n";
        } else {
            std::cout << "ok lambda=" << resp->lambda
                      << " latency=" << resp->latency
                      << " area=" << resp->area
                      << " cached=" << (resp->cached ? 1 : 0)
                      << " micros=" << resp->micros << '\n';
        }
        return 0;
    case serve::response::status::busy:
        std::cout << "busy retry-after-ms=" << resp->retry_after_ms << '\n';
        return 1;
    case serve::response::status::error:
        std::cerr << "mwl_client: server error: " << resp->message << '\n';
        return 1;
    }
    return 1;
}

} // namespace

int main(int argc, char** argv)
{
    std::signal(SIGPIPE, SIG_IGN);

    std::string endpoint_text;
    std::string command;
    std::vector<std::string> command_args;
    std::string manifest_file;
    std::size_t conns = 1;
    std::size_t soak_requests = 0;
    std::size_t window = 16;
    std::string json_file;
    bool csv = false;
    bool tolerate_disconnect = false;

    cli::tool cli("mwl_client", usage_text);
    cli.value("--manifest", manifest_file);
    cli.value("--conns", conns);
    cli.value("--soak", soak_requests);
    cli.value("--window", window);
    cli.value("--json", json_file);
    cli.flag("--csv", csv);
    cli.flag("--tolerate-disconnect", tolerate_disconnect);
    cli.positional([&](const std::string& arg) {
        if (endpoint_text.empty()) {
            endpoint_text = arg;
        } else if (command.empty() && manifest_file.empty()) {
            command = arg;
        } else {
            command_args.push_back(arg);
        }
    });
    cli.parse(argc, argv);
    if (endpoint_text.empty() ||
        (command.empty() && manifest_file.empty())) {
        cli.fail("need an endpoint and a command or --manifest");
    }
    if (conns < 1 || window < 1) {
        cli.fail("--conns and --window must be >= 1");
    }

    try {
        const serve::endpoint ep = serve::parse_endpoint(endpoint_text);

        if (manifest_file.empty()) {
            return one_shot(cli, ep, command, command_args);
        }

        // ---- manifest / soak mode ------------------------------------
        const cli::input in(manifest_file);
        if (!in) {
            std::cerr << "mwl_client: cannot open " << manifest_file << '\n';
            return 1;
        }
        const std::vector<serve_item> items = read_manifest(in.text());
        if (items.empty()) {
            std::cerr << "mwl_client: manifest has no entries\n";
            return 2;
        }

        std::vector<result_row> rows(items.size());
        soak_totals totals;
        stopwatch clock;
        {
            std::vector<std::thread> workers;
            workers.reserve(conns);
            for (std::size_t c = 0; c < conns; ++c) {
                workers.emplace_back([&, c] {
                    run_connection(ep, c, conns, items, soak_requests,
                                   window,
                                   soak_requests == 0 ? &rows : nullptr,
                                   totals);
                });
            }
            for (std::thread& w : workers) {
                w.join();
            }
        }
        const double wall = clock.seconds();
        const std::uint64_t answered = totals.ok + totals.errors;
        const double throughput =
            wall > 0.0 ? static_cast<double>(answered) / wall : 0.0;

        std::ostream& text = cli::report_stream(json_file);
        std::vector<manifest_result> results;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const result_row& row = rows[i];
            if (!row.have) {
                continue; // lost to a disconnect (or a soak): no rows
            }
            results.push_back({items[i].name, "alloc", row.lambda,
                               row.latency, row.area,
                               !row.ok         ? "error: " + row.message
                               : row.cached    ? "cached"
                               : row.coalesced ? "coalesced"
                                               : "computed"});
        }
        if (soak_requests == 0) {
            const table t = results_table("mwl_client results", results);
            if (csv) {
                t.print_csv(text);
            } else {
                t.print(text);
            }
        }

        const double p50 = percentile(totals.latencies_ms, 50.0);
        const double p99 = percentile(totals.latencies_ms, 99.0);
        std::ostringstream json;
        json << "{\"results\":" << results_json(results)
             << ",\"stats\":{\"entries\":" << items.size()
             << ",\"conns\":" << conns
             << ",\"requests\":" << answered
             << ",\"ok\":" << totals.ok
             << ",\"errors\":" << totals.errors
             << ",\"busy_retries\":" << totals.busy_retries
             << ",\"disconnects\":" << totals.disconnects
             << ",\"lost\":" << totals.lost
             << ",\"latency_p50_ms\":" << format_double(p50)
             << ",\"latency_p99_ms\":" << format_double(p99)
             << ",\"wall_seconds\":" << format_double(wall)
             << ",\"requests_per_second\":" << format_double(throughput)
             << "}}";

        text << "\nserve: " << answered << " responses (" << totals.ok
             << " ok, " << totals.errors << " errors, "
             << totals.busy_retries << " busy retries, "
             << totals.disconnects << " disconnects) over " << conns
             << " conns, " << table::num(wall * 1e3, 1) << " ms, "
             << table::num(throughput, 1) << " req/s, p50 "
             << table::num(p50, 2) << " ms, p99 " << table::num(p99, 2)
             << " ms\n";
        if (!json_file.empty() &&
            !cli.write_json(json_file, json.str(), text)) {
            return 1;
        }

        if (totals.connect_failures != 0 || totals.errors != 0) {
            return 1;
        }
        if (totals.disconnects != 0 && !tolerate_disconnect) {
            std::cerr << "mwl_client: " << totals.disconnects
                      << " connection(s) closed with " << totals.lost
                      << " request(s) unanswered\n";
            return 1;
        }
        return 0;
    } catch (const line_error& e) {
        std::cerr << "mwl_client: " << e.what() << '\n';
        return 2;
    } catch (const precondition_error& e) {
        std::cerr << "mwl_client: " << e.what() << '\n';
        return 2;
    } catch (const error& e) {
        std::cerr << "mwl_client: " << e.what() << '\n';
        return 1;
    }
}
