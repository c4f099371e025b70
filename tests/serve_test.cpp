// Allocation-service suite (src/serve/): wire framing and payload
// grammar over socketpairs, endpoint parsing, an in-process server
// exercised through real sockets (round trips, caching, admission
// control, malformed/oversized/disconnect recovery, drain), and the
// acceptance cases against the real binaries -- SIGTERM mid-load must
// drain with exit 3 and no torn frames, and a soak through 8 concurrent
// mwl_client connections must reproduce mwl_batch's allocations
// byte-for-byte on the same corpus manifest (MWL_TOOL_DIR).

#include "core/dpalloc.hpp"
#include "dfg/analysis.hpp"
#include "io/graph_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tgff/corpus.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace mwl {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ------------------------------------------------------------- helpers --

/// Unique unix socket path, kept short (sun_path is ~108 bytes) and
/// relative to the build dir ctest runs in.
std::string socket_path(const std::string& name)
{
    fs::create_directories("serve_test_tmp");
    const std::string path = "serve_test_tmp/" + name + ".sock";
    ::unlink(path.c_str());
    return path;
}

serve::endpoint unix_endpoint(const std::string& path)
{
    return serve::parse_endpoint("unix:" + path);
}

/// In-process server on its own thread, stoppable like the real daemon.
struct test_server {
    explicit test_server(serve::server_options options)
        : srv(std::make_unique<serve::server>(options))
    {
        runner = std::thread([this] {
            srv->run([this] { return stop.load(); });
        });
    }

    ~test_server() { halt(); }

    void halt()
    {
        stop.store(true);
        if (runner.joinable()) {
            runner.join();
        }
    }

    std::unique_ptr<serve::server> srv;
    std::thread runner;
    std::atomic<bool> stop{false};
};

/// Sets MWL_SERVE_STALL_MS for a scope; construct *before* the server so
/// its pool threads observe the write without racing it.
struct stall_guard {
    explicit stall_guard(int ms)
    {
        ::setenv("MWL_SERVE_STALL_MS", std::to_string(ms).c_str(), 1);
    }
    ~stall_guard() { ::unsetenv("MWL_SERVE_STALL_MS"); }
};

/// Read frames until the stream ends; every well-framed payload must
/// parse as a response (anything else is a torn/foreign frame).
std::vector<serve::response> drain_responses(int fd,
                                             serve::frame_status& final)
{
    std::vector<serve::response> out;
    for (;;) {
        std::string payload;
        const serve::frame_status status =
            serve::read_frame(fd, payload, serve::default_max_frame);
        if (status != serve::frame_status::ok) {
            final = status;
            return out;
        }
        out.push_back(serve::parse_response(payload));
    }
}

/// A small deterministic graph and its serialised form.
struct sample_graph {
    sequencing_graph graph;
    std::string text;
    int lambda_min = 0;
};

sample_graph make_sample(std::size_t n_ops = 8, std::uint64_t seed = 7)
{
    const sonic_model model;
    sample_graph out;
    std::vector<corpus_entry> corpus = make_corpus(n_ops, 1, model, seed);
    out.graph = std::move(corpus.front().graph);
    out.lambda_min = corpus.front().lambda_min;
    out.text = write_graph(out.graph);
    return out;
}

// -------------------------------------------------------------- framing --

struct socket_pair {
    socket_pair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds.data()), 0);
    }
    ~socket_pair()
    {
        for (const int fd : fds) {
            if (fd >= 0) {
                ::close(fd);
            }
        }
    }
    void close_writer()
    {
        ::close(fds[0]);
        fds[0] = -1;
    }
    std::array<int, 2> fds{-1, -1};
};

TEST(ServeFraming, RoundTripThenCleanEof)
{
    socket_pair sp;
    const std::string payload = "ping id=42";
    ASSERT_TRUE(serve::write_frame(sp.fds[0], payload));
    std::string got;
    EXPECT_EQ(serve::read_frame(sp.fds[1], got, serve::default_max_frame),
              serve::frame_status::ok);
    EXPECT_EQ(got, payload);
    // An empty payload frames fine too.
    ASSERT_TRUE(serve::write_frame(sp.fds[0], ""));
    EXPECT_EQ(serve::read_frame(sp.fds[1], got, serve::default_max_frame),
              serve::frame_status::ok);
    EXPECT_EQ(got, "");
    sp.close_writer();
    EXPECT_EQ(serve::read_frame(sp.fds[1], got, serve::default_max_frame),
              serve::frame_status::eof);
}

TEST(ServeFraming, BadMagicIsMalformed)
{
    socket_pair sp;
    const char junk[8] = {'H', 'T', 'T', 'P', 0, 0, 0, 1};
    ASSERT_EQ(::write(sp.fds[0], junk, sizeof junk),
              static_cast<ssize_t>(sizeof junk));
    std::string got;
    EXPECT_EQ(serve::read_frame(sp.fds[1], got, serve::default_max_frame),
              serve::frame_status::malformed);
}

TEST(ServeFraming, DeclaredLengthOverBoundIsOversized)
{
    socket_pair sp;
    // MWL1 + length 0x00010000 (65536) against a 256-byte bound.
    const unsigned char header[8] = {'M', 'W', 'L', '1', 0, 1, 0, 0};
    ASSERT_EQ(::write(sp.fds[0], header, sizeof header),
              static_cast<ssize_t>(sizeof header));
    std::string got;
    EXPECT_EQ(serve::read_frame(sp.fds[1], got, 256),
              serve::frame_status::oversized);
}

TEST(ServeFraming, StreamEndingMidFrameIsTruncated)
{
    { // mid-header
        socket_pair sp;
        ASSERT_EQ(::write(sp.fds[0], "MWL", 3), 3);
        sp.close_writer();
        std::string got;
        EXPECT_EQ(
            serve::read_frame(sp.fds[1], got, serve::default_max_frame),
            serve::frame_status::truncated);
    }
    { // mid-payload
        socket_pair sp;
        const unsigned char header[8] = {'M', 'W', 'L', '1', 0, 0, 0, 10};
        ASSERT_EQ(::write(sp.fds[0], header, sizeof header),
                  static_cast<ssize_t>(sizeof header));
        ASSERT_EQ(::write(sp.fds[0], "abc", 3), 3);
        sp.close_writer();
        std::string got;
        EXPECT_EQ(
            serve::read_frame(sp.fds[1], got, serve::default_max_frame),
            serve::frame_status::truncated);
    }
}

// -------------------------------------------------------------- grammar --

TEST(ServeGrammar, RequestRoundTrips)
{
    const std::string with_lambda =
        serve::format_alloc_request(9, 12, 0.0, "v a 1 2\n");
    const serve::request a = serve::parse_request(with_lambda);
    EXPECT_EQ(a.what, serve::request::kind::alloc);
    EXPECT_EQ(a.id, 9u);
    ASSERT_TRUE(a.lambda.has_value());
    EXPECT_EQ(*a.lambda, 12);
    EXPECT_EQ(a.graph_text, "v a 1 2\n");

    const serve::request b = serve::parse_request(
        serve::format_alloc_request(3, std::nullopt, 0.25, "g\n"));
    EXPECT_FALSE(b.lambda.has_value());
    EXPECT_DOUBLE_EQ(b.slack, 0.25);

    const serve::request s =
        serve::parse_request(serve::format_stats_request(77));
    EXPECT_EQ(s.what, serve::request::kind::stats);
    EXPECT_EQ(s.id, 77u);
    const serve::request p =
        serve::parse_request(serve::format_ping_request(1));
    EXPECT_EQ(p.what, serve::request::kind::ping);
}

TEST(ServeGrammar, RequestErrorsAreProtocolErrors)
{
    EXPECT_THROW(static_cast<void>(serve::parse_request("launch id=1")),
                 serve::protocol_error);
    EXPECT_THROW(static_cast<void>(serve::parse_request(
                     "alloc id=1 lambda=4 slack=10\ng")),
                 serve::protocol_error);
    EXPECT_THROW(
        static_cast<void>(serve::parse_request("alloc id=1 wibble=2\ng")),
        serve::protocol_error);
    EXPECT_THROW(
        static_cast<void>(serve::parse_request("alloc id=nope\ng")),
        serve::protocol_error);
    EXPECT_THROW(
        static_cast<void>(serve::parse_request("alloc id=1 slack=-3\ng")),
        serve::protocol_error);
}

TEST(ServeGrammar, RequestNumbersAreWholeTokensAndFinite)
{
    for (const char* payload : {"alloc id=12abc\ng", "alloc id=1 slack=inf\ng",
                                "alloc id=1 slack=nan\ng"}) {
        EXPECT_THROW(static_cast<void>(serve::parse_request(payload)),
                     serve::protocol_error)
            << payload;
    }
    try {
        static_cast<void>(serve::parse_request("alloc id=12x\ng"));
        ADD_FAILURE() << "parsed id=12x";
    } catch (const serve::protocol_error& e) {
        EXPECT_STREQ(e.what(), "bad numeric value in 'id=12x'");
    }
}

TEST(ServeGrammar, ResponseRoundTripsBitExactDoubles)
{
    serve::response ok;
    ok.what = serve::response::status::ok;
    ok.id = 11;
    ok.lambda = 9;
    ok.latency = 8;
    ok.area = 100.0 / 3.0; // not representable in 6 digits
    ok.cached = true;
    ok.coalesced = false;
    ok.micros = 1234.5678;
    const serve::response ok2 =
        serve::parse_response(serve::format_response(ok));
    EXPECT_EQ(ok2.what, serve::response::status::ok);
    EXPECT_EQ(ok2.id, 11u);
    EXPECT_EQ(ok2.lambda, 9);
    EXPECT_EQ(ok2.latency, 8);
    EXPECT_EQ(ok2.area, ok.area); // %.17g: bit-exact, not approximately
    EXPECT_TRUE(ok2.cached);
    EXPECT_FALSE(ok2.coalesced);
    EXPECT_EQ(ok2.micros, ok.micros);

    serve::response busy;
    busy.what = serve::response::status::busy;
    busy.id = 5;
    busy.retry_after_ms = 40;
    const serve::response busy2 =
        serve::parse_response(serve::format_response(busy));
    EXPECT_EQ(busy2.what, serve::response::status::busy);
    EXPECT_EQ(busy2.retry_after_ms, 40);

    serve::response err;
    err.what = serve::response::status::error;
    err.id = 6;
    err.message = "lambda 1 below minimum latency";
    const serve::response err2 =
        serve::parse_response(serve::format_response(err));
    EXPECT_EQ(err2.what, serve::response::status::error);
    EXPECT_EQ(err2.message, "lambda 1 below minimum latency");
    // The message is the rest of the header after id=N, whatever it
    // looks like: key=value text neither sets fields nor moves the id.
    for (const char* message :
         {"lambda=5 is below the minimum", "id=9 tail", "two  spaces  "}) {
        err.message = message;
        const serve::response err3 =
            serve::parse_response(serve::format_response(err));
        EXPECT_EQ(err3.id, 6u) << message;
        EXPECT_EQ(err3.lambda, 0) << message;
        EXPECT_EQ(err3.message, message);
    }

    serve::response stats;
    stats.what = serve::response::status::ok;
    stats.id = 2;
    stats.body = "{\"engine\":{}}";
    const serve::response stats2 =
        serve::parse_response(serve::format_response(stats));
    EXPECT_EQ(stats2.body, "{\"engine\":{}}");

    EXPECT_THROW(static_cast<void>(serve::parse_response("yes id=1")),
                 serve::protocol_error);
}

TEST(ServeGrammar, IntFieldsBeyondIntRangeAreMalformedNotTruncated)
{
    // Regression: these parsed as long and were cast to int unchecked, so
    // a wire value like 99999999999 silently wrapped. They must be
    // protocol errors like any other malformed numeric.
    EXPECT_THROW(static_cast<void>(serve::parse_response(
                     "busy id=5 retry-after-ms=99999999999")),
                 serve::protocol_error);
    EXPECT_THROW(static_cast<void>(serve::parse_response(
                     "ok id=1 lambda=99999999999 latency=3 area=1")),
                 serve::protocol_error);
    EXPECT_THROW(static_cast<void>(serve::parse_request(
                     "alloc id=1 lambda=99999999999\ng")),
                 serve::protocol_error);
}

TEST(ServeGrammar, ResponseNumbersAreWholeTokensAndFinite)
{
    for (const char* payload :
         {"ok id=5x", "error id=5x boom", "ok id=1 area=inf",
          "ok id=1 micros=nan", "ok id=1 cached=99999999999"}) {
        EXPECT_THROW(static_cast<void>(serve::parse_response(payload)),
                     serve::protocol_error)
            << payload;
    }
}

TEST(ServeGrammar, ErrorMessageWithoutIdIsTheWholeRestOfTheHeader)
{
    const serve::response bare = serve::parse_response("error lambda=5 boom");
    EXPECT_EQ(bare.id, 0u);
    EXPECT_EQ(bare.lambda, 0);
    EXPECT_EQ(bare.message, "lambda=5 boom");
}

TEST(ServeGrammar, CrlfAndTabsSeparateHeaderTokens)
{
    const serve::request req =
        serve::parse_request("alloc\tid=3\tlambda=4\r\nop a add 4\n");
    EXPECT_EQ(req.id, 3u);
    EXPECT_EQ(req.lambda, 4);
    EXPECT_EQ(req.graph_text, "op a add 4\n");
    const serve::response resp = serve::parse_response(
        "ok\tid=5 lambda=2\tlatency=2 area=1.5 cached=1 coalesced=0 "
        "micros=3\r");
    EXPECT_EQ(resp.id, 5u);
    EXPECT_EQ(resp.area, 1.5);
    EXPECT_TRUE(resp.cached);
}

TEST(ServeGrammar, EndpointParsing)
{
    const serve::endpoint u = serve::parse_endpoint("unix:/tmp/x.sock");
    EXPECT_EQ(u.what, serve::endpoint::kind::unix_socket);
    EXPECT_EQ(u.path, "/tmp/x.sock");
    EXPECT_EQ(serve::to_string(u), "unix:/tmp/x.sock");

    const serve::endpoint t = serve::parse_endpoint("tcp:127.0.0.1:7447");
    EXPECT_EQ(t.what, serve::endpoint::kind::tcp);
    EXPECT_EQ(t.host, "127.0.0.1");
    EXPECT_EQ(t.port, 7447);

    for (const char* bad :
         {"wibble", "unix:", "tcp:", "tcp:localhost", "tcp::7447",
          "tcp:h:", "tcp:h:0", "tcp:h:99999", "tcp:h:7x"}) {
        EXPECT_THROW(static_cast<void>(serve::parse_endpoint(bad)),
                     precondition_error)
            << bad;
    }
}

// ----------------------------------------------- in-process round trips --

TEST(ServeServer, PingAllocCacheAndStatsRoundTrip)
{
    const sample_graph sample = make_sample();
    const sonic_model model;
    const int lambda = relaxed_lambda(min_latency(sample.graph, model), 0.1);
    const dpalloc_result expected = dpalloc(sample.graph, model, lambda);

    serve::server_options options;
    options.unix_path = socket_path("roundtrip");
    options.jobs = 2;
    test_server ts(options);
    serve::client_connection conn(unix_endpoint(options.unix_path));

    ASSERT_TRUE(conn.send(serve::format_ping_request(1)));
    auto pong = conn.receive();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->what, serve::response::status::ok);
    EXPECT_EQ(pong->id, 1u);

    ASSERT_TRUE(conn.send(
        serve::format_alloc_request(2, std::nullopt, 0.1, sample.text)));
    auto first = conn.receive();
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->what, serve::response::status::ok)
        << first->message;
    EXPECT_EQ(first->id, 2u);
    EXPECT_EQ(first->lambda, lambda);
    EXPECT_EQ(first->latency, expected.path.latency);
    EXPECT_EQ(first->area, expected.path.total_area); // wire is bit-exact
    EXPECT_FALSE(first->cached);

    // The identical job again: served from the lock-striped cache.
    ASSERT_TRUE(conn.send(
        serve::format_alloc_request(3, std::nullopt, 0.1, sample.text)));
    auto second = conn.receive();
    ASSERT_TRUE(second.has_value());
    ASSERT_EQ(second->what, serve::response::status::ok);
    EXPECT_TRUE(second->cached);
    EXPECT_EQ(second->lambda, first->lambda);
    EXPECT_EQ(second->latency, first->latency);
    EXPECT_EQ(second->area, first->area);

    ASSERT_TRUE(conn.send(serve::format_stats_request(4)));
    auto stats = conn.receive();
    ASSERT_TRUE(stats.has_value());
    ASSERT_EQ(stats->what, serve::response::status::ok);
    for (const char* field :
         {"\"uptime_seconds\"", "\"queue_depth\"", "\"max_inflight\"",
          "\"cache_hits\"", "\"hit_rate\"", "\"in_flight\"",
          "\"evictions\"", "\"p50\"", "\"p99\""}) {
        EXPECT_NE(stats->body.find(field), std::string::npos)
            << field << " missing from: " << stats->body;
    }
    EXPECT_NE(stats->body.find("\"cache_hits\":1"), std::string::npos)
        << stats->body;

    ts.halt();
    const serve::server_counters c = ts.srv->counters();
    EXPECT_EQ(c.accepted, 1u);
    EXPECT_EQ(c.alloc_requests, 2u);
    EXPECT_EQ(c.stats_requests, 1u);
    EXPECT_EQ(c.ok_responses, 2u); // ok/error tallies cover alloc jobs
    const engine_stats e = ts.srv->engine_snapshot();
    EXPECT_EQ(e.submitted, 2u);
    EXPECT_EQ(e.cache_hits, 1u);
    EXPECT_EQ(e.executed, 1u);
}

TEST(ServeServer, BadJobsGetErrorResponsesAndTheConnectionSurvives)
{
    const sample_graph sample = make_sample();
    serve::server_options options;
    options.unix_path = socket_path("badjobs");
    options.jobs = 2;
    test_server ts(options);
    serve::client_connection conn(unix_endpoint(options.unix_path));

    // lambda below the minimum latency: infeasible, reported per-job.
    ASSERT_TRUE(
        conn.send(serve::format_alloc_request(1, 0, 0.0, sample.text)));
    auto infeasible = conn.receive();
    ASSERT_TRUE(infeasible.has_value());
    EXPECT_EQ(infeasible->what, serve::response::status::error);
    EXPECT_EQ(infeasible->id, 1u);
    EXPECT_FALSE(infeasible->message.empty());

    // A body that is not a graph.
    ASSERT_TRUE(conn.send(serve::format_alloc_request(
        2, std::nullopt, 0.0, "this is not a graph\n")));
    auto garbage = conn.receive();
    ASSERT_TRUE(garbage.has_value());
    EXPECT_EQ(garbage->what, serve::response::status::error);

    // The connection is still fine.
    ASSERT_TRUE(conn.send(serve::format_ping_request(3)));
    auto pong = conn.receive();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->what, serve::response::status::ok);
}

TEST(ServeServer, SlackBeyondIntLambdaIsAnErrorFrame)
{
    const sample_graph sample = make_sample();
    serve::server_options options;
    options.unix_path = socket_path("hugeslack");
    options.jobs = 1;
    test_server ts(options);
    serve::client_connection conn(unix_endpoint(options.unix_path));
    ASSERT_TRUE(conn.send("alloc id=4 slack=1e300\n" + sample.text));
    const auto resp = conn.receive();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->what, serve::response::status::error);
    EXPECT_EQ(resp->id, 4u);
    EXPECT_EQ(resp->message,
              "relaxed lambda exceeds INT_MAX at slack 1e+298");
}

// ------------------------------------- protocol abuse against a server --

TEST(ServeServer, MalformedFrameClosesThatConnectionOnly)
{
    serve::server_options options;
    options.unix_path = socket_path("malformed");
    options.jobs = 1;
    test_server ts(options);

    {
        serve::client_connection conn(unix_endpoint(options.unix_path));
        const char junk[] = "GET / HTTP/1.1\r\n\r\n";
        ASSERT_GT(::write(conn.fd(), junk, sizeof junk - 1), 0);
        // The server answers with one error frame, then closes.
        auto reply = conn.receive();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->what, serve::response::status::error);
        EXPECT_FALSE(conn.receive().has_value());
    }

    // A fresh connection is unaffected.
    serve::client_connection conn(unix_endpoint(options.unix_path));
    ASSERT_TRUE(conn.send(serve::format_ping_request(1)));
    auto pong = conn.receive();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->what, serve::response::status::ok);

    ts.halt();
    EXPECT_EQ(ts.srv->counters().protocol_errors, 1u);
}

TEST(ServeServer, OversizedGraphIsRejectedWithoutReadingIt)
{
    const sample_graph big = make_sample(20, 11);
    serve::server_options options;
    options.unix_path = socket_path("oversized");
    options.jobs = 1;
    options.max_frame = 128; // far below the serialised graph
    test_server ts(options);
    ASSERT_GT(big.text.size(), options.max_frame);

    serve::client_connection conn(unix_endpoint(options.unix_path));
    ASSERT_TRUE(conn.send(
        serve::format_alloc_request(1, std::nullopt, 0.0, big.text)));
    auto reply = conn.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->what, serve::response::status::error);
    EXPECT_NE(reply->message.find("exceeds"), std::string::npos)
        << reply->message;
    // The stream is desynced by design; the server closes it.
    EXPECT_FALSE(conn.receive().has_value());

    serve::client_connection again(unix_endpoint(options.unix_path));
    ASSERT_TRUE(again.send(serve::format_ping_request(1)));
    EXPECT_TRUE(again.receive().has_value());
}

TEST(ServeServer, TruncatedFrameLeavesServerHealthy)
{
    serve::server_options options;
    options.unix_path = socket_path("truncated");
    options.jobs = 1;
    test_server ts(options);

    {
        serve::client_connection conn(unix_endpoint(options.unix_path));
        const unsigned char header[8] = {'M', 'W', 'L', '1', 0, 0, 0, 64};
        ASSERT_EQ(::write(conn.fd(), header, sizeof header),
                  static_cast<ssize_t>(sizeof header));
        ASSERT_EQ(::write(conn.fd(), "half", 4), 4);
        // Disconnect mid-payload.
    }

    serve::client_connection conn(unix_endpoint(options.unix_path));
    ASSERT_TRUE(conn.send(serve::format_ping_request(1)));
    auto pong = conn.receive();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->what, serve::response::status::ok);
}

// --------------------------------------------------- admission control --

TEST(ServeServer, QueueFullRejectsWithBusyAndRetryAfter)
{
    const sample_graph sample = make_sample();
    const stall_guard stall(150); // before the server: pool sees it
    serve::server_options options;
    options.unix_path = socket_path("queuefull");
    options.jobs = 1;
    options.queue_depth = 1;
    options.max_inflight = 1;
    options.retry_after_ms = 7;
    test_server ts(options);
    serve::client_connection conn(unix_endpoint(options.unix_path));

    // Four distinct jobs back-to-back; with one admitted slot and a
    // 150ms stall, the later ones must bounce.
    for (std::uint64_t id = 1; id <= 4; ++id) {
        ASSERT_TRUE(conn.send(serve::format_alloc_request(
            id, sample.lambda_min + static_cast<int>(id), 0.0,
            sample.text)));
    }
    std::size_t ok = 0;
    std::size_t busy = 0;
    for (int i = 0; i < 4; ++i) {
        auto reply = conn.receive();
        ASSERT_TRUE(reply.has_value());
        if (reply->what == serve::response::status::busy) {
            ++busy;
            EXPECT_EQ(reply->retry_after_ms, 7);
        } else {
            ASSERT_EQ(reply->what, serve::response::status::ok)
                << reply->message;
            ++ok;
        }
    }
    EXPECT_GE(ok, 1u);
    EXPECT_GE(busy, 1u);
    EXPECT_EQ(ok + busy, 4u);

    ts.halt();
    EXPECT_EQ(ts.srv->counters().rejected_busy, busy);
}

TEST(ServeServer, DisconnectWithJobsInFlightLeavesServerHealthy)
{
    const sample_graph sample = make_sample();
    const stall_guard stall(100);
    serve::server_options options;
    options.unix_path = socket_path("disco");
    options.jobs = 2;
    test_server ts(options);

    {
        serve::client_connection conn(unix_endpoint(options.unix_path));
        ASSERT_TRUE(conn.send(
            serve::format_alloc_request(1, std::nullopt, 0.0, sample.text)));
        ASSERT_TRUE(conn.send(
            serve::format_alloc_request(2, std::nullopt, 0.1, sample.text)));
        // Vanish while both jobs are (probably) still stalled.
    }

    serve::client_connection conn(unix_endpoint(options.unix_path));
    ASSERT_TRUE(conn.send(serve::format_ping_request(1)));
    auto pong = conn.receive();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->what, serve::response::status::ok);

    // Drain must not hang on the dead connection's unanswered jobs.
    ts.halt();
}

// ---------------------------------------------------------------- drain --

TEST(ServeServer, DrainAnswersEveryAdmittedJobWholeThenEof)
{
    const sample_graph sample = make_sample();
    const stall_guard stall(100);
    serve::server_options options;
    options.unix_path = socket_path("drain");
    options.jobs = 2;
    test_server ts(options);

    const auto fd =
        serve::connect_with_retry(unix_endpoint(options.unix_path), 2000);
    ASSERT_TRUE(fd.has_value());
    for (std::uint64_t id = 1; id <= 4; ++id) {
        // Distinct lambdas: four distinct jobs, no cache shortcuts.
        ASSERT_TRUE(serve::write_frame(
            *fd, serve::format_alloc_request(id, sample.lambda_min +
                                                     static_cast<int>(id),
                                             0.0, sample.text)));
    }
    // Wait until at least one job is admitted, then pull the plug.
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (ts.srv->counters().alloc_requests == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    ASSERT_GT(ts.srv->counters().alloc_requests, 0u);
    ts.stop.store(true);

    serve::frame_status final = serve::frame_status::ok;
    const std::vector<serve::response> replies =
        drain_responses(*fd, final);
    ::close(*fd);
    // Never a torn or foreign frame: the stream ends exactly at a
    // frame boundary after the last admitted job's response.
    EXPECT_EQ(final, serve::frame_status::eof);
    for (const serve::response& r : replies) {
        EXPECT_EQ(r.what, serve::response::status::ok) << r.message;
    }

    ts.halt();
    const serve::server_counters c = ts.srv->counters();
    EXPECT_EQ(replies.size(), c.ok_responses + c.error_responses +
                                  c.rejected_busy);
    EXPECT_EQ(c.queued, 0u);
}

// ------------------------------------------ the real binaries, under fire --

std::string tool(const std::string& name)
{
    return std::string(MWL_TOOL_DIR) + "/" + name;
}

struct run_result {
    int exit_code = -1;
    std::string output;
};

run_result run(const std::string& command)
{
    run_result result;
    FILE* pipe = popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed for: " << command;
        return result;
    }
    std::array<char, 4096> buffer;
    std::size_t got = 0;
    while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
        result.output.append(buffer.data(), got);
    }
    const int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

std::string slurp(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return std::move(buffer).str();
}

/// Fork/exec mwl_serve on a unix socket; stdout+stderr land in a file.
struct daemon_process {
    pid_t pid = -1;
    std::string sock;
    std::string out_path;

    void start(const std::string& name, int stall_ms,
               std::vector<std::string> extra_args = {})
    {
        sock = socket_path(name);
        out_path = "serve_test_tmp/" + name + ".out";
        pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            if (stall_ms > 0) {
                ::setenv("MWL_SERVE_STALL_MS",
                         std::to_string(stall_ms).c_str(), 1);
            } else {
                ::unsetenv("MWL_SERVE_STALL_MS");
            }
            if (std::freopen(out_path.c_str(), "w", stdout) == nullptr) {
                _exit(126);
            }
            ::dup2(::fileno(stdout), STDERR_FILENO);
            const std::string exe = tool("mwl_serve");
            std::vector<std::string> args = {exe, "--unix", sock,
                                             "--jobs", "2"};
            args.insert(args.end(), extra_args.begin(), extra_args.end());
            std::vector<char*> argv;
            argv.reserve(args.size() + 1);
            for (std::string& a : args) {
                argv.push_back(a.data());
            }
            argv.push_back(nullptr);
            ::execv(exe.c_str(), argv.data());
            _exit(127);
        }
    }

    int wait_exit()
    {
        int status = 0;
        if (::waitpid(pid, &status, 0) != pid) {
            return -1;
        }
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    ~daemon_process()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
};

TEST(ServeAcceptance, SigtermMidLoadDrainsWholeFramesAndExits3)
{
    const sample_graph sample = make_sample();
    daemon_process daemon;
    daemon.start("sigterm", /*stall_ms=*/120);

    const serve::endpoint ep = unix_endpoint(daemon.sock);
    const auto fd = serve::connect_with_retry(ep, 5000);
    ASSERT_TRUE(fd.has_value()) << slurp(daemon.out_path);

    for (std::uint64_t id = 1; id <= 6; ++id) {
        ASSERT_TRUE(serve::write_frame(
            *fd, serve::format_alloc_request(id, sample.lambda_min +
                                                     static_cast<int>(id),
                                             0.0, sample.text)));
    }
    // One response proves the daemon is mid-load, then SIGTERM.
    std::string payload;
    ASSERT_EQ(serve::read_frame(*fd, payload, serve::default_max_frame),
              serve::frame_status::ok);
    const serve::response first = serve::parse_response(payload);
    EXPECT_EQ(first.what, serve::response::status::ok) << first.message;
    ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);

    serve::frame_status final = serve::frame_status::ok;
    const std::vector<serve::response> rest = drain_responses(*fd, final);
    ::close(*fd);
    EXPECT_EQ(final, serve::frame_status::eof)
        << "torn frame during drain: " << serve::to_string(final);
    for (const serve::response& r : rest) {
        EXPECT_EQ(r.what, serve::response::status::ok) << r.message;
    }

    EXPECT_EQ(daemon.wait_exit(), 3) << slurp(daemon.out_path);
    EXPECT_NE(slurp(daemon.out_path).find("drained"), std::string::npos);
}

/// Pull the ordered (entry, lambda, latency, area) tuples out of a
/// results JSON -- the fields both tools print with identical formatting.
std::vector<std::string> result_tuples(const std::string& json)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while ((at = json.find("{\"entry\":", at)) != std::string::npos) {
        const std::size_t end = json.find('}', at);
        EXPECT_NE(end, std::string::npos);
        const std::string object = json.substr(at, end - at);
        const std::size_t status = object.find(",\"status\"");
        EXPECT_NE(status, std::string::npos) << object;
        out.push_back(object.substr(0, status)); // entry..area, verbatim
        at = end;
    }
    return out;
}

TEST(ServeAcceptance, EightConnectionSoakMatchesBatchByteForByte)
{
    fs::create_directories("serve_test_tmp");
    const std::string manifest = "serve_test_tmp/soak.manifest";
    std::ofstream(manifest) << "corpus ops=8 count=12 seed=7 slack=10\n"
                               "corpus ops=6 count=8 seed=9\n";

    const run_result batch =
        run(tool("mwl_batch") + " " + manifest +
            " --jobs 4 --json serve_test_tmp/batch.json");
    ASSERT_EQ(batch.exit_code, 0) << batch.output;

    daemon_process daemon;
    daemon.start("soak", /*stall_ms=*/0);
    ASSERT_TRUE(serve::connect_with_retry(unix_endpoint(daemon.sock), 5000)
                    .has_value())
        << slurp(daemon.out_path);

    const run_result client =
        run(tool("mwl_client") + " unix:" + daemon.sock + " --manifest " +
            manifest + " --conns 8 --json serve_test_tmp/serve.json");
    ASSERT_EQ(client.exit_code, 0) << client.output;

    const std::vector<std::string> expect =
        result_tuples(slurp("serve_test_tmp/batch.json"));
    const std::vector<std::string> got =
        result_tuples(slurp("serve_test_tmp/serve.json"));
    ASSERT_EQ(expect.size(), 20u);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i], expect[i]) << "entry " << i;
    }

    // Stats are visible while the daemon is up, and a soak pass runs
    // clean over the (now warm) cache.
    const run_result stats =
        run(tool("mwl_client") + " unix:" + daemon.sock + " stats");
    EXPECT_EQ(stats.exit_code, 0) << stats.output;
    for (const char* field : {"\"hit_rate\"", "\"p50\"", "\"in_flight\""}) {
        EXPECT_NE(stats.output.find(field), std::string::npos)
            << field << " missing from: " << stats.output;
    }
    const run_result soak =
        run(tool("mwl_client") + " unix:" + daemon.sock + " --manifest " +
            manifest + " --conns 8 --soak 5");
    EXPECT_EQ(soak.exit_code, 0) << soak.output;
    EXPECT_NE(soak.output.find("req/s"), std::string::npos) << soak.output;

    ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
    EXPECT_EQ(daemon.wait_exit(), 3) << slurp(daemon.out_path);
}

} // namespace
} // namespace mwl
