// Seeded mutation suite for every text grammar on io/line_reader: .mwl
// graphs, graph/corpus manifests, campaign and tune specs, MWL1 request
// and response headers, and campaign journal records.
//
// Each grammar starts from valid seed texts built here -- write_graph of
// the named scenarios and of tgff graphs, the manifests and specs the
// unit suites use, formatted MWL1 frames, to_payload records and a store
// header -- and mutates them: delete, duplicate or swap tokens, truncate,
// flip one byte, or splice in a token from another seed. Invariant: every
// input either parses or throws the grammar's own error type
// (parse_error, line_error, protocol_error, store_format_error) -- never
// another exception, an abort or a sanitizer report. Accepted .mwl texts
// and point records must also round-trip through their writers.
//
//   MWL_GRAMMAR_SEED=0x6a11 ./grammar_fuzz_test

#include "campaign/campaign_spec.hpp"
#include "campaign/result_store.hpp"
#include "io/graph_io.hpp"
#include "io/manifest.hpp"
#include "io/record_journal.hpp"
#include "scenarios/scenarios.hpp"
#include "serve/protocol.hpp"
#include "support/rng.hpp"
#include "tgff/generator.hpp"
#include "wordlength/tune_spec.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mwl {
namespace {

namespace fs = std::filesystem;

constexpr int mutants_per_seed = 200;

/// `text` with control bytes escaped, for failure messages.
std::string printable(const std::string& text)
{
    std::string out;
    for (const char c : text) {
        const auto byte = static_cast<unsigned char>(c);
        if (std::isprint(byte) != 0) {
            out += c;
        } else {
            char hex[8];
            std::snprintf(hex, sizeof hex, "\\x%02x", byte);
            out += hex;
        }
    }
    return out;
}

/// (offset, length) of every whitespace-separated token of `text`.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& text)
{
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])) != 0) {
            ++i;
        }
        const std::size_t begin = i;
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])) == 0) {
            ++i;
        }
        if (i > begin) {
            spans.emplace_back(begin, i - begin);
        }
    }
    return spans;
}

/// Every token of every text, the splice donors.
std::vector<std::string> tokens_of(const std::vector<std::string>& texts)
{
    std::vector<std::string> out;
    for (const std::string& text : texts) {
        for (const auto& [at, length] : token_spans(text)) {
            out.push_back(text.substr(at, length));
        }
    }
    return out;
}

/// One to three random edits of `text`.
std::string mutate(std::string text, const std::vector<std::string>& donors,
                   rng& random)
{
    const int edits = random.uniform_int(1, 3);
    for (int e = 0; e < edits; ++e) {
        const auto spans = token_spans(text);
        const auto pick = [&] {
            return spans[random.uniform(0, spans.size() - 1)];
        };
        switch (random.uniform_int(0, 5)) {
        case 0: // delete a token
            if (!spans.empty()) {
                const auto [at, length] = pick();
                text.erase(at, length);
            }
            break;
        case 1: // duplicate a token
            if (!spans.empty()) {
                const auto [at, length] = pick();
                text.insert(at + length, " " + text.substr(at, length));
            }
            break;
        case 2: // swap two tokens
            if (spans.size() >= 2) {
                auto a = pick();
                auto b = pick();
                if (a.first > b.first) {
                    std::swap(a, b);
                }
                if (a.first != b.first) {
                    const std::string first = text.substr(a.first, a.second);
                    const std::string second =
                        text.substr(b.first, b.second);
                    text.replace(b.first, b.second, first);
                    text.replace(a.first, a.second, second);
                }
            }
            break;
        case 3: // truncate
            text.resize(random.uniform(0, text.size()));
            break;
        case 4: // flip one byte
            if (!text.empty()) {
                const std::size_t at = random.uniform(0, text.size() - 1);
                text[at] = static_cast<char>(
                    static_cast<unsigned char>(text[at]) ^
                    random.uniform_int(1, 255));
            }
            break;
        default: // splice in a token from another seed
            if (!spans.empty() && !donors.empty()) {
                const auto [at, length] = pick();
                text.replace(at, length,
                             donors[random.uniform(0, donors.size() - 1)]);
            }
            break;
        }
    }
    return text;
}

/// Run `parse` on `text`: true if it parses, false if it throws `Error`;
/// any other exception fails the test.
template <typename Error>
bool accepted(const char* grammar, const std::string& text,
              const std::function<void(const std::string&)>& parse)
{
    try {
        parse(text);
        return true;
    } catch (const Error&) {
        return false;
    } catch (const std::exception& e) {
        ADD_FAILURE() << grammar << " threw a foreign exception: "
                      << e.what() << "\ninput: " << printable(text);
        return false;
    }
}

/// Mutants of every seed (the seeds themselves first) through `check`.
void fuzz(const std::vector<std::string>& seeds,
          const std::vector<std::string>& donors, std::uint64_t seed,
          const std::function<void(const std::string&)>& check)
{
    rng random(seed);
    for (const std::string& text : seeds) {
        check(text);
        for (int m = 0; m < mutants_per_seed; ++m) {
            check(mutate(text, donors, random));
        }
    }
}

// ------------------------------------------------------------- seeds --

std::vector<std::string> mwl_seeds()
{
    std::vector<std::string> seeds;
    for (const scenario& s : all_scenarios()) {
        seeds.push_back(write_graph(s.graph));
    }
    rng random(41);
    for (const std::size_t n : {4u, 8u, 12u}) {
        tgff_options options;
        options.n_ops = n;
        seeds.push_back(write_graph(generate_tgff(options, random)));
    }
    seeds.push_back("# a tiny graph\nop m1 mul 12 8\nop a1 add 16 # sum\n"
                    "\ndep m1 a1\n");
    return seeds;
}

const char* const fuzz_graph_file = "grammar_fuzz_test_tiny.mwl";

std::vector<std::string> manifest_seeds()
{
    return {
        "# jobs\n"
        "graph grammar_fuzz_test_tiny.mwl lambda=7\n"
        "corpus ops=4 count=2 seed=5 slack=20 # two graphs\n"
        "graph grammar_fuzz_test_tiny.mwl sweep=30\n"
        "corpus ops=3 count=1 verify=4\n",
        "corpus ops=4 count=2 seed=3\ncorpus ops=4 count=2 seed=3\n",
        "corpus ops=5 count=1 mul-fraction=0.5 min-width=4 max-width=9 "
        "slack=10\n",
    };
}

std::vector<std::string> campaign_spec_seeds()
{
    return {
        "scenario fir4\n",
        "# a comment\n"
        "scenario fir4 fir8\n"
        "lambda slack=10..20 step=5\n"
        "model adder-latency=1,2 mul-bits-per-cycle=4,8\n"
        "perturb count=3 flips=1 seed=99\n",
        "scenario fir4\nlambda slack=0\n"
        "tune budget=1e-6,1e-4 min-frac=2 max-frac=20 seed=7 max-steps=8 "
        "anneal=3\n",
    };
}

std::vector<std::string> tune_spec_seeds()
{
    return {
        "# tuned sweep\n"
        "scenario fir4 fir8\n"
        "budget 1e-6 1e-4\n"
        "frac min=3 max=20\n"
        "search seed=7 max-steps=5 anneal=9 temp=0.1\n"
        "gain model=attenuating base-frac=6 cap=28\n"
        "lambda slack=10\n",
        "graph a.mwl b.mwl\nbudget 1e-5\n",
    };
}

std::vector<std::string> request_seeds()
{
    const std::string graph = write_graph(make_scenario("fir4").graph);
    return {
        serve::format_alloc_request(9, 12, 0.0, graph),
        serve::format_alloc_request(3, std::nullopt, 0.25, graph),
        serve::format_alloc_request(18446744073709551615ULL, std::nullopt,
                                    0.0, "op a add 4\n"),
        serve::format_stats_request(77),
        serve::format_ping_request(1),
    };
}

std::vector<std::string> response_seeds()
{
    serve::response ok;
    ok.id = 11;
    ok.lambda = 9;
    ok.latency = 8;
    ok.area = 100.0 / 3.0;
    ok.cached = true;
    ok.micros = 1234.5678;
    serve::response busy;
    busy.what = serve::response::status::busy;
    busy.id = 5;
    busy.retry_after_ms = 40;
    serve::response err;
    err.what = serve::response::status::error;
    err.id = 6;
    err.message = "lambda=5 is below the minimum";
    serve::response stats;
    stats.id = 2;
    stats.body = "{\"engine\":{}}";
    return {serve::format_response(ok), serve::format_response(busy),
            serve::format_response(err), serve::format_response(stats)};
}

std::vector<std::string> point_seeds()
{
    point_result ok;
    ok.index = 3;
    ok.key = "fir4/v0/a2m8/s30";
    ok.lambda = 13;
    ok.latency = 12;
    ok.area = 0.1 + 0.2;
    point_result failed = ok;
    failed.index = 0;
    failed.error = "infeasible: lambda below lambda_min";
    return {to_payload(ok), to_payload(failed)};
}

/// The donor pool: tokens of every grammar's seeds.
const std::vector<std::string>& donors()
{
    static const std::vector<std::string> pool = [] {
        std::vector<std::string> all;
        for (const auto& group :
             {mwl_seeds(), manifest_seeds(), campaign_spec_seeds(),
              tune_spec_seeds(), request_seeds(), response_seeds(),
              point_seeds()}) {
            all.insert(all.end(), group.begin(), group.end());
        }
        return tokens_of(all);
    }();
    return pool;
}

std::uint64_t suite_seed(std::uint64_t fallback)
{
    return testing::env_seed("MWL_GRAMMAR_SEED", fallback);
}

// ------------------------------------------------------------- suites --

TEST(GrammarFuzz, MwlParsesOrFailsTypedAndRoundTrips)
{
    const std::uint64_t seed = suite_seed(0x6a11);
    MWL_TRACE_SEED("MWL_GRAMMAR_SEED", seed);
    fuzz(mwl_seeds(), donors(), seed, [](const std::string& text) {
        sequencing_graph graph;
        if (!accepted<parse_error>(".mwl", text, [&](const std::string& t) {
                graph = parse_graph_string(t);
            })) {
            return;
        }
        const sequencing_graph copy = parse_graph_string(write_graph(graph));
        ASSERT_EQ(copy.size(), graph.size()) << printable(text);
        for (const op_id o : graph.all_ops()) {
            ASSERT_EQ(copy.shape(o), graph.shape(o)) << printable(text);
            ASSERT_EQ(copy.op(o).name, graph.op(o).name) << printable(text);
            const auto want = graph.successors(o);
            const auto got = copy.successors(o);
            ASSERT_EQ(std::vector<op_id>(got.begin(), got.end()),
                      std::vector<op_id>(want.begin(), want.end()))
                << printable(text);
        }
    });
}

TEST(GrammarFuzz, ManifestsParseOrFailTyped)
{
    const std::uint64_t seed = suite_seed(0x6a12);
    MWL_TRACE_SEED("MWL_GRAMMAR_SEED", seed);
    std::ofstream(fuzz_graph_file) << "op a add 4\nop m mul 4 4\ndep a m\n";
    fuzz(manifest_seeds(), donors(), seed, [](const std::string& text) {
        static_cast<void>(accepted<line_error>(
            "manifest", text, [](const std::string& t) {
                static_cast<void>(parse_manifest(t));
            }));
    });
}

TEST(GrammarFuzz, SpecsParseOrFailTyped)
{
    const std::uint64_t seed = suite_seed(0x6a13);
    MWL_TRACE_SEED("MWL_GRAMMAR_SEED", seed);
    fuzz(campaign_spec_seeds(), donors(), seed, [](const std::string& text) {
        static_cast<void>(accepted<spec_error>(
            "campaign spec", text, [](const std::string& t) {
                static_cast<void>(campaign_spec::parse(t));
            }));
    });
    fuzz(tune_spec_seeds(), donors(), seed + 1, [](const std::string& text) {
        static_cast<void>(accepted<spec_error>(
            "tune spec", text, [](const std::string& t) {
                static_cast<void>(tune_spec::parse(t));
            }));
    });
}

TEST(GrammarFuzz, Mwl1HeadersParseOrFailTyped)
{
    const std::uint64_t seed = suite_seed(0x6a14);
    MWL_TRACE_SEED("MWL_GRAMMAR_SEED", seed);
    fuzz(request_seeds(), donors(), seed, [](const std::string& text) {
        serve::request req;
        if (accepted<serve::protocol_error>(
                "MWL1 request", text,
                [&](const std::string& t) { req = serve::parse_request(t); })) {
            // The server parses the body next, with its own error type.
            static_cast<void>(accepted<parse_error>(
                ".mwl body", req.graph_text, [](const std::string& t) {
                    static_cast<void>(parse_graph_string(t));
                }));
        }
    });
    fuzz(response_seeds(), donors(), seed + 1, [](const std::string& text) {
        serve::response r;
        if (!accepted<serve::protocol_error>(
                "MWL1 response", text,
                [&](const std::string& t) { r = serve::parse_response(t); }) ||
            r.what != serve::response::status::error) {
            return;
        }
        // An error's id and message survive the server's formatter.
        const serve::response again =
            serve::parse_response(serve::format_response(r));
        EXPECT_EQ(again.id, r.id) << printable(text);
        EXPECT_EQ(again.message, r.message) << printable(text);
    });
}

TEST(GrammarFuzz, JournalRecordsParseOrFailTypedAndRoundTrip)
{
    const std::uint64_t seed = suite_seed(0x6a15);
    MWL_TRACE_SEED("MWL_GRAMMAR_SEED", seed);
    fuzz(point_seeds(), donors(), seed, [](const std::string& text) {
        point_result r;
        if (accepted<store_format_error>(
                "point record", text,
                [&](const std::string& t) { r = parse_point_payload(t); })) {
            EXPECT_EQ(parse_point_payload(to_payload(r)), r)
                << printable(text);
        }
    });

    // Headers only parse inside a store: fabricate a journal whose header
    // is the mutant, followed by two valid points.
    const fs::path dir = "grammar_fuzz_test_tmp";
    fs::remove_all(dir);
    static_cast<void>(result_store::create(dir, "scenario fir4\n",
                                           /*fingerprint=*/0x0123abcd,
                                           /*total_points=*/4));
    const std::string header =
        load_journal(dir / "journal.log").payloads.front();
    const std::string points = frame_record(point_seeds()[0]) +
                               frame_record(point_seeds()[1]);
    fuzz({header}, donors(), seed + 1, [&](const std::string& text) {
        if (text.find('\n') != std::string::npos) {
            return; // not storable: the framing holds one line per record
        }
        std::ofstream(dir / "journal.log", std::ios::binary)
            << frame_record(text) << points;
        static_cast<void>(accepted<store_format_error>(
            "store header", text, [&](const std::string&) {
                static_cast<void>(result_store::open(dir, std::nullopt));
            }));
    });
}

} // namespace
} // namespace mwl
