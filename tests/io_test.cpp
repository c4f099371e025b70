// Unit tests for src/io: .mwl parsing, error reporting with line numbers,
// write/parse round-trips, the line-grammar reader and manifests.

#include "io/graph_io.hpp"
#include "io/line_reader.hpp"
#include "io/manifest.hpp"
#include "support/rng.hpp"
#include "tgff/generator.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string_view>

namespace mwl {
namespace {

TEST(GraphIo, ParsesOperationsAndDependencies)
{
    const sequencing_graph g = parse_graph_string(
        "# a tiny graph\n"
        "op m1 mul 12 8\n"
        "op a1 add 16\n"
        "\n"
        "dep m1 a1\n");
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g.shape(op_id(0)), op_shape::multiplier(12, 8));
    EXPECT_EQ(g.shape(op_id(1)), op_shape::adder(16));
    EXPECT_EQ(g.op(op_id(0)).name, "m1");
    ASSERT_EQ(g.successors(op_id(0)).size(), 1u);
    EXPECT_EQ(g.successors(op_id(0))[0], op_id(1));
}

TEST(GraphIo, CommentsAndBlankLinesIgnored)
{
    const sequencing_graph g = parse_graph_string(
        "\n# only comments\n\n# another\nop x add 4\n");
    EXPECT_EQ(g.size(), 1u);
}

TEST(GraphIo, MultiplierOperandOrderNormalised)
{
    const sequencing_graph g = parse_graph_string("op m mul 4 20\n");
    EXPECT_EQ(g.shape(op_id(0)), op_shape::multiplier(20, 4));
}

TEST(GraphIo, DuplicateNameRejectedWithLineNumber)
{
    try {
        static_cast<void>(
            parse_graph_string("op x add 4\nop x add 5\n"));
        FAIL() << "should have thrown";
    } catch (const parse_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("duplicate"),
                  std::string::npos);
    }
}

TEST(GraphIo, UnknownKeywordRejected)
{
    EXPECT_THROW(static_cast<void>(parse_graph_string("node x add 4\n")),
                 parse_error);
}

TEST(GraphIo, UnknownKindRejected)
{
    EXPECT_THROW(static_cast<void>(parse_graph_string("op x div 4\n")),
                 parse_error);
}

TEST(GraphIo, MissingWidthRejected)
{
    EXPECT_THROW(static_cast<void>(parse_graph_string("op x add\n")),
                 parse_error);
    EXPECT_THROW(static_cast<void>(parse_graph_string("op x mul 4\n")),
                 parse_error);
}

TEST(GraphIo, NonPositiveWidthRejected)
{
    EXPECT_THROW(static_cast<void>(parse_graph_string("op x add 0\n")),
                 parse_error);
    EXPECT_THROW(static_cast<void>(parse_graph_string("op x mul 4 -2\n")),
                 parse_error);
}

TEST(GraphIo, OverwideWidthRejectedWithLineNumber)
{
    // Widths beyond op_shape::max_width once reached the latency model and
    // overflowed its int arithmetic.
    for (const char* text :
         {"op a mul 2000000000 2000000000\n", "op a add 1025\n",
          "op a mul 4 1025\n"}) {
        try {
            static_cast<void>(parse_graph_string(text));
            ADD_FAILURE() << "accepted: " << text;
        } catch (const parse_error& e) {
            const std::string message = e.what();
            EXPECT_EQ(message.rfind("line 1: ", 0), 0u) << message;
            EXPECT_NE(message.find("must be <= 1024"), std::string::npos)
                << message;
        }
    }
    const sequencing_graph g = parse_graph_string("op a mul 1024 1024\n");
    EXPECT_EQ(g.shape(op_id(0)).width_b(), op_shape::max_width);
}

TEST(GraphIo, TrailingTokensRejected)
{
    EXPECT_THROW(static_cast<void>(parse_graph_string("op x add 4 junk\n")),
                 parse_error);
}

/// The `what()` of the parse_error `text` throws, or "" if it parses.
std::string graph_error(const std::string& text)
{
    try {
        static_cast<void>(parse_graph_string(text));
    } catch (const parse_error& e) {
        return e.what();
    }
    return "";
}

TEST(GraphIo, OpAndDepLinesShareTheExtraTokenRule)
{
    // Trailing comments are allowed on both kinds of line, extra tokens
    // on neither.
    const sequencing_graph g = parse_graph_string(
        "op a add 8  # note\nop b mul 4 4\t# note\ndep a b # note\n");
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g.shape(op_id(0)), op_shape::adder(8));
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_EQ(graph_error("op a add 8\nop b add 8\ndep a b junk\n"),
              "line 3: trailing tokens after dependency");
    EXPECT_EQ(graph_error("op a add 4 junk\n"),
              "line 1: trailing tokens after operation");
}

TEST(GraphIo, NamesCannotStartWithTheCommentMarker)
{
    EXPECT_EQ(graph_error("op #a add 4\n"),
              "line 1: expected 'op <name> <add|mul> ...'");
}

TEST(GraphIo, WidthsUseTheSharedNumberRule)
{
    EXPECT_EQ(graph_error("op a add 99999999999\n"),
              "line 1: numeric value out of range '99999999999'");
    EXPECT_EQ(graph_error("op a mul 4x 5\n"),
              "line 1: bad numeric value '4x'");
    EXPECT_EQ(graph_error("op a add\n"), "line 1: expected adder width");
    EXPECT_EQ(graph_error("op a mul 4\n"),
              "line 1: expected multiplier width_b");
}

TEST(GraphIo, CrlfLineEndsAndTabsParse)
{
    const sequencing_graph g = parse_graph_string(
        "op\ta\tadd\t8\r\nop b mul 4 6\r\n\r\ndep a\tb\r\n");
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g.op(op_id(0)).name, "a");
    EXPECT_EQ(g.shape(op_id(1)), op_shape::multiplier(6, 4));
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphIo, DanglingDependencyRejected)
{
    EXPECT_THROW(
        static_cast<void>(parse_graph_string("op x add 4\ndep x y\n")),
        parse_error);
    EXPECT_THROW(
        static_cast<void>(parse_graph_string("op x add 4\ndep y x\n")),
        parse_error);
}

TEST(GraphIo, CycleRejectedWithLineNumber)
{
    try {
        static_cast<void>(parse_graph_string(
            "op a add 4\nop b add 4\ndep a b\ndep b a\n"));
        FAIL() << "should have thrown";
    } catch (const parse_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
    }
}

TEST(GraphIo, SelfDependencyRejected)
{
    EXPECT_THROW(
        static_cast<void>(parse_graph_string("op a add 4\ndep a a\n")),
        parse_error);
}

TEST(GraphIo, RoundTripPreservesStructure)
{
    rng random(7);
    for (int trial = 0; trial < 10; ++trial) {
        tgff_options opts;
        opts.n_ops = 12;
        const sequencing_graph original = generate_tgff(opts, random);
        const sequencing_graph copy =
            parse_graph_string(write_graph(original));
        ASSERT_EQ(copy.size(), original.size());
        ASSERT_EQ(copy.edge_count(), original.edge_count());
        for (const op_id o : original.all_ops()) {
            EXPECT_EQ(copy.shape(o), original.shape(o));
            const auto so = original.successors(o);
            const auto sc = copy.successors(o);
            ASSERT_EQ(so.size(), sc.size());
            for (std::size_t i = 0; i < so.size(); ++i) {
                EXPECT_EQ(so[i], sc[i]);
            }
        }
    }
}

TEST(GraphIo, WriterNamesUnnamedOpsStably)
{
    sequencing_graph g;
    g.add_operation(op_shape::adder(4)); // unnamed
    g.add_operation(op_shape::multiplier(6, 6), "named");
    const std::string text = write_graph(g);
    EXPECT_NE(text.find("op o0 add 4"), std::string::npos);
    EXPECT_NE(text.find("op named mul 6 6"), std::string::npos);
}

TEST(GraphIo, EmptyInputYieldsEmptyGraph)
{
    EXPECT_TRUE(parse_graph_string("").empty());
}

// ------------------------------------------------------------ line_reader --

/// Every line of `text` through the reader: keyword and tokens, once()
/// for keywords starting with "one", key_values() for "kv", and
/// number<int>() of each token for "num".
std::string read_all(const std::string& text)
{
    line_reader line(text, "spec");
    std::string out;
    while (line.next()) {
        out += std::to_string(line.line_number()) + ":" +
               std::string(line.keyword());
        if (line.keyword().rfind("one", 0) == 0) {
            line.once();
        }
        if (line.keyword() == "kv") {
            for (const key_value& kv : line.key_values()) {
                out += " " + std::string(kv.key) + "=" +
                       std::string(kv.value);
            }
            out += ";";
            continue;
        }
        for (const std::string_view token : line.tokens()) {
            out += ' ';
            out += line.keyword() == "num"
                       ? std::to_string(line.number<int>(token))
                       : std::string(token);
        }
        out += ";";
    }
    return out;
}

TEST(LineReader, SkipsBlanksAndCommentsAndCountsLinesFromOne)
{
    EXPECT_EQ(read_all("# header\n\n  a x y  # trailing\n\t\nb #z\n"),
              "3:a x y;5:b;");
    EXPECT_EQ(read_all("kv a=1 b=x=y\nnum 4 -2\n"),
              "1:kv a=1 b=x=y;2:num 4 -2;");
    EXPECT_EQ(read_all("one\none_more\n"), "1:one;2:one_more;");
    EXPECT_EQ(read_all(""), "");
}

TEST(LineReader, CrlfLineEndsAndTabsAreWhitespace)
{
    EXPECT_EQ(read_all("a\tx\r\nkv\ta=1\tb=2\r\n\r\nnum\t4\v-2\f\r\n"),
              "1:a x;2:kv a=1 b=2;4:num 4 -2;");
}

TEST(LineReader, TheOneLineSplitterKeepsCommentMarkers)
{
    const std::string text = "alloc\tid=1 # x=y\r";
    const std::vector<std::string_view> tokens = split_tokens(text);
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[2], "#");
    EXPECT_EQ(tokens[3], "x=y");
    // Views into the buffer: the rest of the line from a token is a
    // substring.
    EXPECT_EQ(text.substr(tokens[2].data() - text.data()), "# x=y\r");
    const std::optional<key_value> kv = split_key_value(tokens[3]);
    ASSERT_TRUE(kv);
    EXPECT_EQ(kv->key, "x");
    EXPECT_EQ(kv->value, "y");
    EXPECT_FALSE(split_key_value("alloc"));
    EXPECT_EQ(split_key_value("a=b=c")->value, "b=c");
}

TEST(LineReader, EveryDiagnosticCarriesItsLineNumber)
{
    struct bad_case {
        const char* text;
        const char* message;
    };
    const bad_case cases[] = {
        {"one\n# c\none\n", "spec line 3: duplicate one line"},
        {"x\nkv a=1 b\n", "spec line 2: expected key=value, got 'b'"},
        {"kv =1\n", "spec line 1: expected key=value, got '=1'"},
        {"kv a=\n", "spec line 1: expected key=value, got 'a='"},
        {"\n\nnum 4x\n", "spec line 3: bad numeric value '4x'"},
        {"num 99999999999\n",
         "spec line 1: numeric value out of range '99999999999'"},
    };
    for (const bad_case& c : cases) {
        try {
            static_cast<void>(read_all(c.text));
            ADD_FAILURE() << "parsed: " << c.text;
        } catch (const line_error& e) {
            EXPECT_EQ(std::string(e.what()), c.message) << c.text;
        }
    }
}

TEST(LineReader, NumbersCarryTheirContext)
{
    line_reader line("lambda step=2x\n", "manifest");
    ASSERT_TRUE(line.next());
    const key_value kv = line.key_values().front();
    try {
        static_cast<void>(line.number<int>(kv.value, kv.token));
        FAIL() << "parsed step=2x";
    } catch (const line_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "manifest line 1: bad numeric value in 'step=2x'");
    }
    EXPECT_EQ(line.number<double>("2.5"), 2.5);
    EXPECT_EQ(line.number<std::uint64_t>("18446744073709551615"),
              18446744073709551615ULL);
}

// --------------------------------------------------------------- manifest --

std::vector<manifest_entry> manifest_of(const std::string& text)
{
    return parse_manifest(text);
}

TEST(Manifest, ParsesGraphAndCorpusLinesWithDirectives)
{
    std::ofstream("io_test_tiny.mwl")
        << "op a add 4\nop m mul 4 4\ndep a m\n";
    const std::vector<manifest_entry> entries = manifest_of(
        "# jobs\n"
        "graph io_test_tiny.mwl lambda=7\n"
        "corpus ops=4 count=2 seed=5 slack=20 # two graphs\n"
        "graph io_test_tiny.mwl sweep=30\n"
        "corpus ops=3 count=1 verify=4\n");
    ASSERT_EQ(entries.size(), 5u);
    EXPECT_EQ(entries[0].name, "io_test_tiny.mwl");
    EXPECT_EQ(entries[0].graph.size(), 2u);
    EXPECT_EQ(entries[0].what.lambda, 7);
    EXPECT_FALSE(entries[0].what.slack);
    EXPECT_EQ(entries[0].line, 2u);
    EXPECT_FALSE(entries[0].corpus_seed);
    EXPECT_EQ(entries[1].name, "tgff(ops=4,seed=5)#1");
    EXPECT_EQ(entries[2].name, "tgff(ops=4,seed=5)#2");
    EXPECT_EQ(entries[2].what.slack, 0.2);
    EXPECT_EQ(entries[2].corpus_seed, 5u);
    EXPECT_EQ(entries[2].corpus_index, 1u);
    EXPECT_EQ(entries[2].line, 3u);
    EXPECT_EQ(entries[3].what.sweep, 0.3);
    EXPECT_EQ(entries[4].what.verify, 4u);
    EXPECT_EQ(entries[4].name, "tgff(ops=3,seed=2001)#4");
}

TEST(Manifest, CrlfLineEndsAndTabsParse)
{
    const std::vector<manifest_entry> entries =
        manifest_of("corpus\tops=4\tcount=1 lambda=7\r\n\r\n");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].what.lambda, 7);
    EXPECT_EQ(entries[0].graph.size(), 4u);
}

TEST(Manifest, IdenticalCorpusLinesGetUniqueNames)
{
    const std::vector<manifest_entry> entries = manifest_of(
        "corpus ops=4 count=2 seed=3\ncorpus ops=4 count=2 seed=3\n");
    ASSERT_EQ(entries.size(), 4u);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].name,
                  "tgff(ops=4,seed=3)#" + std::to_string(i));
    }
    // Same graphs, distinct names: the engine dedups, the report does not.
    EXPECT_EQ(write_graph(entries[0].graph), write_graph(entries[2].graph));
}

TEST(Manifest, EveryDiagnosticCarriesItsLineNumber)
{
    struct bad_case {
        const char* text;
        const char* message;
    };
    const bad_case cases[] = {
        {"# c\ncorpus ops=4 count=1\ngraph\n",
         "manifest line 3: expected 'graph FILE ...'"},
        {"corpus ops=4 count=1\nfrob x\n",
         "manifest line 2: unknown keyword 'frob'"},
        {"corpus ops=4 count=1 lambda=abc\n",
         "manifest line 1: bad numeric value in 'lambda=abc'"},
        {"corpus ops=4 count=1 lambda=12x\n",
         "manifest line 1: bad numeric value in 'lambda=12x'"},
        {"\ncorpus ops=4 count=1 slack=-5\n",
         "manifest line 2: slack must be non-negative"},
        {"corpus ops=4 count=1 sweep=-1\n",
         "manifest line 1: sweep must be non-negative"},
        {"corpus ops=4 count=1 verify=0\n",
         "manifest line 1: verify needs >= 1 input"},
        {"corpus ops=4 count=1 verify=-2\n",
         "manifest line 1: bad numeric value in 'verify=-2'"},
        {"corpus ops=4 count=1 sweep=20 verify=4\n",
         "manifest line 1: sweep= and verify= are mutually exclusive"},
        {"corpus ops=4 count=1 wibble=2\n",
         "manifest line 1: unknown corpus spec key 'wibble'"},
        {"corpus ops=0 count=1\n",
         "manifest line 1: corpus spec needs ops >= 1"},
        {"graph io_test_no_such.mwl\n",
         "manifest line 1: cannot open graph file io_test_no_such.mwl"},
        {"graph io_test_bad.mwl\n", "manifest line 1: line 1:"},
        {"graph io_test_bad.mwl extra\n",
         "manifest line 1: unknown graph token 'extra'"},
    };
    std::ofstream("io_test_bad.mwl") << "op x div 4\n";
    for (const bad_case& c : cases) {
        try {
            static_cast<void>(manifest_of(c.text));
            ADD_FAILURE() << "parsed: " << c.text;
        } catch (const line_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind(c.message, 0), 0u)
                << "expected '" << c.message << "' at the start of: "
                << e.what();
        }
    }
}

TEST(Manifest, UnresolvableGraphPathCannotBeOpened)
{
    // A name past NAME_MAX is not merely missing: resolving it fails.
    const std::string name(300, 'x');
    try {
        static_cast<void>(manifest_of("graph " + name + "\n"));
        ADD_FAILURE() << "parsed a graph line naming " << name;
    } catch (const line_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "manifest line 1: cannot open graph file " + name);
    }
}

TEST(Manifest, DirectivesParseAloneForOneShotRequests)
{
    manifest_directives what;
    EXPECT_TRUE(parse_directive("lambda=12", what));
    EXPECT_TRUE(parse_directive("slack=10", what));
    EXPECT_FALSE(parse_directive("ops=4", what));
    EXPECT_EQ(what.lambda, 12);
    EXPECT_EQ(what.slack, 0.1);
    EXPECT_THROW(static_cast<void>(parse_directive("lambda=12x", what)),
                 precondition_error);
}

TEST(Manifest, ResultRowsRenderOneJsonShape)
{
    const std::vector<manifest_result> rows{
        {"a \"b\"", "alloc", 12, 11, 473.5, "computed"},
        {"c", "sweep", 3, 3, 1234567.25, "front"}};
    EXPECT_EQ(results_json(rows),
              R"([{"entry":"a \"b\"","kind":"alloc","lambda":12,)"
              R"("latency":11,"area":473.5,"status":"computed"},)"
              R"({"entry":"c","kind":"sweep","lambda":3,"latency":3,)"
              R"("area":1234567.25,"status":"front"}])");
    EXPECT_EQ(results_json({}), "[]");
}

} // namespace
} // namespace mwl
