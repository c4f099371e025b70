// Unit tests for src/tgff: generator invariants (size, acyclicity,
// determinism, wordlength ranges) and the experiment corpus helpers.

#include "dfg/analysis.hpp"
#include "model/hardware_model.hpp"
#include "support/error.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"

#include <gtest/gtest.h>

namespace mwl {
namespace {

TEST(Tgff, ProducesRequestedSize)
{
    rng random(1);
    for (const std::size_t n : {1u, 5u, 24u}) {
        tgff_options opts;
        opts.n_ops = n;
        EXPECT_EQ(generate_tgff(opts, random).size(), n);
    }
}

TEST(Tgff, DeterministicForSeed)
{
    tgff_options opts;
    opts.n_ops = 15;
    rng r1(77);
    rng r2(77);
    const sequencing_graph a = generate_tgff(opts, r1);
    const sequencing_graph b = generate_tgff(opts, r2);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.edge_count(), b.edge_count());
    for (const op_id o : a.all_ops()) {
        EXPECT_EQ(a.shape(o), b.shape(o));
        const auto sa = a.successors(o);
        const auto sb = b.successors(o);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i], sb[i]);
        }
    }
}

TEST(Tgff, DifferentSeedsDiffer)
{
    tgff_options opts;
    opts.n_ops = 15;
    rng r1(1);
    rng r2(2);
    const sequencing_graph a = generate_tgff(opts, r1);
    const sequencing_graph b = generate_tgff(opts, r2);
    bool any_diff = a.edge_count() != b.edge_count();
    for (const op_id o : a.all_ops()) {
        any_diff = any_diff || a.shape(o) != b.shape(o);
    }
    EXPECT_TRUE(any_diff);
}

TEST(Tgff, WidthsInsideConfiguredRange)
{
    tgff_options opts;
    opts.n_ops = 50;
    opts.min_width = 6;
    opts.max_width = 10;
    rng random(3);
    const sequencing_graph g = generate_tgff(opts, random);
    for (const op_id o : g.all_ops()) {
        const op_shape& s = g.shape(o);
        EXPECT_GE(s.width_a(), 6);
        EXPECT_LE(s.width_a(), 10);
        if (s.kind() == op_kind::mul) {
            EXPECT_GE(s.width_b(), 6);
            EXPECT_LE(s.width_b(), 10);
        }
    }
}

TEST(Tgff, MulFractionExtremes)
{
    tgff_options opts;
    opts.n_ops = 30;
    opts.mul_fraction = 0.0;
    rng r1(4);
    const sequencing_graph all_add = generate_tgff(opts, r1);
    for (const op_id o : all_add.all_ops()) {
        EXPECT_EQ(all_add.shape(o).kind(), op_kind::add);
    }
    opts.mul_fraction = 1.0;
    rng r2(4);
    const sequencing_graph all_mul = generate_tgff(opts, r2);
    for (const op_id o : all_mul.all_ops()) {
        EXPECT_EQ(all_mul.shape(o).kind(), op_kind::mul);
    }
}

TEST(Tgff, FanInBounded)
{
    tgff_options opts;
    opts.n_ops = 40;
    opts.max_fan_in = 2;
    rng random(5);
    const sequencing_graph g = generate_tgff(opts, random);
    for (const op_id o : g.all_ops()) {
        EXPECT_LE(g.predecessors(o).size(), 2u);
    }
}

TEST(Tgff, GraphIsConnectedEnoughToBeInteresting)
{
    // With attach probability 1 every non-root op has a predecessor.
    tgff_options opts;
    opts.n_ops = 20;
    opts.attach_probability = 1.0;
    rng random(6);
    const sequencing_graph g = generate_tgff(opts, random);
    std::size_t roots = 0;
    for (const op_id o : g.all_ops()) {
        roots += g.predecessors(o).empty() ? 1u : 0u;
    }
    EXPECT_EQ(roots, 1u);
}

TEST(Tgff, InvalidOptionsThrow)
{
    rng random(7);
    tgff_options opts;
    opts.n_ops = 0;
    EXPECT_THROW(static_cast<void>(generate_tgff(opts, random)),
                 precondition_error);
    opts.n_ops = 3;
    opts.min_width = 8;
    opts.max_width = 4;
    EXPECT_THROW(static_cast<void>(generate_tgff(opts, random)),
                 precondition_error);
    opts = {};
    opts.mul_fraction = 1.5;
    EXPECT_THROW(static_cast<void>(generate_tgff(opts, random)),
                 precondition_error);
    opts = {};
    opts.max_fan_in = 0;
    EXPECT_THROW(static_cast<void>(generate_tgff(opts, random)),
                 precondition_error);
}

// ------------------------------------------------- large-graph presets --

struct graph_shape {
    std::size_t roots = 0;
    std::size_t max_out = 0;
    std::size_t edges = 0;
    int depth = 0; ///< operations on the longest dependency chain
};

graph_shape shape_of(const sequencing_graph& g)
{
    graph_shape s;
    std::vector<int> depth(g.size(), 1);
    for (const op_id o : g.all_ops()) {
        s.roots += g.predecessors(o).empty() ? 1u : 0u;
        s.max_out = std::max(s.max_out, g.successors(o).size());
        s.edges += g.successors(o).size();
        for (const op_id p : g.predecessors(o)) {
            depth[o.value()] = std::max(depth[o.value()], depth[p.value()] + 1);
        }
        s.depth = std::max(s.depth, depth[o.value()]);
    }
    return s;
}

TEST(Tgff, LegacyStreamUnchanged)
{
    // The locality_window option must not perturb the legacy (window = 0)
    // random stream: this pins one whole default-options graph by shape.
    // Any drift here silently invalidates every seeded corpus in the repo.
    rng random(12345 + 150);
    tgff_options opts;
    opts.n_ops = 150;
    const graph_shape s = shape_of(generate_tgff(opts, random));
    EXPECT_EQ(s.edges, 175u);
    EXPECT_EQ(s.roots, 26u);
    EXPECT_EQ(s.depth, 8);
    EXPECT_EQ(s.max_out, 8u);
}

TEST(Tgff, WholePrefixSamplingDegeneratesAtScale)
{
    // Documents why large_graph_preset exists: with whole-prefix
    // attachment at n = 1000 the depth plateaus around 20, ~15% of all
    // operations are roots, and early operations turn into fan-out hubs.
    // Exact pins (deterministic stream) so the numbers cannot rot.
    rng random(12345 + 1000);
    tgff_options opts;
    opts.n_ops = 1000;
    const graph_shape s = shape_of(generate_tgff(opts, random));
    EXPECT_EQ(s.roots, 158u);   // ~16% of ops start new chains
    EXPECT_EQ(s.depth, 20);     // plateau: no deeper than tiny graphs
    EXPECT_EQ(s.max_out, 14u);  // unbounded hubs form on early ops
    EXPECT_EQ(s.edges, 1266u);
}

TEST(Tgff, PresetDepthScalesWithSize)
{
    // The windowed preset keeps depth growing with n_ops and bounds the
    // root fraction and fan-out -- the properties the degenerate legacy
    // shape loses (WholePrefixSamplingDegeneratesAtScale above).
    int last_depth = 0;
    for (const std::size_t n : {500u, 1000u, 2000u}) {
        rng random(large_graph_seed_base + n);
        const sequencing_graph g =
            generate_tgff(large_graph_preset(n), random);
        const graph_shape s = shape_of(g);
        EXPECT_GT(s.depth, last_depth) << "n=" << n;
        EXPECT_GE(s.depth, static_cast<int>(n / 16)) << "n=" << n;
        EXPECT_LE(s.roots, n / 8) << "n=" << n;
        EXPECT_LE(s.max_out, 16u) << "n=" << n;
        last_depth = s.depth;
    }
}

TEST(Tgff, PresetShapePinned)
{
    // Bit-level pins for the bench-tier graphs (seed base + n). The
    // large-graph bench and identity tests assume exactly these graphs.
    const struct {
        std::size_t n;
        std::size_t roots, max_out, edges;
        int depth;
    } expected[] = {
        {500, 24, 9, 930, 37},
        {1000, 63, 11, 1839, 65},
        {2000, 100, 9, 3751, 136},
    };
    for (const auto& e : expected) {
        rng random(large_graph_seed_base + e.n);
        const graph_shape s =
            shape_of(generate_tgff(large_graph_preset(e.n), random));
        EXPECT_EQ(s.roots, e.roots) << "n=" << e.n;
        EXPECT_EQ(s.depth, e.depth) << "n=" << e.n;
        EXPECT_EQ(s.max_out, e.max_out) << "n=" << e.n;
        EXPECT_EQ(s.edges, e.edges) << "n=" << e.n;
    }
}

TEST(Tgff, LocalityWindowBoundsPredecessorDistance)
{
    tgff_options opts;
    opts.n_ops = 300;
    opts.locality_window = 16;
    opts.attach_probability = 1.0;
    rng random(9);
    const sequencing_graph g = generate_tgff(opts, random);
    for (const op_id o : g.all_ops()) {
        for (const op_id p : g.predecessors(o)) {
            EXPECT_LE(o.value() - p.value(), 16u);
        }
    }
}

TEST(Tgff, PresetDeterministicForSeed)
{
    rng r1(large_graph_seed_base + 500);
    rng r2(large_graph_seed_base + 500);
    const sequencing_graph a = generate_tgff(large_graph_preset(500), r1);
    const sequencing_graph b = generate_tgff(large_graph_preset(500), r2);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.edge_count(), b.edge_count());
    for (const op_id o : a.all_ops()) {
        EXPECT_EQ(a.shape(o), b.shape(o));
    }
}

// -------------------------------------------------------------- corpus --

TEST(Corpus, SizesAndLambdaMin)
{
    const sonic_model model;
    const auto corpus = make_corpus(6, 10, model, 42);
    ASSERT_EQ(corpus.size(), 10u);
    for (const corpus_entry& e : corpus) {
        EXPECT_EQ(e.graph.size(), 6u);
        EXPECT_EQ(e.lambda_min, min_latency(e.graph, model));
        EXPECT_GE(e.lambda_min, 1);
    }
}

TEST(Corpus, DeterministicAndPrefixStable)
{
    const sonic_model model;
    const auto a = make_corpus(5, 4, model, 7);
    const auto b = make_corpus(5, 8, model, 7);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].lambda_min, b[i].lambda_min);
        EXPECT_EQ(a[i].graph.size(), b[i].graph.size());
        EXPECT_EQ(a[i].graph.edge_count(), b[i].graph.edge_count());
    }
}

TEST(Corpus, SeedsSeparateCorpora)
{
    const sonic_model model;
    const auto a = make_corpus(8, 5, model, 1);
    const auto b = make_corpus(8, 5, model, 2);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        any_diff = any_diff ||
                   a[i].graph.edge_count() != b[i].graph.edge_count() ||
                   a[i].lambda_min != b[i].lambda_min;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Corpus, RelaxedLambdaRounding)
{
    EXPECT_EQ(relaxed_lambda(10, 0.0), 10);
    EXPECT_EQ(relaxed_lambda(10, 0.05), 11); // ceil(10.5)
    EXPECT_EQ(relaxed_lambda(10, 0.30), 13);
    EXPECT_EQ(relaxed_lambda(7, 0.10), 8);   // ceil(7.7)
}

TEST(Corpus, NegativeSlackThrows)
{
    EXPECT_THROW(static_cast<void>(relaxed_lambda(10, -0.1)),
                 precondition_error);
}

TEST(Corpus, SlackPastIntRangeThrowsInsteadOfWrapping)
{
    // ceil(2 * (1 + 3e9)) does not fit an int; the boundary still does.
    try {
        static_cast<void>(relaxed_lambda(2, 3e9));
        FAIL() << "relaxed_lambda(2, 3e9) returned";
    } catch (const precondition_error& e) {
        EXPECT_STREQ(e.what(), "relaxed lambda exceeds INT_MAX at slack 3e+09");
    }
    EXPECT_EQ(relaxed_lambda(1, 2147483646.0), 2147483647);
}

} // namespace
} // namespace mwl
