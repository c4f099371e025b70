// Unit tests for the differential verification harness (src/verify/):
// clean corpora pass for every allocator, the report counts add up, the
// parallel path is deterministic, and -- the acceptance property of the
// whole subsystem -- re-introducing either historical sign-extension bug
// via elaborate_options makes the harness report counterexamples.

#include "model/hardware_model.hpp"
#include "support/thread_pool.hpp"
#include "tgff/corpus.hpp"
#include "verify/differential.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace mwl {
namespace {

corpus_spec small_spec(std::size_t ops, std::size_t count,
                       std::uint64_t seed)
{
    corpus_spec spec;
    spec.n_ops = ops;
    spec.count = count;
    spec.seed = seed;
    return spec;
}

// ------------------------------------------------------------- inputs --

TEST(RandomSignedInputs, FillsExactlyTheUnboundPorts)
{
    sequencing_graph g;
    const op_id m = g.add_operation(op_shape::multiplier(8, 8));
    const op_id a = g.add_operation(op_shape::adder(16));
    g.add_dependency(m, a);
    rng random(1);
    const sim_inputs in = random_signed_inputs(g, random);
    ASSERT_EQ(in.size(), 2u);
    EXPECT_EQ(in[m.value()].size(), 2u); // source: both operands external
    EXPECT_EQ(in[a.value()].size(), 1u); // one predecessor, one external
    // They must feed the reference evaluator without complaint.
    EXPECT_NO_THROW(static_cast<void>(reference_evaluate(g, in)));
}

TEST(RandomSignedInputs, ProducesNegativeValuesAndRespectsWidths)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(6)); // [-32, 31]
    rng random(7);
    bool saw_negative = false;
    for (int k = 0; k < 64; ++k) {
        const sim_inputs in = random_signed_inputs(g, random);
        for (const std::int64_t v : in[a.value()]) {
            EXPECT_GE(v, -32);
            EXPECT_LE(v, 31);
            saw_negative |= v < 0;
        }
    }
    EXPECT_TRUE(saw_negative);
}

// ------------------------------------------------------------ harness --

TEST(Verify, CleanCorpusPassesForAllAllocators)
{
    const sonic_model model;
    verify_options options;
    options.inputs_per_graph = 4;
    thread_pool pool(2);
    const verify_report report =
        verify_corpus(small_spec(8, 10, 42), model, options, pool);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.graphs, 10u);
    EXPECT_EQ(report.allocations, 30u); // heuristic + two baselines
    EXPECT_EQ(report.input_vectors, 30u * 4u);
    EXPECT_GT(report.value_checks, report.input_vectors);
}

TEST(Verify, IlpReferenceJoinsOnTinyGraphs)
{
    const sonic_model model;
    verify_options options;
    options.inputs_per_graph = 2;
    options.ilp_max_ops = 4;
    thread_pool pool(2);
    const verify_report report =
        verify_corpus(small_spec(4, 5, 11), model, options, pool);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.graphs, 5u);
    EXPECT_EQ(report.allocations, 20u); // three heuristics + ilp, per graph
}

TEST(Verify, ParallelCorpusMatchesSerial)
{
    const sonic_model model;
    verify_options options;
    options.inputs_per_graph = 3;
    const corpus_spec spec = small_spec(9, 8, 2026);
    // The serial reference: one verify_graph per corpus entry, in order,
    // each with the input stream verify_corpus gives that index.
    const std::vector<corpus_entry> corpus = make_corpus(spec, model);
    verify_report serial;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        serial.merge(verify_graph(
            corpus[i].graph, "graph" + std::to_string(i), model,
            relaxed_lambda(corpus[i].lambda_min, options.slack), options,
            verify_input_seed(options.seed, i)));
    }
    thread_pool pool(4);
    const verify_report parallel = verify_corpus(spec, model, options, pool);
    EXPECT_EQ(parallel.graphs, serial.graphs);
    EXPECT_EQ(parallel.allocations, serial.allocations);
    EXPECT_EQ(parallel.input_vectors, serial.input_vectors);
    EXPECT_EQ(parallel.value_checks, serial.value_checks);
    EXPECT_EQ(parallel.ok(), serial.ok());
}

// -------------------------------------- the harness catches the bugs --

// Acceptance property: if the operand-extension fix is reverted (legacy
// zero-extension in the FU muxes), the differential harness must flag it
// on a mixed-width corpus with signed inputs.
TEST(Verify, CatchesRevertedOperandExtensionFix)
{
    const sonic_model model;
    verify_options options;
    options.inputs_per_graph = 8;
    options.elaborate.legacy_operand_extension = true;
    thread_pool pool(2);
    const verify_report report =
        verify_corpus(small_spec(10, 20, 2001), model, options, pool);
    ASSERT_FALSE(report.ok());
    for (const counterexample& cx : report.counterexamples) {
        EXPECT_EQ(cx.stage, "rtl-interp");
        EXPECT_FALSE(cx.to_string().empty());
    }
}

// Same for the register-readback fix (results zero-extended into wider
// shared registers).
TEST(Verify, CatchesRevertedCaptureExtensionFix)
{
    const sonic_model model;
    verify_options options;
    options.inputs_per_graph = 8;
    options.elaborate.legacy_capture_extension = true;
    thread_pool pool(2);
    const verify_report report =
        verify_corpus(small_spec(10, 20, 2001), model, options, pool);
    ASSERT_FALSE(report.ok());
    // The corrupted value is only visible downstream, so divergences may
    // surface per-op or at an output readback; both count.
    for (const counterexample& cx : report.counterexamples) {
        EXPECT_TRUE(cx.stage == "rtl-interp" || cx.stage == "rtl-output");
    }
}

TEST(Verify, CounterexampleRendersAllCoordinates)
{
    counterexample cx;
    cx.graph_name = "g";
    cx.allocator = "dpalloc";
    cx.input_index = 3;
    cx.stage = "rtl-interp";
    cx.op = op_id(5);
    cx.cycle = 7;
    cx.expected = -13;
    cx.actual = 243;
    const std::string text = cx.to_string();
    EXPECT_NE(text.find("dpalloc"), std::string::npos);
    EXPECT_NE(text.find("input 3"), std::string::npos);
    EXPECT_NE(text.find("op 5"), std::string::npos);
    EXPECT_NE(text.find("cycle 7"), std::string::npos);
    EXPECT_NE(text.find("-13"), std::string::npos);
    EXPECT_NE(text.find("243"), std::string::npos);
}

TEST(Verify, MaxCounterexamplesBoundsTheReport)
{
    const sonic_model model;
    verify_options options;
    options.inputs_per_graph = 8;
    options.max_counterexamples = 2;
    options.elaborate.legacy_operand_extension = true;
    thread_pool pool(2);
    const verify_report report =
        verify_corpus(small_spec(10, 20, 2001), model, options, pool);
    ASSERT_FALSE(report.ok());
    EXPECT_LE(report.counterexamples.size(), 2u);
}

} // namespace
} // namespace mwl
