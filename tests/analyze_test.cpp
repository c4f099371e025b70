// Mutation-proven soundness of the static analyzer (src/analyze/).
//
// Two directions, both load-bearing:
//
//  * Zero false positives: every scenario golden and a seeded random
//    corpus, allocated by every allocator, must analyze completely clean
//    (not even warnings) -- a correct elaboration is structurally
//    width-exact, so the analyzer has nothing to say about it.
//
//  * Zero false negatives: for each historical elaboration bug
//    (rtl/elaborate.hpp legacy_* knobs) and every scenario, whenever the
//    mutated design differs at all from the correct one, the analyzer
//    must flag it -- statically, without executing an input vector -- and
//    with the rule id naming that bug class. Differential simulation
//    (PR 3) is run alongside as the ground truth: any dynamic divergence
//    it samples must be subsumed by a static finding.
//
// Hand-broken IR cases then cover the corruption shapes no elaboration
// knob produces (stale registers, dropped captures, dangling indices).

#include "analyze/analyze.hpp"
#include "core/dpalloc.hpp"
#include "dfg/analysis.hpp"
#include "rtl/netlist.hpp"
#include "rtl/verilog.hpp"
#include "scenarios/scenarios.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tgff/corpus.hpp"
#include "verify/differential.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace mwl {
namespace {

bool has_rule(const analysis_report& report, const std::string& rule)
{
    return std::any_of(
        report.findings.begin(), report.findings.end(),
        [&](const finding& f) { return f.rule == rule; });
}

std::string rules_of(const analysis_report& report)
{
    std::string all;
    for (const finding& f : report.findings) {
        all += "  " + f.to_string() + "\n";
    }
    return all;
}

/// The dpalloc datapath for a scenario at 25% relaxed latency.
datapath scenario_path(const scenario& s, const hardware_model& model,
                       int& lambda)
{
    lambda = relaxed_lambda(min_latency(s.graph, model), 0.25);
    return dpalloc(s.graph, model, lambda).path;
}

// ---------------------------------------------------------------- clean --

TEST(AnalyzeClean, EveryScenarioEveryAllocatorIsFindingFree)
{
    const sonic_model model;
    const verify_options options; // all three allocators
    for (const scenario& s : all_scenarios()) {
        SCOPED_TRACE(s.name);
        const int lambda =
            relaxed_lambda(min_latency(s.graph, model), options.slack);
        const analysis_report report =
            static_verify_graph(s.graph, s.name, model, lambda, options);
        EXPECT_TRUE(report.ok()) << rules_of(report);
        EXPECT_TRUE(report.findings.empty()); // no warnings either
        EXPECT_GT(report.checks, 0u);
        EXPECT_FALSE(report.truncated);
    }
}

TEST(AnalyzeClean, SeededRandomCorpusIsFindingFree)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_ANALYZE_SEED", 0xA9A17);
    MWL_TRACE_SEED("MWL_ANALYZE_SEED", seed);

    const sonic_model model;
    corpus_spec spec;
    spec.n_ops = 12;
    spec.count = 25;
    spec.seed = seed;
    const verify_options options;
    thread_pool pool(2);
    const analysis_report report =
        static_verify_corpus(spec, model, options, pool);
    EXPECT_TRUE(report.ok()) << rules_of(report);
    EXPECT_TRUE(report.findings.empty());
    EXPECT_GT(report.checks, 0u);
}

// ------------------------------------------------------- mutation matrix --

struct mutation {
    const char* name;
    elaborate_options opts;
    /// Rule ids, at least one of which must name the bug when it bites.
    std::vector<std::string> rules;
};

std::vector<mutation> mutations()
{
    std::vector<mutation> all(4);
    // The legacy extension knobs slice at the *source* width instead of
    // the operation's native width, so depending on whether the source is
    // wider or narrower than the port the corruption shows up as a missing
    // wrap or as a zero-extension -- any rule of the family names the bug.
    all[0].name = "operand-zext";
    all[0].opts.legacy_operand_extension = true;
    all[0].rules = {"range.operand-zero-extend", "range.operand-unwrapped",
                    "range.operand-trunc"};
    all[1].name = "capture-zext";
    all[1].opts.legacy_capture_extension = true;
    all[1].rules = {"range.capture-zero-extend", "range.capture-unwrapped",
                    "range.capture-trunc"};
    all[2].name = "unsigned-mul";
    all[2].opts.legacy_unsigned_multiply = true;
    all[2].rules = {"range.unsigned-mul"};
    all[3].name = "output-recycle";
    all[3].opts.legacy_output_recycling = true;
    all[3].rules = {"range.output-clobbered", "sched.lifetime-overlap"};
    return all;
}

TEST(AnalyzeMutation, EveryLegacyModeFlaggedWhereverTheDesignDiffers)
{
    const sonic_model model;
    for (const scenario& s : all_scenarios()) {
        int lambda = 0;
        const datapath path = scenario_path(s, model, lambda);
        const rtl_netlist net_clean = build_rtl(s.graph, model, path);
        const std::string clean_verilog =
            to_verilog(elaborate(s.graph, path, net_clean, "m"));

        for (const mutation& m : mutations()) {
            SCOPED_TRACE(std::string(s.name) + " x " + m.name);
            const rtl_netlist net = build_rtl(
                s.graph, model, path, {}, m.opts.legacy_output_recycling);
            const std::string mutated_verilog =
                to_verilog(elaborate(s.graph, path, net, "m", m.opts));
            const bool differs = mutated_verilog != clean_verilog;

            const analysis_report report =
                analyze_allocation(s.graph, model, path, m.opts);
            if (differs) {
                // The bug elaborated into this design: the analyzer must
                // flag it, naming the class.
                EXPECT_FALSE(report.ok())
                    << "mutated design not flagged:\n" << mutated_verilog;
                bool named = false;
                for (const std::string& rule : m.rules) {
                    named = named || has_rule(report, rule);
                }
                EXPECT_TRUE(named)
                    << "expected one of the " << m.name
                    << " rules, got:\n" << rules_of(report);
            } else {
                // The knob was a no-op here (e.g. unsigned-mul on a
                // mul-free graph): byte-identical design, so any finding
                // would be a false positive.
                EXPECT_TRUE(report.ok()) << rules_of(report);
            }
        }
    }
}

TEST(AnalyzeMutation, StaticFindingsSubsumeDynamicCounterexamples)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_ANALYZE_SEED", 0xA9A18);
    MWL_TRACE_SEED("MWL_ANALYZE_SEED", seed);

    const sonic_model model;
    for (const scenario& s : all_scenarios()) {
        int lambda = 0;
        const datapath path = scenario_path(s, model, lambda);

        rng random(seed);
        std::vector<sim_inputs> inputs;
        for (int i = 0; i < 4; ++i) {
            inputs.push_back(random_signed_inputs(s.graph, random));
        }

        for (const mutation& m : mutations()) {
            SCOPED_TRACE(std::string(s.name) + " x " + m.name);
            const verify_report dynamic = verify_datapath(
                s.graph, s.name, "dpalloc", path, model, inputs, m.opts);
            const analysis_report report =
                analyze_allocation(s.graph, model, path, m.opts);
            if (!dynamic.ok()) {
                // Sound direction: anything sampling can catch, analysis
                // must catch without the samples.
                EXPECT_FALSE(report.ok())
                    << dynamic.counterexamples.front().to_string();
            }
        }
    }
}

TEST(AnalyzeMutation, FindingListTruncatesAtMaxFindings)
{
    const sonic_model model;
    const scenario s = make_scenario("fir8");
    int lambda = 0;
    const datapath path = scenario_path(s, model, lambda);
    elaborate_options opts;
    opts.legacy_operand_extension = true;
    analyze_options limits;
    limits.max_findings = 2;
    const analysis_report report =
        analyze_allocation(s.graph, model, path, opts, limits);
    EXPECT_FALSE(report.ok());
    EXPECT_LE(report.findings.size(), 2u);
    EXPECT_TRUE(report.truncated);
}

// ------------------------------------------------------ hand-broken IR --

class AnalyzeBrokenIr : public ::testing::Test {
protected:
    void SetUp() override
    {
        s_ = make_scenario("fir4");
        lambda_ = 0;
        path_ = scenario_path(s_, model_, lambda_);
        const rtl_netlist net = build_rtl(s_.graph, model_, path_);
        design_ = elaborate(s_.graph, path_, net, "m");
        ASSERT_TRUE(analyze_design(s_.graph, design_).ok());
    }

    sonic_model model_;
    scenario s_;
    int lambda_ = 0;
    datapath path_;
    rtl_design design_;
};

TEST_F(AnalyzeBrokenIr, DroppedCaptureIsUncapturedOp)
{
    rtl_design broken = design_;
    broken.captures.pop_back();
    const analysis_report report = analyze_design(s_.graph, broken);
    EXPECT_TRUE(has_rule(report, "lint.uncaptured-op")) << rules_of(report);
}

TEST_F(AnalyzeBrokenIr, ExtraRegisterIsDeadRegister)
{
    rtl_design broken = design_;
    broken.register_width.push_back(8);
    const analysis_report report = analyze_design(s_.graph, broken);
    EXPECT_TRUE(has_rule(report, "lint.dead-register")) << rules_of(report);
}

TEST_F(AnalyzeBrokenIr, RedirectedCaptureIsStaleOrClobbered)
{
    // Send the last capture into register 0 instead: some later read (or
    // the primary output bound to the original register) now sees the
    // wrong value.
    rtl_design broken = design_;
    ASSERT_GE(broken.register_width.size(), 2u);
    rtl_capture& last = broken.captures.back();
    last.reg = (last.reg + 1) % broken.register_width.size();
    std::sort(broken.captures.begin(), broken.captures.end(),
              [](const rtl_capture& x, const rtl_capture& y) {
                  return capture_order(x, y);
              });
    const analysis_report report = analyze_design(s_.graph, broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_rule(report, "range.stale-operand") ||
                has_rule(report, "range.output-clobbered") ||
                has_rule(report, "lint.write-write"))
        << rules_of(report);
}

TEST_F(AnalyzeBrokenIr, ClearedSelectIsMissingSelect)
{
    rtl_design broken = design_;
    ASSERT_FALSE(broken.fus.empty());
    broken.fus[0].select[0].clear();
    const analysis_report report = analyze_design(s_.graph, broken);
    EXPECT_TRUE(has_rule(report, "range.missing-select"))
        << rules_of(report);
}

TEST_F(AnalyzeBrokenIr, DanglingCaptureFuIsBadIndex)
{
    rtl_design broken = design_;
    broken.captures.front().fu = broken.fus.size() + 7;
    const analysis_report report = analyze_design(s_.graph, broken);
    EXPECT_TRUE(has_rule(report, "lint.bad-index")) << rules_of(report);
}

} // namespace
} // namespace mwl
