// The wordlength optimizer's contract: deterministic search results,
// budget monotonicity, and -- the point of cost-in-the-loop tuning --
// every design it emits re-verifies end to end (bit-true reference ==
// datapath simulation == RTL interpretation) and passes the static
// value-range analyzer. Also reruns the real mwl_tune binary
// (MWL_TOOL_DIR) to pin that the JSON report is byte-identical across
// runs of the same spec.

#include "dfg/analysis.hpp"
#include "engine/batch_engine.hpp"
#include "io/graph_io.hpp"
#include "scenarios/scenarios.hpp"
#include "tgff/corpus.hpp"
#include "verify/differential.hpp"
#include "wordlength/optimizer.hpp"
#include "wordlength/tune_spec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

using namespace mwl;

optimizer_options small_options(double budget)
{
    optimizer_options options;
    options.noise.budget = budget;
    options.noise.min_frac_bits = 2;
    options.noise.max_frac_bits = 16;
    options.max_steps = 8;
    options.anneal_iterations = 6;
    return options;
}

tune_result tune(const std::string& scenario, const optimizer_options& options,
                 gain_model gains = gain_model::unit, std::size_t threads = 2)
{
    const tune_problem problem =
        make_tune_problem(make_scenario(scenario).graph, gains);
    const sonic_model model;
    thread_pool pool(threads);
    batch_engine engine(pool);
    return optimize_wordlengths(problem, model, options, engine);
}

void expect_same_design(const tuned_design& a, const tuned_design& b)
{
    EXPECT_EQ(a.frac_bits, b.frac_bits);
    EXPECT_EQ(a.noise_power, b.noise_power);
    EXPECT_EQ(a.total_frac, b.total_frac);
    EXPECT_EQ(a.lambda, b.lambda);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.area, b.area);
}

// ------------------------------------------------------- tuned_graph ----

TEST(TunedGraph, DecompositionCoversEveryOperation)
{
    const sequencing_graph graph = make_scenario("fir4").graph;
    const tune_problem p = make_tune_problem(graph);
    EXPECT_EQ(p.int_bits.size(), graph.size());
    EXPECT_EQ(p.coeff_bits.size(), graph.size());
    EXPECT_EQ(p.coeff_gain.size(), graph.size());
    for (const op_id o : graph.all_ops()) {
        EXPECT_GE(p.int_bits[o.value()], 1);
        if (graph.shape(o).kind() == op_kind::mul) {
            EXPECT_EQ(p.coeff_bits[o.value()], graph.shape(o).width_b());
        } else {
            EXPECT_EQ(p.coeff_bits[o.value()], 0);
        }
        EXPECT_GT(p.coeff_gain[o.value()], 0.0);
        EXPECT_LE(p.coeff_gain[o.value()], 1.0);
    }
}

TEST(TunedGraph, ApplyPreservesTopologyAndCoefficients)
{
    const tune_problem p = make_tune_problem(make_scenario("fir4").graph);
    const std::vector<int> frac(p.graph.size(), 6);
    const sequencing_graph out = apply_frac_bits(p, frac);
    ASSERT_EQ(out.size(), p.graph.size());
    for (const op_id o : p.graph.all_ops()) {
        EXPECT_EQ(out.shape(o).kind(), p.graph.shape(o).kind());
        const int expected =
            std::min(p.int_bits[o.value()] + 6, p.width_cap);
        if (out.shape(o).kind() == op_kind::mul) {
            // wider-first normalisation: the tuned data width is width_a
            // unless the coefficient is wider.
            EXPECT_EQ(std::max(out.shape(o).width_a(), out.shape(o).width_b()),
                      std::max(expected, p.coeff_bits[o.value()]));
        } else {
            EXPECT_EQ(out.shape(o).width_a(), expected);
        }
        const auto succ_base = p.graph.successors(o);
        const auto succ_out = out.successors(o);
        ASSERT_EQ(succ_base.size(), succ_out.size());
    }
}

TEST(TunedGraph, RejectsMismatchedAssignment)
{
    const tune_problem p = make_tune_problem(make_scenario("fir4").graph);
    const std::vector<int> wrong(p.graph.size() + 1, 4);
    EXPECT_THROW(static_cast<void>(apply_frac_bits(p, wrong)),
                 precondition_error);
}

// --------------------------------------------------------- optimizer ----

TEST(WordlengthOptimizer, SameSeedSameResult)
{
    // Candidates are priced concurrently on the engine's pool; the design
    // and every stat must not depend on how many workers shared them.
    const struct {
        const char* scenario;
        gain_model gains;
        double budget;
        std::size_t min_steps; ///< the descent must move at least this far
    } cases[] = {
        {"fir4", gain_model::unit, 1e-5, 0},
        {"iir_biquad2", gain_model::attenuating, 1e-6, 1},
    };
    for (const auto& c : cases) {
        const optimizer_options options = small_options(c.budget);
        const tune_result a = tune(c.scenario, options, c.gains, 1);
        for (const std::size_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(c.scenario) + ", " +
                         std::to_string(threads) + " threads");
            const tune_result b = tune(c.scenario, options, c.gains, threads);
            expect_same_design(a.best, b.best);
            EXPECT_EQ(a.stats.steps, b.stats.steps);
            EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
            EXPECT_EQ(a.stats.reused, b.stats.reused);
            EXPECT_EQ(a.stats.anneal_accepted, b.stats.anneal_accepted);
            EXPECT_EQ(a.stats.interrupted, b.stats.interrupted);
        }
        EXPECT_GE(a.stats.steps, c.min_steps) << c.scenario;
    }
}

TEST(WordlengthOptimizer, ConcurrentSearchesOnOneEngineMatchSerialCalls)
{
    // The campaign shape: two searches run as tasks on one engine's pool,
    // sharing its cache while each fans its candidates out on the same
    // pool. Nearby budgets of one design make their candidates overlap,
    // so they hit and coalesce on each other's work. Each must return
    // what it returns alone.
    const tune_problem problem = make_tune_problem(
        make_scenario("iir_biquad2").graph, gain_model::attenuating);
    const optimizer_options options[] = {small_options(1e-6),
                                         small_options(1.03e-6)};
    const sonic_model model;

    tune_result alone[2];
    for (std::size_t i = 0; i < 2; ++i) {
        batch_engine engine(batch_options{.jobs = 2});
        alone[i] = optimize_wordlengths(problem, model, options[i], engine);
    }

    batch_engine shared(batch_options{.jobs = 4});
    tune_result together[2];
    task_group searches(shared.pool());
    for (std::size_t i = 0; i < 2; ++i) {
        searches.run([&, i] {
            together[i] =
                optimize_wordlengths(problem, model, options[i], shared);
        });
    }
    searches.wait();

    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE("search " + std::to_string(i));
        expect_same_design(alone[i].best, together[i].best);
        // What a search visits is part of its result; only `reused` may
        // depend on what the other search cached.
        EXPECT_EQ(alone[i].stats.steps, together[i].stats.steps);
        EXPECT_EQ(alone[i].stats.evaluations, together[i].stats.evaluations);
        EXPECT_EQ(alone[i].stats.anneal_accepted,
                  together[i].stats.anneal_accepted);
    }
    EXPECT_GE(alone[0].stats.steps, 1u) << "the descent never moved";
}

TEST(WordlengthOptimizer, MeetsTheBudget)
{
    const tune_result r = tune("fir8", small_options(1e-6));
    EXPECT_LE(r.best.noise_power, 1e-6);
    EXPECT_GT(r.best.area, 0.0);
    EXPECT_GT(r.best.latency, 0);
}

TEST(WordlengthOptimizer, LooserBudgetNeedsNoMoreBits)
{
    const tune_result tight = tune("fir8", small_options(1e-7));
    const tune_result loose = tune("fir8", small_options(1e-4));
    EXPECT_LE(loose.best.total_frac, tight.best.total_frac);
    EXPECT_LE(loose.best.area, tight.best.area);
}

TEST(WordlengthOptimizer, DescentNeverWorseThanWaterFillingSeed)
{
    const tune_problem problem =
        make_tune_problem(make_scenario("iir_biquad2").graph);
    const sonic_model model;
    thread_pool pool(2);
    batch_engine engine(pool);
    optimizer_options options = small_options(1e-5);
    options.anneal_iterations = 0;

    const wordlength_assignment seed = assign_fractional_widths(
        problem.graph, output_gains(problem.graph, problem.coeff_gain),
        options.noise);
    const batch_engine::outcome seeded = engine.run(
        apply_frac_bits(problem, seed.frac_bits), model,
        relaxed_lambda(min_latency(apply_frac_bits(problem, seed.frac_bits),
                                   model),
                       options.slack));
    ASSERT_TRUE(seeded.ok());

    const tune_result r =
        optimize_wordlengths(problem, model, options, engine);
    EXPECT_LE(r.best.area, seeded.result->path.total_area);
}

TEST(WordlengthOptimizer, UnreachableBudgetThrowsInfeasible)
{
    optimizer_options options = small_options(1e-30);
    options.noise.max_frac_bits = 8;
    EXPECT_THROW(static_cast<void>(tune("fir4", options)), infeasible_error);
}

TEST(WordlengthOptimizer, TunedDesignsVerifyAndLintClean)
{
    const tune_problem problem = make_tune_problem(
        make_scenario("fir8").graph, gain_model::attenuating);
    const sonic_model model;
    thread_pool pool(2);
    batch_engine engine(pool);
    const tune_result r = optimize_wordlengths(problem, model,
                                               small_options(1e-6), engine);

    const sequencing_graph tuned = apply_frac_bits(problem, r.best.frac_bits);
    verify_options options;
    options.inputs_per_graph = 8;
    const verify_report dynamic =
        verify_graph(tuned, "fir8@1e-6", model, r.best.lambda, options);
    EXPECT_TRUE(dynamic.ok())
        << dynamic.counterexamples.front().to_string();
    const analysis_report lint =
        static_verify_graph(tuned, "fir8@1e-6", model, r.best.lambda, options);
    EXPECT_TRUE(lint.ok()) << lint.findings.front().to_string();
}

TEST(WordlengthOptimizer, ReproducesThePinnedScenarioCorpusEntries)
{
    // The "<name>_tuned<budget>" registry entries pin mwl_tune results as
    // literal fractional assignments (src/scenarios/scenarios.cpp). Re-run
    // the search at the recorded spec and require the identical graph, so
    // optimizer drift cannot leave the corpus silently stale.
    const struct {
        const char* base;
        const char* tuned;
        double budget;
    } pinned[] = {
        {"fir8", "fir8_tuned1e6", 1e-6},
        {"lattice4", "lattice4_tuned1e5", 1e-5},
    };
    for (const auto& entry : pinned) {
        const tune_problem problem = make_tune_problem(
            make_scenario(entry.base).graph, gain_model::attenuating);
        const sonic_model model;
        thread_pool pool(2);
        batch_engine engine(pool);
        optimizer_options options;
        options.noise.budget = entry.budget;
        options.anneal_iterations = 200;
        const tune_result r =
            optimize_wordlengths(problem, model, options, engine);
        EXPECT_EQ(write_graph(apply_frac_bits(problem, r.best.frac_bits)),
                  write_graph(make_scenario(entry.tuned).graph))
            << entry.tuned << " no longer matches the optimizer's output";
    }
}

// --------------------------------------------------------- tune_spec ----

TEST(TuneSpec, ParsesEveryKeyword)
{
    const tune_spec spec = tune_spec::parse(
        "# tuned sweep\n"
        "scenario fir4 fir8\n"
        "budget 1e-6 1e-4\n"
        "frac min=3 max=20\n"
        "search seed=7 max-steps=5 anneal=9 temp=0.1\n"
        "gain model=attenuating base-frac=6 cap=28\n"
        "lambda slack=10\n");
    ASSERT_EQ(spec.entries.size(), 2u);
    EXPECT_EQ(spec.entries[0].scenario, "fir4");
    ASSERT_EQ(spec.budgets.size(), 2u);
    EXPECT_EQ(spec.min_frac_bits, 3);
    EXPECT_EQ(spec.max_frac_bits, 20);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.max_steps, 5u);
    EXPECT_EQ(spec.anneal_iterations, 9u);
    EXPECT_EQ(spec.gains, gain_model::attenuating);
    EXPECT_EQ(spec.base_frac_bits, 6);
    EXPECT_EQ(spec.width_cap, 28);
    EXPECT_NEAR(spec.slack, 0.10, 1e-12);
}

TEST(TuneSpec, DiagnosticsCarryLineNumbers)
{
    const auto expect_spec_error = [](const std::string& text,
                                      const std::string& snippet) {
        try {
            static_cast<void>(tune_spec::parse(text));
            FAIL() << "expected spec_error for:\n" << text;
        } catch (const spec_error& e) {
            EXPECT_NE(std::string(e.what()).find(snippet), std::string::npos)
                << e.what();
        }
    };
    expect_spec_error("scenario fir4\nbudget junk\n",
                      "spec line 2: bad numeric value 'junk'");
    expect_spec_error("scenario nope\nbudget 1e-6\n",
                      "spec line 1: unknown scenario 'nope'");
    expect_spec_error("scenario fir4\nbudget 1e-6\nfrac min=9 max=3\n",
                      "spec line 3: frac range must be 0 <= min <= max");
    expect_spec_error("scenario fir4\nbudget -1e-6\n",
                      "spec line 2: budgets must be positive");
    expect_spec_error("budget 1e-6\n", "spec names no designs");
    expect_spec_error("scenario fir4\n", "spec names no budgets");
}

// ----------------------------------------------- the real tool binary ----

std::string run_tool(const std::string& command, int& exit_code)
{
    std::string output;
    FILE* pipe = popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed for: " << command;
        exit_code = -1;
        return output;
    }
    std::array<char, 4096> buffer;
    std::size_t got = 0;
    while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
        output.append(buffer.data(), got);
    }
    const int status = pclose(pipe);
    exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return output;
}

std::string slurp(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(TuneTool, ReportIsByteIdenticalAcrossRuns)
{
    {
        std::ofstream spec("wordlength_opt_tool.spec");
        spec << "scenario fir4\n"
                "budget 1e-5 1e-4\n"
                "search max-steps=4 anneal=4\n";
    }
    const std::string binary = std::string(MWL_TOOL_DIR) + "/mwl_tune";
    int first_exit = -1;
    int second_exit = -1;
    const std::string first_out =
        run_tool(binary + " wordlength_opt_tool.spec --jobs 2 --json "
                          "wordlength_opt_tool_a.json",
                 first_exit);
    static_cast<void>(
        run_tool(binary + " wordlength_opt_tool.spec --jobs 2 --json "
                          "wordlength_opt_tool_b.json",
                 second_exit));
    ASSERT_EQ(first_exit, 0) << first_out;
    ASSERT_EQ(second_exit, 0);
    const std::string a = slurp("wordlength_opt_tool_a.json");
    const std::string b = slurp("wordlength_opt_tool_b.json");
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"status\":\"front\""), std::string::npos) << a;
}

} // namespace
