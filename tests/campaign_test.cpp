// Campaign subsystem suite (src/campaign/): spec parsing diagnostics,
// deterministic grid expansion, perturbed-variant graphs, store
// round-trips -- and the resume-equivalence acceptance test, which runs
// the real mwl_campaign binary (MWL_TOOL_DIR), kills it at randomly
// chosen store writes via MWL_CRASH_AFTER (including a torn-write arm),
// resumes until complete, and requires the final report to be
// byte-identical to an uninterrupted run.

#include "campaign/campaign_spec.hpp"
#include "campaign/report.hpp"
#include "campaign/result_store.hpp"
#include "io/graph_io.hpp"
#include "scenarios/scenarios.hpp"
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace mwl {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------- spec parsing --

TEST(CampaignSpec, DefaultsMatchTheDocumentedGrammar)
{
    const campaign_spec spec = campaign_spec::parse("scenario fir4\n");
    EXPECT_EQ(spec.scenarios, std::vector<std::string>{"fir4"});
    EXPECT_EQ(spec.slack_lo, 0);
    EXPECT_EQ(spec.slack_hi, 30);
    EXPECT_EQ(spec.slack_step, 10);
    EXPECT_EQ(spec.adder_latencies, std::vector<int>{2});
    EXPECT_EQ(spec.mul_bits_per_cycle, std::vector<int>{8});
    EXPECT_EQ(spec.perturb_count, 0u);
}

TEST(CampaignSpec, FullGrammarParses)
{
    const campaign_spec spec = campaign_spec::parse(
        "# a comment\n"
        "scenario fir4 fir8\n"
        "lambda slack=10..20 step=5\n"
        "model adder-latency=1,2 mul-bits-per-cycle=4,8\n"
        "perturb count=3 flips=1 seed=99\n");
    EXPECT_EQ(spec.scenarios, (std::vector<std::string>{"fir4", "fir8"}));
    EXPECT_EQ(spec.slack_lo, 10);
    EXPECT_EQ(spec.slack_hi, 20);
    EXPECT_EQ(spec.slack_step, 5);
    EXPECT_EQ(spec.adder_latencies, (std::vector<int>{1, 2}));
    EXPECT_EQ(spec.mul_bits_per_cycle, (std::vector<int>{4, 8}));
    EXPECT_EQ(spec.perturb_count, 3u);
    EXPECT_EQ(spec.perturb_flips, 1);
    EXPECT_EQ(spec.perturb_seed, 99u);
}

TEST(CampaignSpec, ScenarioAllPullsTheWholeRegistryOnce)
{
    const campaign_spec spec = campaign_spec::parse("scenario all\n");
    EXPECT_EQ(spec.scenarios, scenario_names());
}

void expect_spec_error(const std::string& text, const std::string& snippet)
{
    try {
        static_cast<void>(campaign_spec::parse(text));
        ADD_FAILURE() << "parsed, expected error with: " << snippet;
    } catch (const spec_error& e) {
        EXPECT_NE(std::string(e.what()).find(snippet), std::string::npos)
            << "expected '" << snippet << "' in: " << e.what();
    }
}

TEST(CampaignSpec, DiagnosticsCarryOneBasedLineNumbers)
{
    expect_spec_error("scenario fir4\nwibble x\n",
                      "spec line 2: unknown keyword 'wibble'");
    expect_spec_error("# leading comment\n\nscenario no_such\n",
                      "spec line 3: unknown scenario 'no_such'");
    expect_spec_error("scenario fir4 fir4\n",
                      "spec line 1: duplicate scenario 'fir4'");
    expect_spec_error("scenario fir4\nlambda slack=20..10\n",
                      "spec line 2: slack range must be 0 <= lo <= hi");
    expect_spec_error("scenario fir4\nlambda step=0\n",
                      "spec line 2: step must be >= 1");
    expect_spec_error("scenario fir4\nlambda slack=abc\n",
                      "spec line 2: bad numeric value in 'slack=abc'");
    expect_spec_error("scenario fir4\nmodel adder-latency=0\n",
                      "spec line 2: adder-latency values must be >= 1");
    expect_spec_error("scenario fir4\nlambda step=5\nlambda step=6\n",
                      "spec line 3: duplicate lambda line");
    expect_spec_error("scenario fir4\nperturb flips=2\n",
                      "spec line 2: perturb needs count=N");
    expect_spec_error("lambda step=5\n", "spec names no scenarios");
}

TEST(CampaignSpec, TuneDirectiveParses)
{
    const campaign_spec spec = campaign_spec::parse(
        "scenario fir4\n"
        "tune budget=1e-5,1e-6 min-frac=3 max-frac=20 seed=11 "
        "max-steps=16 anneal=8\n");
    EXPECT_EQ(spec.tune_budgets, (std::vector<double>{1e-5, 1e-6}));
    EXPECT_EQ(spec.tune_min_frac, 3);
    EXPECT_EQ(spec.tune_max_frac, 20);
    EXPECT_EQ(spec.tune_seed, 11u);
    EXPECT_EQ(spec.tune_max_steps, 16u);
    EXPECT_EQ(spec.tune_anneal, 8u);

    expect_spec_error("scenario fir4\ntune min-frac=3\n",
                      "spec line 2: tune needs budget=LIST");
    expect_spec_error("scenario fir4\ntune budget=1e-5,1e-5\n",
                      "spec line 2: duplicate budget value");
    expect_spec_error("scenario fir4\ntune budget=0\n",
                      "spec line 2: budget values must be positive");
    expect_spec_error("scenario fir4\ntune budget=junk\n",
                      "spec line 2: bad numeric value in 'budget=junk'");
    expect_spec_error("scenario fir4\ntune budget=1e-5 min-frac=9 "
                      "max-frac=4\n",
                      "spec line 2: tune frac range must be 0 <= min <= max");
    expect_spec_error(
        "scenario fir4\ntune budget=1e-5\ntune budget=1e-6\n",
        "spec line 3: duplicate tune line");
}

// ---------------------------------------------------------- expansion --

TEST(CampaignExpand, NestedLoopOrderAndStableKeys)
{
    const campaign_spec spec = campaign_spec::parse(
        "scenario fir4 fir8\n"
        "lambda slack=0..10 step=10\n"
        "model adder-latency=1,2 mul-bits-per-cycle=8\n"
        "perturb count=1 flips=1 seed=7\n");
    const std::vector<campaign_point> points = expand(spec);
    // 2 scenarios x 2 variants x 2 adder latencies x 1 mul x 2 slacks.
    ASSERT_EQ(points.size(), 16u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].index, i);
    }
    EXPECT_EQ(points[0].key(), "fir4/v0/a1m8/s0");
    EXPECT_EQ(points[1].key(), "fir4/v0/a1m8/s10");
    EXPECT_EQ(points[2].key(), "fir4/v0/a2m8/s0");
    EXPECT_EQ(points[4].key(), "fir4/v1/a1m8/s0");
    EXPECT_EQ(points[8].key(), "fir8/v0/a1m8/s0");
    EXPECT_EQ(points[15].key(), "fir8/v1/a2m8/s10");
    // The fingerprint pins the list; expansion is pure.
    EXPECT_EQ(points_fingerprint(points), points_fingerprint(expand(spec)));
    const campaign_spec other =
        campaign_spec::parse("scenario fir4 fir8\n");
    EXPECT_NE(points_fingerprint(points),
              points_fingerprint(expand(other)));
}

TEST(CampaignExpand, TuneBudgetsFormTheInnermostLoop)
{
    const campaign_spec spec = campaign_spec::parse(
        "scenario fir4\n"
        "lambda slack=0..10 step=10\n"
        "tune budget=1e-5,1e-6\n");
    const std::vector<campaign_point> points = expand(spec);
    // 1 scenario x 1 variant x 1 model x 2 slacks x 2 budgets.
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].key(), "fir4/v0/a2m8/s0/b1e-05");
    EXPECT_EQ(points[1].key(), "fir4/v0/a2m8/s0/b1e-06");
    EXPECT_EQ(points[2].key(), "fir4/v0/a2m8/s10/b1e-05");
    EXPECT_EQ(points[3].key(), "fir4/v0/a2m8/s10/b1e-06");
    for (const campaign_point& p : points) {
        EXPECT_TRUE(p.tuned);
    }
    // Specs without a tune line keep their pre-tune keys (and thus
    // their fingerprints): existing stores stay resumable.
    const campaign_spec untuned = campaign_spec::parse(
        "scenario fir4\nlambda slack=0..10 step=10\n");
    const std::vector<campaign_point> plain = expand(untuned);
    ASSERT_EQ(plain.size(), 2u);
    EXPECT_EQ(plain[0].key(), "fir4/v0/a2m8/s0");
    EXPECT_FALSE(plain[0].tuned);
    EXPECT_NE(points_fingerprint(points), points_fingerprint(plain));
}

TEST(CampaignExpand, VariantGraphsAreDeterministic)
{
    const campaign_spec spec = campaign_spec::parse(
        "scenario fir8\nperturb count=2 flips=2 seed=42\n");
    const std::uint64_t base =
        graph_fingerprint(make_variant_graph(spec, "fir8", 0));
    const std::uint64_t v1 =
        graph_fingerprint(make_variant_graph(spec, "fir8", 1));
    const std::uint64_t v2 =
        graph_fingerprint(make_variant_graph(spec, "fir8", 2));
    // Variants reproduce exactly (resume depends on it) ...
    EXPECT_EQ(v1, graph_fingerprint(make_variant_graph(spec, "fir8", 1)));
    EXPECT_EQ(v2, graph_fingerprint(make_variant_graph(spec, "fir8", 2)));
    // ... and differ from each other and the base.
    EXPECT_NE(v1, base);
    EXPECT_NE(v1, v2);
    // Perturbation preserves the structure: same ops, same edges.
    const sequencing_graph a = make_variant_graph(spec, "fir8", 0);
    const sequencing_graph b = make_variant_graph(spec, "fir8", 1);
    ASSERT_EQ(a.size(), b.size());
    for (const op_id id : a.all_ops()) {
        const auto sa = a.successors(id);
        const auto sb = b.successors(id);
        ASSERT_EQ(sa.size(), sb.size());
        EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
    }
}

// -------------------------------------- store round-trip via the grid --

TEST(CampaignStore, CreateRecordCompactReopenRoundTrips)
{
    const fs::path dir = "campaign_test_tmp/store_roundtrip";
    fs::remove_all(dir);
    const campaign_spec spec = campaign_spec::parse(
        "scenario fir4\nlambda slack=0..20 step=10\n");
    const std::vector<campaign_point> points = expand(spec);
    const std::uint64_t fp = points_fingerprint(points);
    {
        result_store store = result_store::create(
            dir, "scenario fir4\nlambda slack=0..20 step=10\n", fp,
            points.size(), /*checkpoint_every=*/2);
        for (const campaign_point& p : points) {
            point_result r;
            r.index = p.index;
            r.key = p.key();
            r.lambda = 10 + static_cast<int>(p.index);
            r.latency = 9;
            r.area = 100.0 / 3.0 + static_cast<double>(p.index);
            store.record(r); // checkpoint_every=2 forces compactions
        }
    }
    const result_store reopened = result_store::open(dir, fp);
    EXPECT_EQ(reopened.results().size(), points.size());
    EXPECT_EQ(reopened.fingerprint(), fp);
    for (const campaign_point& p : points) {
        EXPECT_EQ(reopened.results().at(p.index).key, p.key());
        EXPECT_EQ(reopened.results().at(p.index).area,
                  100.0 / 3.0 + static_cast<double>(p.index));
    }
    // Status/report layers see the same picture.
    const campaign_status status = status_of(points, reopened);
    EXPECT_EQ(status.completed, points.size());
    EXPECT_EQ(status.failed, 0u);
    EXPECT_EQ(report_json(points, reopened),
              report_json(points, result_store::open(dir, fp)));
}

// ------------------------------------ the real binary, killed at will --

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

std::string campaign_tool()
{
    return std::string(MWL_TOOL_DIR) + "/mwl_campaign";
}

std::string slurp(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return std::move(buffer).str();
}

const char* acceptance_spec =
    "scenario fir4 fir8\n"
    "lambda slack=0..20 step=10\n"
    "model adder-latency=1,2 mul-bits-per-cycle=8\n"
    "perturb count=1 flips=2 seed=7\n"; // 2*2*2*1*3 = 24 points

std::string write_acceptance_spec()
{
    fs::create_directories("campaign_test_tmp");
    const std::string path = "campaign_test_tmp/acceptance.spec";
    std::ofstream(path) << acceptance_spec;
    return path;
}

/// Run the reference (uninterrupted) campaign once and return its
/// canonical report JSON.
std::string reference_report_json(const std::string& spec_path)
{
    const std::string dir = "campaign_test_tmp/reference";
    fs::remove_all(dir);
    const run_result ref = run(campaign_tool() + " --run " + dir +
                               " --spec " + spec_path + " --jobs 2");
    EXPECT_EQ(ref.exit_code, 0) << ref.output;
    const run_result report =
        run(campaign_tool() + " --report " + dir +
            " --json campaign_test_tmp/reference.json");
    EXPECT_EQ(report.exit_code, 0) << report.output;
    return slurp("campaign_test_tmp/reference.json");
}

TEST(CampaignAcceptance, ResumeAfterInjectedCrashesIsByteIdentical)
{
    const std::string spec_path = write_acceptance_spec();
    const std::string reference = reference_report_json(spec_path);
    ASSERT_FALSE(reference.empty());

    const std::string dir = "campaign_test_tmp/crashed";
    fs::remove_all(dir);

    // Crash at >= 5 random store writes (journal appends, snapshot
    // replacements, journal resets all count), resuming after each.
    // checkpoint-every=4 keeps compactions -- the riskiest window --
    // in play. The crash points are random but the seed is logged, so a
    // failure reproduces.
    const std::uint64_t seed = 0x6370616d70616967; // arbitrary, fixed
    rng crash_rng(seed);
    int crashes = 0;
    bool first = true;
    for (int attempt = 0; attempt < 32 && crashes < 5; ++attempt) {
        const std::uint64_t after = crash_rng.uniform(1, 9);
        const std::string base_cmd =
            first ? campaign_tool() + " --run " + dir + " --spec " +
                        spec_path
                  : campaign_tool() + " --resume " + dir;
        const run_result r = run("MWL_CRASH_AFTER=" +
                                 std::to_string(after) + " " + base_cmd +
                                 " --jobs 2 --checkpoint-every 4");
        first = false;
        if (r.exit_code == 96) {
            ++crashes;
            continue;
        }
        // The countdown outlived the remaining work: the run finished.
        ASSERT_TRUE(r.exit_code == 0 || r.exit_code == 1)
            << "seed=" << seed << "\n" << r.output;
        break;
    }
    EXPECT_GE(crashes, 5) << "seed=" << seed;

    // Finish cleanly (no fault injection) ...
    const run_result final_run =
        run(campaign_tool() + " --resume " + dir + " --jobs 2");
    ASSERT_EQ(final_run.exit_code, 0) << final_run.output;
    // ... every point must now be recorded exactly once, and the report
    // must not differ from the uninterrupted run by a single byte.
    const run_result report =
        run(campaign_tool() + " --report " + dir +
            " --json campaign_test_tmp/crashed.json");
    ASSERT_EQ(report.exit_code, 0) << report.output;
    EXPECT_EQ(slurp("campaign_test_tmp/crashed.json"), reference)
        << "seed=" << seed;
}

TEST(CampaignAcceptance, TornFinalRecordIsRecoveredOnResume)
{
    const std::string spec_path = write_acceptance_spec();
    const std::string reference = reference_report_json(spec_path);

    const std::string dir = "campaign_test_tmp/torn";
    fs::remove_all(dir);
    // Crash *mid-write* of the 4th store write: with the default
    // checkpoint interval that is a journal record append, so the
    // journal is left with a half-written framed record.
    const run_result crash =
        run("MWL_CRASH_AFTER=4 MWL_CRASH_TORN=1 " + campaign_tool() +
            " --run " + dir + " --spec " + spec_path + " --jobs 2");
    ASSERT_EQ(crash.exit_code, 96) << crash.output;

    const run_result resumed = run(campaign_tool() + " --resume " + dir +
                                   " --jobs 2");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("torn journal tail discarded"),
              std::string::npos)
        << resumed.output;

    const run_result report =
        run(campaign_tool() + " --report " + dir +
            " --json campaign_test_tmp/torn.json");
    ASSERT_EQ(report.exit_code, 0) << report.output;
    EXPECT_EQ(slurp("campaign_test_tmp/torn.json"), reference);
}

TEST(CampaignAcceptance, PlainGridReportIsIndependentOfPoolSize)
{
    // Each wave is one parallel_for of engine.run() calls that journal
    // themselves as they finish, so the journal order varies with the
    // pool; the canonical report must not.
    const std::string spec_path = write_acceptance_spec();
    const std::string reference = reference_report_json(spec_path);
    ASSERT_FALSE(reference.empty());
    for (const std::string jobs : {"1", "4"}) {
        const std::string dir = "campaign_test_tmp/plain_j" + jobs;
        const std::string json = dir + ".json";
        fs::remove_all(dir);
        const run_result r = run(campaign_tool() + " --run " + dir +
                                 " --spec " + spec_path + " --jobs " + jobs);
        ASSERT_EQ(r.exit_code, 0) << r.output;
        const run_result report =
            run(campaign_tool() + " --report " + dir + " --json " + json);
        ASSERT_EQ(report.exit_code, 0) << report.output;
        EXPECT_EQ(slurp(json), reference) << "--jobs " << jobs;
    }
}

TEST(CampaignAcceptance, StatusAndDoubleResumeAreIdempotent)
{
    const std::string spec_path = write_acceptance_spec();
    const std::string dir = "campaign_test_tmp/idempotent";
    fs::remove_all(dir);
    const run_result first = run(campaign_tool() + " --run " + dir +
                                 " --spec " + spec_path + " --jobs 2");
    ASSERT_EQ(first.exit_code, 0) << first.output;
    // Resuming a complete campaign re-executes nothing.
    const run_result again =
        run(campaign_tool() + " --resume " + dir + " --jobs 2");
    EXPECT_EQ(again.exit_code, 0) << again.output;
    EXPECT_NE(again.output.find("0 executed"), std::string::npos)
        << again.output;
    const run_result status = run(campaign_tool() + " --status " + dir);
    EXPECT_EQ(status.exit_code, 0) << status.output;
    EXPECT_NE(status.output.find("complete: 24 of 24 points"),
              std::string::npos)
        << status.output;
}

TEST(CampaignAcceptance, TunedCampaignRunsAndResumesDeterministically)
{
    fs::create_directories("campaign_test_tmp");
    const std::string spec_path = "campaign_test_tmp/tuned.spec";
    std::ofstream(spec_path) << "scenario fir4\n"
                                "lambda slack=0..10 step=10\n"
                                "tune budget=1e-5,1e-6 max-steps=8\n";

    const auto run_fresh = [&](const std::string& dir,
                               const std::string& json,
                               const std::string& jobs) {
        fs::remove_all(dir);
        const run_result r = run(campaign_tool() + " --run " + dir +
                                 " --spec " + spec_path + " --jobs " + jobs);
        ASSERT_EQ(r.exit_code, 0) << r.output;
        const run_result report = run(campaign_tool() + " --report " + dir +
                                      " --json " + json);
        ASSERT_EQ(report.exit_code, 0) << report.output;
    };
    run_fresh("campaign_test_tmp/tuned_a", "campaign_test_tmp/tuned_a.json",
              "2");
    run_fresh("campaign_test_tmp/tuned_b", "campaign_test_tmp/tuned_b.json",
              "2");
    // Tuning is seeded search, not timing: two independent runs agree
    // byte for byte.
    const std::string reference = slurp("campaign_test_tmp/tuned_a.json");
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(reference, slurp("campaign_test_tmp/tuned_b.json"));
    // Nor does the pool size move it: the points' searches share the pool
    // with each other's candidate fan-outs.
    run_fresh("campaign_test_tmp/tuned_j1", "campaign_test_tmp/tuned_j1.json",
              "1");
    run_fresh("campaign_test_tmp/tuned_j4", "campaign_test_tmp/tuned_j4.json",
              "4");
    const std::string serial = slurp("campaign_test_tmp/tuned_j1.json");
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, slurp("campaign_test_tmp/tuned_j4.json"));
    EXPECT_EQ(serial, reference);

    // Resuming a complete tuned campaign re-executes nothing.
    const run_result again =
        run(campaign_tool() + " --resume campaign_test_tmp/tuned_a --jobs 2");
    EXPECT_EQ(again.exit_code, 0) << again.output;
    EXPECT_NE(again.output.find("0 executed"), std::string::npos)
        << again.output;
    const run_result status =
        run(campaign_tool() + " --status campaign_test_tmp/tuned_a");
    EXPECT_EQ(status.exit_code, 0) << status.output;
    EXPECT_NE(status.output.find("complete: 4 of 4 points"),
              std::string::npos)
        << status.output;
}

} // namespace
} // namespace mwl
