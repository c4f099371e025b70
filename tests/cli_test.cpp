// Error-path tests for the CLI tools, run against the real binaries
// (MWL_TOOL_DIR is injected by CMake). Each case pins the exit code and a
// golden stderr snippet, so diagnostics stay diagnostics: a regression
// that turns a manifest typo into an uncaught abort, loses the 1-based
// line number, or shifts exit 2 -> 1 fails here, not in a user's shell.

#include "io/record_journal.hpp"
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

struct run_result {
    int exit_code = -1;
    std::string output; ///< stdout + stderr, interleaved
};

/// Run a tool with stderr folded into stdout and capture both.
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

std::string tool(const std::string& name)
{
    return std::string(MWL_TOOL_DIR) + "/" + name;
}

/// Write an input file -- manifest, spec or graph -- into the test's
/// working directory (the build tree).
std::string write_input(const std::string& name, const std::string& text)
{
    std::ofstream out(name);
    out << text;
    return name;
}

void expect_fails_with(const std::string& command, int exit_code,
                       const std::string& snippet)
{
    const run_result r = run(command);
    EXPECT_EQ(r.exit_code, exit_code) << command << "\n" << r.output;
    EXPECT_NE(r.output.find(snippet), std::string::npos)
        << command << "\nexpected snippet: " << snippet << "\ngot:\n"
        << r.output;
}

// ------------------------------------------------------------ mwl_batch --

TEST(CliBatch, MalformedManifestLineReportsItsLineNumber)
{
    const std::string manifest = write_input(
        "cli_test_bad_line.manifest",
        "# comment line\n"
        "corpus ops=4 count=1\n"
        "graph\n");
    expect_fails_with(tool("mwl_batch") + " " + manifest, 2,
                      "manifest line 3: expected 'graph FILE ...'");
}

TEST(CliBatch, UnknownKeywordReportsItsLineNumber)
{
    const std::string manifest = write_input(
        "cli_test_bad_keyword.manifest", "corpus ops=4 count=1\nfrob x\n");
    expect_fails_with(tool("mwl_batch") + " " + manifest, 2,
                      "manifest line 2: unknown keyword 'frob'");
}

TEST(CliBatch, BadNumericDirectiveReportsItsLineNumber)
{
    const std::string manifest = write_input(
        "cli_test_bad_number.manifest", "corpus ops=4 count=1 lambda=abc\n");
    expect_fails_with(tool("mwl_batch") + " " + manifest, 2,
                      "manifest line 1: bad numeric value in 'lambda=abc'");
}

TEST(CliBatch, SweepAndVerifyAreMutuallyExclusive)
{
    const std::string manifest = write_input(
        "cli_test_conflict.manifest",
        "corpus ops=4 count=1 sweep=20 verify=4\n");
    expect_fails_with(tool("mwl_batch") + " " + manifest, 2,
                      "sweep= and verify= are mutually exclusive");
}

TEST(CliBatch, MissingGraphFileReportsItsLineNumber)
{
    const std::string manifest = write_input(
        "cli_test_missing_graph.manifest",
        "graph cli_test_does_not_exist.mwl\n");
    expect_fails_with(tool("mwl_batch") + " " + manifest, 2,
                      "manifest line 1: cannot open graph file");
}

TEST(CliBatch, EmptyManifestIsAnError)
{
    const std::string manifest =
        write_input("cli_test_empty.manifest", "# nothing here\n");
    expect_fails_with(tool("mwl_batch") + " " + manifest, 2,
                      "manifest has no entries");
}

TEST(CliBatch, UnknownOptionExitsTwo)
{
    expect_fails_with(tool("mwl_batch") + " --frobnicate", 2,
                      "unknown option --frobnicate");
}

TEST(CliBatch, NegativeJobsIsDiagnosedNotWrapped)
{
    // stoul would silently wrap "-2" to ~1.8e19 threads.
    expect_fails_with(tool("mwl_batch") + " --jobs -2 -", 2,
                      "bad value for --jobs: bad numeric value '-2'");
}

TEST(CliBatch, SigintDrainsAndEmitsPartialResultsWithExitThree)
{
    // A corpus big enough that the run is mid-flight whenever the signal
    // lands. The tool must drain, print what it completed, and exit 3 --
    // not die signal-killed with no output.
    const std::string manifest = write_input(
        "cli_test_sigint.manifest", "corpus ops=12 count=4000 seed=3\n");
    const std::string out_file = "cli_test_sigint.out";
    const std::string json_file = "cli_test_sigint.json";
    const std::string binary = tool("mwl_batch");
    for (const int delay_ms : {20, 40, 80, 160, 320}) {
        const pid_t pid = fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            const int fd = ::open(out_file.c_str(),
                                  O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd != -1) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execl(binary.c_str(), "mwl_batch", manifest.c_str(),
                    "--jobs", "2", "--json", json_file.c_str(),
                    static_cast<char*>(nullptr));
            ::_exit(127);
        }
        ::usleep(delay_ms * 1000);
        ::kill(pid, SIGINT);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 3) {
            std::ifstream in(out_file);
            std::string output((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
            EXPECT_NE(output.find("interrupted: completed"),
                      std::string::npos)
                << output;
            EXPECT_NE(output.find("mwl_batch results"), std::string::npos)
                << output;
            // The rate counts the entries that ran, not the manifest.
            std::ifstream json_in(json_file);
            const std::string json((std::istreambuf_iterator<char>(json_in)),
                                   std::istreambuf_iterator<char>());
            const mwl::json_value stats = mwl::parse_json(json).at("stats");
            EXPECT_TRUE(stats.boolean_at("interrupted")) << json;
            const double completed = stats.number_at("completed_entries");
            EXPECT_LT(completed, stats.number_at("entries")) << json;
            EXPECT_NEAR(stats.number_at("entries_per_second") *
                            stats.number_at("wall_seconds"),
                        completed, 1e-6 * std::max(1.0, completed))
                << json;
            return;
        }
        // Signal-killed: the handler was not installed yet (the signal
        // beat exec); a longer delay fixes that. Exit 0 would mean the
        // corpus finished first, which 4000 entries rules out.
        ASSERT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "run completed before the signal; corpus too small";
    }
    FAIL() << "SIGINT never landed while the batch was running";
}

/// Each result row of an mwl_batch JSON report as one string. An alloc
/// row's status (computed, coalesced or cached) is left out: which of two
/// duplicate entries computes and which one waits or hits is timing.
std::vector<std::string> batch_rows(const std::string& json)
{
    std::vector<std::string> rows;
    const mwl::json_value report = mwl::parse_json(json);
    for (const mwl::json_value& r : report.array_at("results")) {
        std::string row = r.string_at("entry") + " " + r.string_at("kind") +
                          " " + mwl::format_double(r.number_at("lambda")) +
                          " " + mwl::format_double(r.number_at("latency")) +
                          " " + mwl::format_double(r.number_at("area"));
        if (r.string_at("kind") != "alloc") {
            row += " " + r.string_at("status");
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

TEST(CliBatch, MixedManifestResultsDoNotDependOnJobs)
{
    // Alloc, sweep= and verify= entries share one parallel_for pass over
    // the pool; duplicates exercise the engine's coalescing and cache.
    const std::string manifest = write_input(
        "cli_test_mixed.manifest",
        "corpus ops=8 count=6 seed=7 slack=10\n"
        "corpus ops=6 count=3 seed=9 sweep=30\n"
        "corpus ops=8 count=6 seed=7 slack=10\n"
        "corpus ops=6 count=3 seed=11 verify=8\n"
        "corpus ops=10 count=4 seed=5\n");
    std::vector<std::vector<std::string>> runs;
    for (const std::string jobs : {"1", "4"}) {
        const std::string json = "cli_test_mixed_j" + jobs + ".json";
        const run_result r = run(tool("mwl_batch") + " " + manifest +
                                 " --jobs " + jobs + " --json " + json);
        ASSERT_EQ(r.exit_code, 0) << r.output;
        std::ifstream in(json);
        runs.push_back(batch_rows(std::string(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>())));
    }
    ASSERT_GE(runs[0].size(), 22u); // 22 entries; a sweep may add rows
    EXPECT_EQ(runs[0], runs[1]);
}

/// mwl_batch's JSON report on `manifest` (`--json -`, stdout alone).
run_result batch_json(const std::string& manifest, const std::string& jobs)
{
    return run("(" + tool("mwl_batch") + " " + manifest + " --jobs " + jobs +
               " --json - 2>/dev/null)");
}

TEST(CliBatch, DuplicateSweepLinesExecuteOnce)
{
    // Every lambda of a sweep is an engine job, so a second identical
    // sweep line is answered from the first one's jobs. Entry names carry
    // the manifest position, so rows compare without them.
    const std::string line = "corpus ops=8 count=6 seed=1 sweep=30\n";
    const std::string one = write_input("cli_test_sweep1.manifest", line);
    const std::string two =
        write_input("cli_test_sweep2.manifest", line + line);
    const auto without_entry = [](const std::string& json) {
        std::vector<std::string> rows = batch_rows(json);
        for (std::string& row : rows) {
            row.erase(0, row.find(' '));
        }
        return rows;
    };
    for (const std::string jobs : {"1", "4"}) {
        const run_result r1 = batch_json(one, jobs);
        const run_result r2 = batch_json(two, jobs);
        ASSERT_EQ(r1.exit_code, 0) << r1.output;
        ASSERT_EQ(r2.exit_code, 0) << r2.output;
        const double executed = mwl::parse_json(r1.output)
                                    .at("stats")
                                    .number_at("executed");
        EXPECT_GT(executed, 0.0) << "jobs " << jobs;
        EXPECT_EQ(
            mwl::parse_json(r2.output).at("stats").number_at("executed"),
            executed)
            << "jobs " << jobs;
        const std::vector<std::string> once = without_entry(r1.output);
        std::vector<std::string> twice = once;
        twice.insert(twice.end(), once.begin(), once.end());
        EXPECT_EQ(without_entry(r2.output), twice) << "jobs " << jobs;
    }
}

TEST(CliBatch, OverflowingLambdaFailsItsOwnRow)
{
    // Regression: a sweep= bound past INT_MAX was cast to int (undefined
    // behaviour) and aborted the batch with exit 134, and a slack= one
    // ended the batch before any row. Each now fails its own entry's row
    // (exit 1) and the other entries still report.
    const std::string manifest =
        write_input("cli_test_huge_lambda.manifest",
                    "corpus ops=4 count=1 sweep=1e12\n"
                    "corpus ops=4 count=1 slack=1e12\n"
                    "corpus ops=4 count=1 seed=3\n");
    const run_result r = batch_json(manifest, "2");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    const mwl::json_value report = mwl::parse_json(r.output);
    const std::vector<mwl::json_value>& rows = report.array_at("results");
    ASSERT_EQ(rows.size(), 3u) << r.output;
    const std::string overflow =
        "error: relaxed lambda exceeds INT_MAX at slack 1e+10";
    EXPECT_EQ(rows[0].string_at("kind"), "sweep");
    EXPECT_EQ(rows[0].string_at("status"), overflow);
    EXPECT_EQ(rows[1].string_at("kind"), "alloc");
    EXPECT_EQ(rows[1].string_at("status"), overflow);
    EXPECT_EQ(rows[2].string_at("status"), "computed");
}

// ----------------------------------------------------------- mwl_verify --

TEST(CliVerify, ZeroInputsIsRejected)
{
    expect_fails_with(tool("mwl_verify") + " --inputs 0", 2,
                      "--inputs must be >= 1");
}

TEST(CliVerify, ZeroCountIsRejected)
{
    expect_fails_with(tool("mwl_verify") + " --count 0", 2,
                      "--count must be >= 1");
}

TEST(CliVerify, OverwideCorpusIsRejected)
{
    expect_fails_with(tool("mwl_verify") + " --max-width 40", 2,
                      "--max-width must be <= 31");
}

TEST(CliVerify, NegativeSlackIsRejected)
{
    expect_fails_with(tool("mwl_verify") + " --slack -10", 2,
                      "slack must be non-negative");
}

TEST(CliVerify, MissingValueIsDiagnosed)
{
    expect_fails_with(tool("mwl_verify") + " --ops", 2,
                      "missing value for --ops");
}

TEST(CliVerify, UnknownOptionExitsTwo)
{
    expect_fails_with(tool("mwl_verify") + " --wibble", 2,
                      "unknown option --wibble");
}

// -------------------------------------------------------- mwl_scenarios --

TEST(CliScenarios, ModeIsRequired)
{
    expect_fails_with(tool("mwl_scenarios"), 2, "pick a mode");
}

TEST(CliScenarios, ModesAreMutuallyExclusive)
{
    expect_fails_with(tool("mwl_scenarios") + " --list --emit", 2,
                      "modes list and emit are mutually exclusive");
}

TEST(CliScenarios, UnknownScenarioIsAUsageErrorNamingTheValidOnes)
{
    const run_result r =
        run(tool("mwl_scenarios") + " --list --scenario no_such");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("unknown scenario 'no_such'"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("fir8"), std::string::npos) << r.output;
}

TEST(CliScenarios, OutOfRangeNumericValueIsDiagnosedNotAborted)
{
    // std::stod throws out_of_range here; that must surface as the usual
    // exit-2 diagnostic, not an uncaught abort.
    expect_fails_with(tool("mwl_scenarios") + " --list --slack 1e999", 2,
                      "bad value for --slack");
    expect_fails_with(tool("mwl_scenarios") + " --check x --tol 1e999", 2,
                      "bad value for --tol");
}

TEST(CliScenarios, MalformedAndOverwideToleranceFlagsExitTwo)
{
    // Regression: raw stod read "5x" as 5, and a static_cast narrowed
    // 3000000000 to a negative int, so every --check metric drifted.
    expect_fails_with(tool("mwl_scenarios") + " --list --slack 5x", 2,
                      "bad value for --slack: bad numeric value '5x'");
    expect_fails_with(tool("mwl_scenarios") + " --check x --tol 5x", 2,
                      "bad value for --tol: bad numeric value '5x'");
    expect_fails_with(
        tool("mwl_scenarios") + " --check x --latency-tol 3000000000", 2,
        "bad value for --latency-tol: numeric value out of range "
        "'3000000000'");
    expect_fails_with(
        tool("mwl_scenarios") + " --check x --count-tol 3000000000", 2,
        "bad value for --count-tol: numeric value out of range "
        "'3000000000'");
    expect_fails_with(tool("mwl_scenarios") + " --check x --count-tol -1",
                      2, "bad value for --count-tol");
}

TEST(CliScenarios, CorruptedGoldenIsMalformedInputNotDrift)
{
    // Exit-code contract: 1 means the allocation quality really moved;
    // a golden that cannot be parsed is malformed input -> exit 2.
    std::filesystem::create_directories("cli_test_corrupt_goldens");
    std::ofstream("cli_test_corrupt_goldens/fir4.json") << "{\"trunc";
    const run_result r = run(tool("mwl_scenarios") +
                             " --check cli_test_corrupt_goldens"
                             " --scenario fir4");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("fir4.json"), std::string::npos) << r.output;
}

TEST(CliScenarios, CheckAgainstMissingGoldensFails)
{
    const run_result r = run(tool("mwl_scenarios") +
                             " --check cli_test_no_such_dir"
                             " --scenario fir4");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("missing"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("FAIL"), std::string::npos) << r.output;
}

TEST(CliScenarios, ListSucceedsAndNamesEveryScenario)
{
    const run_result r = run(tool("mwl_scenarios") + " --list");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    for (const char* name : {"fir8", "dct8", "adder_chain16"}) {
        EXPECT_NE(r.output.find(name), std::string::npos) << r.output;
    }
}

// --------------------------------------------------------- mwl_campaign --

TEST(CliCampaign, ModeIsRequired)
{
    expect_fails_with(tool("mwl_campaign"), 2, "pick a mode");
}

TEST(CliCampaign, ModesAreMutuallyExclusive)
{
    expect_fails_with(tool("mwl_campaign") + " --status a --report b", 2,
                      "modes --status and --report are mutually exclusive");
}

TEST(CliCampaign, RunNeedsASpec)
{
    expect_fails_with(tool("mwl_campaign") + " --run cli_test_cdir", 2,
                      "--run needs --spec FILE");
}

TEST(CliCampaign, SpecOnlyAppliesToRun)
{
    expect_fails_with(tool("mwl_campaign") +
                          " --status cli_test_cdir --spec x",
                      2, "--spec only applies to --run");
}

TEST(CliCampaign, ZeroCheckpointIntervalIsRejected)
{
    expect_fails_with(tool("mwl_campaign") +
                          " --status x --checkpoint-every 0",
                      2, "--checkpoint-every must be >= 1");
}

TEST(CliCampaign, MalformedSpecReportsItsLineNumber)
{
    const std::string spec = write_input("cli_test_bad.spec",
                                        "scenario fir4\n"
                                        "wibble x\n");
    std::filesystem::remove_all("cli_test_campaign_badspec");
    expect_fails_with(tool("mwl_campaign") +
                          " --run cli_test_campaign_badspec --spec " + spec,
                      2, "spec line 2: unknown keyword 'wibble'");
}

TEST(CliCampaign, UnknownScenarioInSpecExitsTwo)
{
    const std::string spec =
        write_input("cli_test_unknown.spec", "scenario no_such_scenario\n");
    std::filesystem::remove_all("cli_test_campaign_unknown");
    expect_fails_with(tool("mwl_campaign") +
                          " --run cli_test_campaign_unknown --spec " + spec,
                      2,
                      "spec line 1: unknown scenario 'no_such_scenario'");
}

TEST(CliCampaign, MissingSpecFileExitsTwo)
{
    expect_fails_with(tool("mwl_campaign") +
                          " --run cli_test_cdir --spec cli_test_nospec",
                      2, "cannot open spec");
}

TEST(CliCampaign, StatusOnANonCampaignDirectoryExitsTwo)
{
    expect_fails_with(tool("mwl_campaign") +
                          " --status cli_test_not_a_campaign",
                      2, "is not a campaign directory");
}

TEST(CliCampaign, RunIntoAnExistingCampaignDirectoryExitsTwo)
{
    // A one-point campaign keeps the successful first run fast.
    const std::string spec = write_input("cli_test_tiny.spec",
                                        "scenario fir4\n"
                                        "lambda slack=0\n");
    const std::string dir = "cli_test_campaign_exists";
    std::filesystem::remove_all(dir);
    const run_result first =
        run(tool("mwl_campaign") + " --run " + dir + " --spec " + spec);
    ASSERT_EQ(first.exit_code, 0) << first.output;
    expect_fails_with(tool("mwl_campaign") + " --run " + dir + " --spec " +
                          spec,
                      2, "already contains a campaign; use --resume");
}

TEST(CliCampaign, IncompatibleCheckpointFormatVersionExitsTwo)
{
    // Fabricate a store whose journal header claims a future format: the
    // tool must refuse to read it rather than misparse the records.
    const std::string dir = "cli_test_campaign_future";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    write_input(dir + "/spec.campaign", "scenario fir4\nlambda slack=0\n");
    std::ofstream(dir + "/journal.log", std::ios::binary)
        << mwl::frame_record("campaign-store format_version=999 "
                             "fingerprint=0123456789abcdef points=1");
    expect_fails_with(tool("mwl_campaign") + " --status " + dir, 2,
                      "incompatible checkpoint format_version 999");
    expect_fails_with(tool("mwl_campaign") + " --resume " + dir, 2,
                      "incompatible checkpoint format_version 999");
}

TEST(CliCampaign, ResumeRejectsASpecWithADifferentFingerprint)
{
    const std::string spec = write_input("cli_test_fp.spec",
                                        "scenario fir4\n"
                                        "lambda slack=0\n");
    const std::string dir = "cli_test_campaign_fp";
    std::filesystem::remove_all(dir);
    const run_result first =
        run(tool("mwl_campaign") + " --run " + dir + " --spec " + spec);
    ASSERT_EQ(first.exit_code, 0) << first.output;
    // Editing the stored spec after the fact changes what it expands to;
    // the checkpoint's fingerprint must catch the mismatch.
    write_input(dir + "/spec.campaign", "scenario fir4 fir8\n");
    expect_fails_with(tool("mwl_campaign") + " --resume " + dir, 2,
                      "checkpoint was built from a different spec");
}

// ------------------------------------------------------------ mwl_serve --

TEST(CliServe, AnEndpointIsRequired)
{
    expect_fails_with(tool("mwl_serve"), 2,
                      "one of --unix or --tcp is required");
}

TEST(CliServe, BadNumericValuesExitTwo)
{
    expect_fails_with(tool("mwl_serve") + " --tcp nope", 2,
                      "bad value for --tcp: bad numeric value 'nope'");
    expect_fails_with(tool("mwl_serve") + " --unix s.sock --jobs -1", 2,
                      "bad value for --jobs: bad numeric value '-1'");
    expect_fails_with(tool("mwl_serve") + " --unix s.sock --cache", 2,
                      "missing value for --cache");
}

TEST(CliServe, OutOfRangePortBackoffAndJobsExitTwo)
{
    // Regression: --tcp 70000 was narrowed to a uint16_t (the daemon
    // silently listened on 4464), --retry-after-ms wrapped to a negative
    // int, and --jobs 4x parsed as 4.
    expect_fails_with(tool("mwl_serve") + " --tcp 70000", 2,
                      "bad value for --tcp: numeric value out of range "
                      "'70000'");
    expect_fails_with(tool("mwl_serve") +
                          " --unix s.sock --retry-after-ms 3000000000",
                      2,
                      "bad value for --retry-after-ms: numeric value out of "
                      "range '3000000000'");
    expect_fails_with(tool("mwl_serve") + " --unix s.sock --jobs 4x", 2,
                      "bad value for --jobs: bad numeric value '4x'");
}

TEST(CliServe, UnknownOptionExitsTwo)
{
    expect_fails_with(tool("mwl_serve") + " --wibble", 2,
                      "unknown option --wibble");
}

// ----------------------------------------------------------- mwl_client --

TEST(CliClient, EndpointAndCommandAreRequired)
{
    expect_fails_with(tool("mwl_client"), 2, "usage: mwl_client");
    expect_fails_with(tool("mwl_client") + " unix:/tmp/x.sock", 2,
                      "usage: mwl_client");
}

TEST(CliClient, MalformedEndpointExitsTwo)
{
    expect_fails_with(tool("mwl_client") + " wibble ping", 2,
                      "endpoint must be unix:PATH or tcp:HOST:PORT");
    expect_fails_with(tool("mwl_client") + " tcp:host:0 ping", 2,
                      "endpoint must be unix:PATH or tcp:HOST:PORT");
}

TEST(CliClient, NobodyListeningIsARuntimeFailureNotUsage)
{
    expect_fails_with(tool("mwl_client") +
                          " unix:cli_test_no_such.sock ping",
                      1, "cannot connect to unix:cli_test_no_such.sock");
}

TEST(CliClient, BatchOnlyManifestDirectivesAreRejected)
{
    const std::string manifest =
        write_input("cli_test_serve_sweep.manifest",
                       "corpus ops=4 count=1 sweep=20\n");
    expect_fails_with(tool("mwl_client") +
                          " unix:/tmp/x.sock --manifest " + manifest,
                      2, "sweep= is not supported over serve");
    const std::string verify =
        write_input("cli_test_serve_verify.manifest",
                       "corpus ops=4 count=1 verify=2\n");
    expect_fails_with(tool("mwl_client") +
                          " unix:/tmp/x.sock --manifest " + verify,
                      2, "verify= is not supported over serve");
}

TEST(CliClient, BadCountsExitTwo)
{
    expect_fails_with(tool("mwl_client") + " unix:/tmp/x.sock --conns 0 " +
                          "--manifest -",
                      2, "--conns and --window must be >= 1");
    expect_fails_with(tool("mwl_client") + " unix:/tmp/x.sock --soak x " +
                          "--manifest -",
                      2, "bad value for --soak: bad numeric value 'x'");
}

TEST(CliClient, ManifestNumbersAreCheckedWithTheirLineNumber)
{
    // Regression: std::stoi read lambda=12x as lambda=12.
    const std::string manifest = write_input(
        "cli_test_serve_badnum.manifest",
        "\ncorpus ops=4 count=1 lambda=12x\n");
    expect_fails_with(tool("mwl_client") + " unix:/tmp/x.sock --manifest " +
                          manifest,
                      2, "manifest line 2: bad numeric value in 'lambda=12x'");
}

// ------------------------------------------------------------- mwl_lint --

TEST(CliLint, NoWorkloadIsAUsageError)
{
    expect_fails_with(tool("mwl_lint"), 2, "nothing to lint");
}

TEST(CliLint, UnknownOptionAndBadValuesExitTwo)
{
    expect_fails_with(tool("mwl_lint") + " --frobnicate", 2,
                      "unknown option --frobnicate");
    expect_fails_with(tool("mwl_lint") + " --ops x --corpus", 2,
                      "bad value for --ops");
    expect_fails_with(tool("mwl_lint") + " --mutate wibble", 2,
                      "unknown --mutate mode 'wibble'");
    expect_fails_with(tool("mwl_lint") + " --slack -5 fir4", 2,
                      "slack must be non-negative");
}

TEST(CliLint, UnknownScenarioExitsTwoNamingTheValidOnes)
{
    expect_fails_with(tool("mwl_lint") + " no_such_filter", 2,
                      "unknown scenario");
}

TEST(CliLint, CleanScenarioExitsZero)
{
    const run_result r = run(tool("mwl_lint") + " fir4");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("OK: no findings"), std::string::npos)
        << r.output;
}

TEST(CliLint, MutatedScenarioExitsOneAndNamesTheRule)
{
    const run_result r =
        run(tool("mwl_lint") + " fir4 --mutate capture-zext");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("FINDINGS:"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("[range.capture-zero-extend]"),
              std::string::npos)
        << r.output;
}

TEST(CliLint, JsonReportHasTheContractShape)
{
    const run_result r = run(tool("mwl_lint") +
                             " fir4 --mutate capture-zext --json -");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("{\"tool\":\"mwl_lint\",\"graphs\":1,"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"findings\":[{\"rule\":"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"severity\":\"error\""), std::string::npos)
        << r.output;

    // Clean run: empty findings array, still well-formed.
    const run_result clean = run(tool("mwl_lint") + " fir4 --json -");
    EXPECT_EQ(clean.exit_code, 0) << clean.output;
    EXPECT_NE(clean.output.find("\"findings\":[]}"), std::string::npos)
        << clean.output;
}

TEST(CliLint, ManifestDrivesGraphAndCorpusLines)
{
    // Reuse a scenario graph on disk via mwl_scenarios? Simpler: corpus
    // line only -- the graph path branch is covered by the error case.
    const std::string manifest = write_input(
        "cli_test_lint.manifest",
        "# static lint batch\ncorpus ops=4 count=2 seed=11 sweep=20\n");
    const run_result r =
        run(tool("mwl_lint") + " --manifest " + manifest);
    EXPECT_EQ(r.exit_code, 0) << r.output; // sweep= ignored, not an error
    EXPECT_NE(r.output.find("2 graphs"), std::string::npos) << r.output;
}

TEST(CliLint, ManifestErrorsReportTheirLineNumber)
{
    const std::string manifest = write_input(
        "cli_test_lint_bad.manifest", "corpus ops=4 count=1\nfrob x\n");
    expect_fails_with(tool("mwl_lint") + " --manifest " + manifest, 2,
                      "manifest line 2: unknown keyword 'frob'");
    const std::string missing = write_input(
        "cli_test_lint_missing.manifest", "graph cli_no_such.mwl\n");
    expect_fails_with(tool("mwl_lint") + " --manifest " + missing, 2,
                      "manifest line 1: cannot open graph file");
}

TEST(CliLint, BadNumericFlagValuesExitTwoNotAbort)
{
    // Regression: these went through bare std::stoi -- 'junk' aborted the
    // process and '4x' silently parsed as 4 (exit 0, wrong corpus).
    expect_fails_with(tool("mwl_lint") + " --min-width junk fir4", 2,
                      "bad value for --min-width: bad numeric value 'junk'");
    expect_fails_with(tool("mwl_lint") + " --min-width 4x fir4", 2,
                      "bad value for --min-width: bad numeric value '4x'");
    expect_fails_with(tool("mwl_lint") + " --max-width 99999999999999999999 fir4",
                      2, "bad value for --max-width: numeric value out of range");
    expect_fails_with(tool("mwl_lint") + " --seed -3 fir4", 2,
                      "bad value for --seed: bad numeric value '-3'");
}

TEST(CliLint, ManifestBadNumericReportsItsLineNumber)
{
    // lambda=3x used to parse as lambda=3 with the 'x' dropped.
    const std::string manifest = write_input(
        "cli_test_lint_badnum.manifest", "corpus ops=4 count=1 lambda=3x\n");
    expect_fails_with(tool("mwl_lint") + " --manifest " + manifest, 2,
                      "manifest line 1: bad numeric value in 'lambda=3x'");
}

// --------------------------------------------------- mwl_verify --static --

TEST(CliVerifyStatic, CleanCorpusExitsZero)
{
    const run_result r =
        run(tool("mwl_verify") + " --static --ops 4 --count 3 --seed 5");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("OK: all static value-range checks passed"),
              std::string::npos)
        << r.output;
}

TEST(CliVerifyStatic, IlpMaxOpsAddsTheIlpAllocationsToTheAnalysis)
{
    // The summary line reads "mwl_verify --static: G graphs, C static
    // checks in ..."; --ilp-max-ops is not ignored under --static.
    const auto checks = [](const std::string& flags) {
        const run_result r = run(tool("mwl_verify") +
                                 " --static --ops 4 --count 10 --seed 5" +
                                 flags);
        EXPECT_EQ(r.exit_code, 0) << r.output;
        const std::size_t end = r.output.find(" static checks");
        const std::size_t begin = r.output.rfind(", ", end);
        if (end == std::string::npos || begin == std::string::npos) {
            ADD_FAILURE() << "no check count in:\n" << r.output;
            return 0ULL;
        }
        return std::stoull(r.output.substr(begin + 2, end - begin - 2));
    };
    const unsigned long long without = checks("");
    EXPECT_GT(without, 0ULL);
    EXPECT_GT(checks(" --ilp-max-ops 4"), without);
}

// ------------------------------------------------------------ mwl_alloc --

TEST(CliAlloc, BadNumericFlagValuesExitTwoNotAbort)
{
    // Regression: every one of these reached std::stoi/stod unchecked and
    // aborted with an uncaught exception (exit 134).
    expect_fails_with(tool("mwl_alloc") + " - --lambda junk", 2,
                      "bad value for --lambda: bad numeric value 'junk'");
    expect_fails_with(tool("mwl_alloc") + " - --slack junk", 2,
                      "bad value for --slack: bad numeric value 'junk'");
    expect_fails_with(
        tool("mwl_alloc") + " - --jobs 999999999999999999999999", 2,
        "bad value for --jobs: numeric value out of range");
    expect_fails_with(tool("mwl_alloc") + " - --lambda 12x", 2,
                      "bad value for --lambda: bad numeric value '12x'");
}

/// A 7-op graph whose frontier has more than one point.
std::string sweep_graph()
{
    return write_input("cli_test_sweep.mwl",
                       "op m1 mul 12 12\nop m2 mul 8 4\nop m3 mul 16 8\n"
                       "op m4 mul 10 10\nop a1 add 12\nop a2 add 16\n"
                       "op a3 add 20\ndep m1 a1\ndep m2 a1\ndep m3 a2\n"
                       "dep a1 a2\ndep m4 a3\ndep a2 a3\n");
}

TEST(CliAlloc, SweepOutputDoesNotDependOnJobs)
{
    const std::string graph = sweep_graph();
    std::vector<std::string> outputs;
    for (const std::string jobs : {"1", "4"}) {
        // The subshell drops stderr, so `output` is stdout alone.
        const run_result r = run("(" + tool("mwl_alloc") + " " + graph +
                                 " --sweep --jobs " + jobs + " 2>/dev/null)");
        ASSERT_EQ(r.exit_code, 0) << r.output;
        outputs.push_back(r.output);
    }
    EXPECT_NE(outputs[0].find("Pareto frontier (slack 100%)"),
              std::string::npos)
        << outputs[0];
    EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(CliAlloc, OverflowingSweepRangeFailsBeforeAnyOutput)
{
    // Regression: the header line was half printed before the range
    // computation threw, leaving "sweeping lambda 7..mwl_alloc: ...".
    const run_result r = run("(" + tool("mwl_alloc") + " " + sweep_graph() +
                             " --sweep --slack 1e12 2>&1)");
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_EQ(r.output,
              "mwl_alloc: relaxed lambda exceeds INT_MAX at slack 1e+10\n");
}

TEST(CliAlloc, MalformedGraphExitsTwoWithItsLineNumber)
{
    // Input errors exit 2 (README "Tool conventions"), like mwl_lint and
    // mwl_batch. The over-wide widths once overflowed the latency model.
    const std::string bad_kind =
        write_input("cli_test_bad_kind.mwl", "op a foo 3\n");
    expect_fails_with(tool("mwl_alloc") + " " + bad_kind, 2,
                      "mwl_alloc: line 1: unknown operation kind 'foo'");
    const std::string overwide = write_input(
        "cli_test_overwide.mwl",
        "op a add 8\nop b mul 2000000000 2000000000\n");
    expect_fails_with(tool("mwl_alloc") + " " + overwide, 2,
                      "mwl_alloc: line 2: multiplier width_a must be <= 1024");
}

// ------------------------------------------------------------- mwl_verify --

TEST(CliVerify, MalformedGraphExitsTwoWithItsLineNumber)
{
    const std::string bad_kind =
        write_input("cli_test_verify_bad_kind.mwl", "op a foo 3\n");
    const std::string overwide = write_input(
        "cli_test_verify_overwide.mwl", "op a mul 2000000000 2000000000\n");
    for (const char* mode : {"", " --static"}) {
        expect_fails_with(tool("mwl_verify") + mode + " --graph " + bad_kind,
                          2,
                          "mwl_verify: line 1: unknown operation kind 'foo'");
        expect_fails_with(
            tool("mwl_verify") + mode + " --graph " + overwide, 2,
            "mwl_verify: line 1: multiplier width_a must be <= 1024");
    }
}

TEST(CliVerify, BadNumericFlagValuesExitTwoNotAbort)
{
    expect_fails_with(tool("mwl_verify") + " --inputs junk", 2,
                      "bad value for --inputs: bad numeric value 'junk'");
    expect_fails_with(tool("mwl_verify") + " --seed -3", 2,
                      "bad value for --seed: bad numeric value '-3'");
    expect_fails_with(tool("mwl_verify") + " --ops 10x", 2,
                      "bad value for --ops: bad numeric value '10x'");
}

// -------------------------------------------------------------- mwl_tune --

TEST(CliTune, ASpecIsRequired)
{
    const run_result r = run(tool("mwl_tune"));
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("usage: mwl_tune"), std::string::npos)
        << r.output;
}

TEST(CliTune, UnknownOptionAndBadValuesExitTwo)
{
    expect_fails_with(tool("mwl_tune") + " --frobnicate", 2,
                      "unknown option --frobnicate");
    expect_fails_with(tool("mwl_tune") + " spec --jobs junk", 2,
                      "bad value for --jobs: bad numeric value 'junk'");
}

TEST(CliTune, SpecErrorsReportTheirLineNumber)
{
    const std::string bad_budget = write_input(
        "cli_test_tune_bad_budget.spec", "scenario fir4\nbudget junk\n");
    expect_fails_with(tool("mwl_tune") + " " + bad_budget, 2,
                      "spec line 2: bad numeric value 'junk'");
    const std::string bad_scenario = write_input(
        "cli_test_tune_bad_scenario.spec",
        "scenario no_such_filter\nbudget 1e-6\n");
    expect_fails_with(tool("mwl_tune") + " " + bad_scenario, 2,
                      "spec line 1: unknown scenario 'no_such_filter'");
    const std::string no_budget = write_input(
        "cli_test_tune_no_budget.spec", "scenario fir4\n");
    expect_fails_with(tool("mwl_tune") + " " + no_budget, 2,
                      "spec names no budgets");
    const std::string bad_key = write_input(
        "cli_test_tune_bad_key.spec",
        "scenario fir4\nbudget 1e-6\nsearch wibble=2\n");
    expect_fails_with(tool("mwl_tune") + " " + bad_key, 2,
                      "spec line 3: unknown search key 'wibble'");
}

TEST(CliTune, BadGraphFileExitsTwo)
{
    // A malformed or empty `graph FILE` is an input error (exit 2, file
    // named), as in mwl_alloc -- not a failed run.
    const std::string bad =
        write_input("cli_test_tune_bad.mwl", "op a foo 3\n");
    const std::string bad_spec = write_input(
        "cli_test_tune_bad_graph.spec", "graph " + bad + "\nbudget 1e-6\n");
    expect_fails_with(tool("mwl_tune") + " " + bad_spec, 2,
                      "mwl_tune: cli_test_tune_bad.mwl: line 1: unknown "
                      "operation kind 'foo'");
    const std::string empty = write_input("cli_test_tune_empty.mwl", "");
    const std::string empty_spec =
        write_input("cli_test_tune_empty_graph.spec",
                    "graph " + empty + "\nbudget 1e-6\n");
    expect_fails_with(tool("mwl_tune") + " " + empty_spec, 2,
                      "mwl_tune: cli_test_tune_empty.mwl: graph has no "
                      "operations");
}

TEST(CliTune, MissingSpecFileExitsOne)
{
    expect_fails_with(tool("mwl_tune") + " cli_test_no_such.spec", 1,
                      "cannot open cli_test_no_such.spec");
}

TEST(CliTune, TunesAScenarioFromStdinAndEmitsAFrontier)
{
    const run_result r =
        run("echo 'scenario fir4\nbudget 1e-5\nsearch max-steps=2' | " +
            tool("mwl_tune") + " - --jobs 2");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("front"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("evaluations"), std::string::npos) << r.output;
}

TEST(CliTune, UnreachableBudgetFailsThePointWithExitOne)
{
    // max 4 fractional bits cannot reach a 1e-30 budget: the point rows
    // an error, the tool exits 1 (failures), not 2 (usage).
    const std::string spec = write_input(
        "cli_test_tune_infeasible.spec",
        "scenario fir4\nbudget 1e-30\nfrac min=2 max=4\n");
    const run_result r = run(tool("mwl_tune") + " " + spec);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

// ------------------------------------------------------ shared manifest --

TEST(CliManifest, EveryToolRejectsNegativeSlackWithItsLineNumber)
{
    // mwl_lint used to accept slack=-5 and fail later, inside
    // relaxed_lambda, with no line number.
    const std::string manifest = write_input(
        "cli_test_neg_slack.manifest", "# c\ncorpus ops=4 count=1 slack=-5\n");
    for (const std::string& command :
         {tool("mwl_batch") + " " + manifest,
          tool("mwl_lint") + " --manifest " + manifest,
          tool("mwl_client") + " unix:/tmp/x.sock --manifest " + manifest}) {
        expect_fails_with(command, 2,
                          "manifest line 2: slack must be non-negative");
    }
}

// ------------------------------------------------------------- --json - --

TEST(CliJson, DashWritesJsonToStdoutAndTheReportToStderr)
{
    const std::string manifest =
        write_input("cli_test_json.manifest", "corpus ops=4 count=2\n");
    const std::string spec = write_input(
        "cli_test_json.spec",
        "scenario fir4\nbudget 1e-5\nsearch max-steps=2\n");
    const std::string dir = "cli_test_campaign_json";
    std::filesystem::remove_all(dir);
    const std::string campaign_spec = write_input(
        "cli_test_json.campaign", "scenario fir4\nlambda slack=0\n");
    ASSERT_EQ(run(tool("mwl_campaign") + " --run " + dir + " --spec " +
                  campaign_spec)
                  .exit_code,
              0);
    for (const std::string& command :
         {tool("mwl_batch") + " " + manifest + " --json -",
          tool("mwl_tune") + " " + spec + " --json -",
          tool("mwl_campaign") + " --report " + dir + " --json -",
          tool("mwl_lint") + " fir4 --json -"}) {
        // The subshell drops stderr, so `output` is stdout alone.
        const run_result r = run("(" + command + " 2>/dev/null)");
        EXPECT_EQ(r.exit_code, 0) << command << "\n" << r.output;
        EXPECT_EQ(r.output.find('\n'), r.output.size() - 1)
            << command << ": stdout must be one JSON document\n"
            << r.output;
        EXPECT_NO_THROW(static_cast<void>(mwl::parse_json(r.output)))
            << command << "\n" << r.output;
    }
}

// ---------------------------------------------------------------- benches --

TEST(CliBench, BadNumericFlagValuesExitTwo)
{
    // Regression: raw stoul/stoull -- "junk" died with an uncaught
    // exception and "--seed -1" wrapped to 2^64 - 1.
    expect_fails_with(tool("iteration_scaling") + " --graphs junk", 2,
                      "iteration_scaling: bad value for --graphs: bad "
                      "numeric value 'junk'");
    expect_fails_with(tool("iteration_scaling") + " --seed -1", 2,
                      "bad value for --seed: bad numeric value '-1'");
    expect_fails_with(tool("iteration_scaling") + " --max-size", 2,
                      "missing value for --max-size");
}

TEST(CliBench, GraphsFlagEqualToTheSharedDefaultIsHonoured)
{
    // Regression: benches with their own --graphs default took 25 (the
    // shared default) to mean "flag not given", so an explicit --graphs 25
    // ran iteration_scaling on 5 graphs.
    for (const auto& [flags, graphs] :
         {std::pair<std::string, std::string>{"--graphs 25", "25"},
          {"", "5"}}) {
        const std::string out = "cli_test_iteration_scaling.json";
        const run_result r = run(tool("iteration_scaling") + " " + flags +
                                 " --max-size 2 --out " + out);
        ASSERT_EQ(r.exit_code, 0) << flags << "\n" << r.output;
        std::ifstream in(out);
        const std::string json((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        EXPECT_NE(json.find("\"graphs\":" + graphs + ","), std::string::npos)
            << flags << "\n" << json;
    }
}

} // namespace
