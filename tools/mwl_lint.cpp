// mwl_lint -- static value-range / structural linter for allocated RTL.
//
// Allocates every selected workload with each enabled allocator and runs
// the static analyzer (src/analyze/) over the elaborated design: schedule
// re-derivations, structural IR lints, and the abstract-interpretation
// value-range walk that flags truncating slices, zero-extended negatives,
// unsigned multiplier bodies and recycled output registers *without
// executing a single input vector*. The differential harness (mwl_verify)
// proves the same properties by sampling; this tool proves them by
// analysis, orders of magnitude faster per design (see PERF.md).
//
// Usage:
//   mwl_lint fir8 dct8                 # named scenarios
//   mwl_lint --all                     # every registered scenario
//   mwl_lint --corpus --ops 12 --count 50 --seed 7
//   mwl_lint --manifest jobs.txt       # mwl_batch-style manifest
//   mwl_lint --all --mutate unsigned-mul   # soundness harness: expect 1
//
// Exit codes: 0 = clean, 1 = findings reported, 2 = usage error.

#include "cli.hpp"
#include "dfg/analysis.hpp"
#include "io/graph_io.hpp"
#include "io/manifest.hpp"
#include "model/hardware_model.hpp"
#include "scenarios/scenarios.hpp"
#include "support/atomic_write.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"
#include "verify/differential.hpp"

#include <deque>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace mwl;

const char* const usage_text =
    "usage: mwl_lint [options] [SCENARIO]...\n"
    "workload selection (combinable):\n"
    "  SCENARIO...       named scenarios (see mwl_scenarios --list)\n"
    "  --all             every registered scenario\n"
    "  --graph FILE      a .mwl graph file (repeatable)\n"
    "  --corpus          a generated TGFF corpus\n"
    "  --manifest FILE   mwl_batch-style manifest ('-' = stdin);\n"
    "                    graph/corpus lines, lambda=/slack= honoured,\n"
    "                    sweep=/verify= ignored\n"
    "corpus knobs (--corpus, like mwl_verify):\n"
    "  --ops N --count N --seed S --mul-fraction F\n"
    "  --min-width W --max-width W\n"
    "allocation / analysis:\n"
    "  --slack PCT       latency relaxation over lambda_min [25]\n"
    "  --no-heuristic / --no-two-stage / --no-descending\n"
    "                    drop an allocator from the checks\n"
    "  --mutate MODE     re-introduce a historical elaboration bug\n"
    "                    (soundness harness; a sound analyzer exits 1):\n"
    "                    operand-zext | capture-zext | unsigned-mul |\n"
    "                    output-recycle\n"
    "  --jobs N          worker threads [hardware concurrency]\n"
    "output:\n"
    "  --json FILE       findings + counters as JSON ('-' = stdout)\n"
    "exit codes: 0 clean, 1 findings, 2 usage error\n";

struct lint_item {
    std::string name;
    const sequencing_graph* graph = nullptr;
    std::optional<int> lambda; ///< fixed lambda; unset = relax lambda_min
    double slack = 0.25;
};

} // namespace

int main(int argc, char** argv)
{
    std::vector<std::string> scenario_args;
    std::vector<std::string> graph_files;
    std::string manifest_file;
    bool all_scenarios_flag = false;
    bool use_corpus = false;
    corpus_spec spec;
    spec.n_ops = 10;
    spec.count = 50;
    spec.seed = 2001;
    double slack_pct = 25.0;
    std::string mutate;
    std::string json_file;
    std::size_t jobs = 0;
    verify_options options;

    cli::tool cli("mwl_lint", usage_text);
    cli.flag("--all", all_scenarios_flag);
    cli.value("--graph", graph_files);
    cli.value("--manifest", manifest_file);
    cli.flag("--corpus", use_corpus);
    cli.value("--ops", spec.n_ops);
    cli.value("--count", spec.count);
    cli.value("--seed", spec.seed);
    cli.value("--mul-fraction", spec.prototype.mul_fraction);
    cli.value("--min-width", spec.prototype.min_width);
    cli.value("--max-width", spec.prototype.max_width);
    cli.value("--slack", slack_pct);
    cli.flag("--no-heuristic", [&] { options.use_heuristic = false; });
    cli.flag("--no-two-stage", [&] { options.use_two_stage = false; });
    cli.flag("--no-descending", [&] { options.use_descending = false; });
    cli.value("--mutate", mutate);
    cli.value("--json", json_file);
    cli.value("--jobs", jobs);
    cli.positional(
        [&](const std::string& arg) { scenario_args.push_back(arg); });
    cli.parse(argc, argv);
    if (slack_pct < 0.0) {
        cli.fail("slack must be non-negative");
    }
    if (!mutate.empty()) {
        if (mutate == "operand-zext") {
            options.elaborate.legacy_operand_extension = true;
        } else if (mutate == "capture-zext") {
            options.elaborate.legacy_capture_extension = true;
        } else if (mutate == "unsigned-mul") {
            options.elaborate.legacy_unsigned_multiply = true;
        } else if (mutate == "output-recycle") {
            options.elaborate.legacy_output_recycling = true;
        } else {
            cli.fail("unknown --mutate mode '" + mutate + "'");
        }
    }
    options.slack = slack_pct / 100.0;

    try {
        const sonic_model model;
        thread_pool pool(jobs);
        stopwatch clock;

        // ---- expand the selection into owned graphs + items -------------
        std::deque<sequencing_graph> graphs; // stable addresses
        std::deque<scenario> scenarios;      // keeps scenario graphs alive
        std::vector<manifest_entry> manifest;
        std::vector<lint_item> items;
        const double default_slack = options.slack;

        const auto add_scenario = [&](scenario s) {
            scenarios.push_back(std::move(s));
            items.push_back({scenarios.back().name, &scenarios.back().graph,
                             std::nullopt, default_slack});
        };
        if (all_scenarios_flag) {
            for (scenario& s : all_scenarios()) {
                add_scenario(std::move(s));
            }
        }
        for (const std::string& name : scenario_args) {
            add_scenario(make_scenario(name)); // throws on unknown names
        }
        for (const std::string& path : graph_files) {
            std::string text;
            if (!read_file(path, text)) {
                std::cerr << "mwl_lint: cannot open " << path << '\n';
                return 2;
            }
            graphs.push_back(parse_graph_string(text));
            items.push_back({path, &graphs.back(), std::nullopt,
                             default_slack});
        }
        if (use_corpus) {
            std::size_t entry = 0;
            for (corpus_entry& e : make_corpus(spec, model)) {
                graphs.push_back(std::move(e.graph));
                items.push_back(
                    {"tgff(ops=" + std::to_string(spec.n_ops) + ",seed=" +
                         std::to_string(spec.seed) + ")#" +
                         std::to_string(entry++),
                     &graphs.back(), std::nullopt, default_slack});
            }
        }
        if (!manifest_file.empty()) {
            const cli::input in(manifest_file);
            if (!in) {
                std::cerr << "mwl_lint: cannot open " << manifest_file
                          << '\n';
                return 2;
            }
            // lambda=/slack= pick the allocation point; mwl_batch's
            // sweep=/verify= directives are about *dynamic* work and are
            // ignored here so one manifest can drive both tools.
            manifest = parse_manifest(in.text());
            for (const manifest_entry& e : manifest) {
                items.push_back({e.name, &e.graph, e.what.lambda,
                                 e.what.slack.value_or(default_slack)});
            }
        }
        if (items.empty()) {
            cli.fail("nothing to lint (give scenario names, --all, --graph,"
                     " --corpus or --manifest)");
        }

        // ---- analyze, one parallel_for index per item --------------------
        std::vector<analysis_report> slots(items.size());
        std::size_t designs = 0;
        const auto lint_one = [&](std::size_t i) {
            const lint_item& item = items[i];
            verify_options local = options;
            local.slack = item.slack;
            const int lambda =
                item.lambda.value_or(relaxed_lambda(
                    min_latency(*item.graph, model), item.slack));
            slots[i] = static_verify_graph(*item.graph, item.name, model,
                                           lambda, local);
        };
        if (pool.size() > 1) {
            parallel_for(pool, items.size(), lint_one);
        } else {
            for (std::size_t i = 0; i < items.size(); ++i) {
                lint_one(i);
            }
        }

        analysis_report report;
        for (analysis_report& slot : slots) {
            report.merge(std::move(slot));
        }
        const std::size_t allocators =
            static_cast<std::size_t>(options.use_heuristic) +
            static_cast<std::size_t>(options.use_two_stage) +
            static_cast<std::size_t>(options.use_descending);
        designs = items.size() * allocators;
        const double wall = clock.seconds();

        // ---- report -------------------------------------------------------
        std::ostream& text = cli::report_stream(json_file);
        text << "mwl_lint: " << items.size() << " graphs, " << designs
             << " designs, " << report.checks << " checks in "
             << static_cast<long long>(wall * 1e3) << " ms";
        if (wall > 0.0) {
            text << " ("
                 << static_cast<long long>(
                        static_cast<double>(designs) / wall)
                 << " designs/s, "
                 << static_cast<long long>(
                        static_cast<double>(report.checks) / wall)
                 << " checks/s, " << pool.size() << " threads)";
        }
        text << '\n';
        for (const finding& f : report.findings) {
            text << "  " << f.to_string() << '\n';
        }
        if (report.truncated) {
            text << "  ... finding list truncated\n";
        }

        if (!json_file.empty()) {
            std::ostringstream json;
            json << "{\"tool\":\"mwl_lint\",\"graphs\":" << items.size()
                 << ",\"designs\":" << designs
                 << ",\"checks\":" << report.checks
                 << ",\"mutate\":" << json_quote(mutate) << ",\"truncated\":"
                 << (report.truncated ? "true" : "false")
                 << ",\"findings\":[";
            for (std::size_t i = 0; i < report.findings.size(); ++i) {
                json << (i == 0 ? "" : ",")
                     << report.findings[i].to_json();
            }
            json << "]}";
            if (!cli.write_json(json_file, json.str(), text)) {
                return 2;
            }
        }

        if (!report.findings.empty()) {
            text << "FINDINGS: " << report.findings.size() << '\n';
            return 1;
        }
        text << "OK: no findings\n";
        return 0;
    } catch (const error& e) {
        std::cerr << "mwl_lint: " << e.what() << '\n';
        return 2;
    }
}
