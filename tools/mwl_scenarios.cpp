// mwl_scenarios -- named DSP scenario corpus driver and golden
// allocation-quality gate.
//
// The scenario registry (src/scenarios/) holds deterministic named
// multiple-wordlength DSP kernels; this tool measures every allocator's
// quality on them (core/quality.hpp) and manages the checked-in golden
// reports under tests/goldens/:
//
//   mwl_scenarios --list                   catalogue: ops, edges, lambda_min
//   mwl_scenarios --emit                   print quality reports as JSON
//   mwl_scenarios --update-goldens DIR     write/refresh <name>.json goldens
//   mwl_scenarios --check DIR              recompute under each golden's own
//                                          recorded options and diff; prints
//                                          the per-metric drift table and
//                                          exits 1 on any drift
//   mwl_scenarios --verify                 differential value check: every
//                                          allocator's RTL == bit-true
//                                          reference on random signed inputs
//
// Golden policy: `--check` never writes; refresh goldens only via
// `--update-goldens` in a commit whose message justifies the quality
// change (see README "Scenario corpus & quality goldens").
//
// Exit codes: 0 ok, 1 drift or counterexample, 2 usage/malformed input.

#include "cli.hpp"
#include "core/quality.hpp"
#include "dfg/analysis.hpp"
#include "model/hardware_model.hpp"
#include "scenarios/scenarios.hpp"
#include "tgff/corpus.hpp"
#include "verify/differential.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace mwl;

const char* const usage_text =
    "usage: mwl_scenarios MODE [options]\n"
    "modes (exactly one):\n"
    "  --list                catalogue of named scenarios\n"
    "  --emit                print quality reports as JSON to stdout\n"
    "  --update-goldens DIR  write one <scenario>.json golden per entry\n"
    "  --check DIR           recompute + diff against goldens; exit 1\n"
    "                        with a per-metric drift table on any drift\n"
    "  --verify              differential value check of every\n"
    "                        allocator's RTL on every scenario\n"
    "options:\n"
    "  --scenario NAME   restrict to NAME (repeatable)\n"
    "  --slack PCT       latency relaxation over lambda_min [25]\n"
    "  --ilp-max-ops N   ILP reference on scenarios with <= N ops [8]\n"
    "  --tol PCT         relative area tolerance for --check [0]\n"
    "  --latency-tol N   absolute latency tolerance for --check [0]\n"
    "  --count-tol N     absolute FU/register/mux count tolerance [0]\n"
    "  --diff-out FILE   also write the drift table to FILE\n"
    "  --inputs N        input vectors per allocator for --verify [16]\n";

std::vector<scenario> selected_scenarios(
    const std::vector<std::string>& names)
{
    if (names.empty()) {
        return all_scenarios();
    }
    std::vector<scenario> out;
    out.reserve(names.size());
    for (const std::string& name : names) {
        out.push_back(make_scenario(name));
    }
    return out;
}

} // namespace

int main(int argc, char** argv)
{
    std::string mode;
    std::string goldens_dir;
    std::string diff_out;
    std::vector<std::string> names;
    quality_options quality;
    drift_tolerances tolerances;
    std::size_t verify_inputs = 16;

    double slack_pct = quality.slack * 100.0;
    double tol_pct = 0.0;

    cli::tool cli("mwl_scenarios", usage_text);
    const auto set_mode = [&](const std::string& m) {
        if (!mode.empty()) {
            cli.fail("modes " + mode + " and " + m +
                     " are mutually exclusive");
        }
        mode = m;
    };
    for (const char* m : {"list", "emit", "verify"}) {
        cli.flag(std::string("--") + m, [&set_mode, m] { set_mode(m); });
    }
    cli.value("--update-goldens", [&](const std::string& dir) {
        set_mode("update");
        goldens_dir = dir;
    });
    cli.value("--check", [&](const std::string& dir) {
        set_mode("check");
        goldens_dir = dir;
    });
    cli.value("--scenario", names);
    cli.value("--slack", slack_pct);
    cli.value("--ilp-max-ops", quality.ilp_max_ops);
    cli.value("--tol", tol_pct);
    cli.value("--latency-tol", tolerances.latency_abs, 0);
    cli.value("--count-tol", tolerances.count_abs, 0);
    cli.value("--diff-out", diff_out);
    cli.value("--inputs", verify_inputs);
    cli.parse(argc, argv);
    if (mode.empty()) {
        cli.fail("pick a mode (--list, --emit, --update-goldens, --check, "
                 "--verify)");
    }
    if (slack_pct < 0.0) {
        cli.fail("slack must be non-negative");
    }
    if (tol_pct < 0.0) {
        cli.fail("tolerance must be non-negative");
    }
    if (mode == "verify" && verify_inputs < 1) {
        cli.fail("--inputs must be >= 1");
    }
    quality.slack = slack_pct / 100.0;
    tolerances.area_rel = tol_pct / 100.0;

    // Argument-shaped failures keep the usage exit code: an unknown
    // --scenario name is a bad argument, not a drift or a counterexample.
    std::vector<scenario> scenarios;
    try {
        scenarios = selected_scenarios(names);
    } catch (const precondition_error& e) {
        std::cerr << "mwl_scenarios: " << e.what() << '\n';
        return 2;
    }

    try {
        const sonic_model model;

        if (mode == "list") {
            table t("named DSP scenarios");
            t.header({"scenario", "ops", "edges", "lambda_min",
                      "description"});
            for (const scenario& s : scenarios) {
                t.row({s.name, table::num(static_cast<int>(s.graph.size())),
                       table::num(static_cast<int>(s.graph.edge_count())),
                       table::num(min_latency(s.graph, model)),
                       s.description});
            }
            t.print(std::cout);
            return 0;
        }

        if (mode == "emit" || mode == "update") {
            for (const scenario& s : scenarios) {
                const quality_report report = measure_quality_report(
                    s.graph, s.name, model, quality);
                if (mode == "emit") {
                    std::cout << to_json(report);
                    continue;
                }
                std::filesystem::create_directories(goldens_dir);
                const std::filesystem::path path =
                    std::filesystem::path(goldens_dir) / (s.name + ".json");
                std::ofstream out(path);
                if (!out) {
                    std::cerr << "mwl_scenarios: cannot write " << path
                              << '\n';
                    return 1;
                }
                out << to_json(report);
                std::cout << "golden written: " << path.string() << '\n';
            }
            return 0;
        }

        if (mode == "check") {
            std::vector<metric_drift> drifts;
            std::size_t checked = 0;
            for (const scenario& s : scenarios) {
                const std::filesystem::path path =
                    std::filesystem::path(goldens_dir) / (s.name + ".json");
                std::ifstream in(path);
                if (!in) {
                    drifts.push_back({s.name, "-", "golden file " +
                                      path.string() + " (missing)",
                                      1.0, 0.0, 0.0});
                    continue;
                }
                std::ostringstream text;
                text << in.rdbuf();
                quality_report golden;
                try {
                    golden = parse_quality_report(text.str());
                } catch (const quality_format_error& e) {
                    // A corrupted golden is malformed input (exit 2), not
                    // an allocation-quality regression (exit 1).
                    std::cerr << "mwl_scenarios: " << path.string() << ": "
                              << e.what() << '\n';
                    return 2;
                }
                // Recompute under the golden's own recorded protocol, so a
                // --slack passed here cannot fake agreement or drift.
                const quality_report current = measure_quality_report(
                    s.graph, s.name, model, golden.options);
                const auto delta = diff_quality(golden, current, tolerances);
                drifts.insert(drifts.end(), delta.begin(), delta.end());
                ++checked;
            }
            std::cout << "mwl_scenarios: checked " << checked << '/'
                      << scenarios.size() << " goldens in " << goldens_dir
                      << '\n';
            if (drifts.empty()) {
                std::cout << "OK: no allocation-quality drift\n";
                return 0;
            }
            const table t = render_drift_table(drifts);
            t.print(std::cout);
            if (!diff_out.empty()) {
                std::ofstream out(diff_out);
                if (out) {
                    t.print(out);
                    out << drifts.size() << " drifted metric(s)\n";
                }
            }
            std::cout << drifts.size()
                      << " drifted metric(s); if intentional, refresh with "
                         "mwl_scenarios --update-goldens " << goldens_dir
                      << '\n' << "FAIL\n";
            return 1;
        }

        // mode == "verify": every scenario through the differential
        // harness -- reference == datapath sim == RTL interpretation for
        // every allocator, ILP included on the small kernels.
        verify_options options;
        options.inputs_per_graph = verify_inputs;
        options.slack = quality.slack;
        options.ilp_max_ops = quality.ilp_max_ops;
        verify_report report;
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            const scenario& s = scenarios[i];
            const int lambda = relaxed_lambda(min_latency(s.graph, model),
                                              options.slack);
            report.merge(verify_graph(s.graph, s.name, model, lambda,
                                      options,
                                      verify_input_seed(options.seed, i)));
        }
        std::cout << "mwl_scenarios: " << report.graphs << " scenarios, "
                  << report.allocations << " allocations, "
                  << report.value_checks << " value checks\n";
        if (!report.ok()) {
            for (const counterexample& cx : report.counterexamples) {
                std::cout << "  " << cx.to_string() << '\n';
            }
            std::cout << "FAIL\n";
            return 1;
        }
        std::cout << "OK: reference == datapath sim == RTL interpretation\n";
        return 0;
    } catch (const error& e) {
        std::cerr << "mwl_scenarios: " << e.what() << '\n';
        return 1;
    }
}
