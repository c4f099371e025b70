// mwl_verify -- differential RTL verification driver.
//
// Generates a seeded TGFF corpus (or loads .mwl graph files), allocates
// every graph with each enabled allocator, and checks
//
//     reference_evaluate == simulate_datapath == RTL interpretation
//
// on random signed input vectors, reporting the first divergent
// (graph, allocator, input, op, cycle) counterexample and exiting 1.
// Exit 0 means every value matched.
//
// Usage:
//   mwl_verify [--ops N] [--count N] [--seed S] [--inputs N] [--slack PCT]
//              [--mul-fraction F] [--min-width W] [--max-width W]
//              [--ilp-max-ops N] [--no-heuristic] [--no-two-stage]
//              [--no-descending] [--jobs N] [--graph FILE]...
//
//   mwl_verify --ops 8 --count 50 --inputs 16       # corpus sweep
//   mwl_verify --graph filters/fir8.mwl --inputs 64 # specific designs
//   mwl_verify --static --ops 8 --count 50          # analyzer, no vectors
//
// --static swaps the input-vector simulations for the static value-range
// analyzer (src/analyze/): the same allocations are checked by abstract
// interpretation instead of execution, so it covers *all* input values at
// a fraction of the cost (see PERF.md).

#include "cli.hpp"
#include "dfg/analysis.hpp"
#include "io/graph_io.hpp"
#include "model/hardware_model.hpp"
#include "support/atomic_write.hpp"
#include "support/timer.hpp"
#include "verify/differential.hpp"

#include <iostream>
#include <string>
#include <vector>

namespace {

using namespace mwl;

const char* const usage_text =
    "usage: mwl_verify [options] [--graph FILE]...\n"
    "corpus selection (ignored when --graph is given):\n"
    "  --ops N           operations per generated graph [10]\n"
    "  --count N         graphs in the corpus [50]\n"
    "  --seed S          corpus + input seed [2001]\n"
    "  --mul-fraction F  multiplier fraction [0.5]\n"
    "  --min-width W     minimum operand wordlength [4]\n"
    "  --max-width W     maximum operand wordlength [24]\n"
    "verification:\n"
    "  --inputs N        random signed input vectors per graph [8]\n"
    "  --slack PCT       latency relaxation over lambda_min [25]\n"
    "  --ilp-max-ops N   also run the ILP reference on graphs with\n"
    "                    <= N ops [0 = off]\n"
    "  --no-heuristic / --no-two-stage / --no-descending\n"
    "                    drop an allocator from the cross-check\n"
    "  --static          static value-range analysis instead of input\n"
    "                    vectors (--inputs ignored; --ilp-max-ops still\n"
    "                    adds the ILP allocations to the analysis)\n"
    "  --jobs N          worker threads [hardware concurrency]\n";

} // namespace

int main(int argc, char** argv)
{
    corpus_spec spec;
    spec.n_ops = 10;
    spec.count = 50;
    spec.seed = 2001;
    verify_options options;
    double slack_pct = 25.0;
    std::size_t jobs = 0;
    bool static_mode = false;
    std::vector<std::string> graph_files;

    cli::tool cli("mwl_verify", usage_text);
    cli.value("--ops", spec.n_ops);
    cli.value("--count", spec.count);
    cli.value("--seed", spec.seed);
    cli.value("--mul-fraction", spec.prototype.mul_fraction);
    cli.value("--min-width", spec.prototype.min_width);
    cli.value("--max-width", spec.prototype.max_width);
    cli.value("--inputs", options.inputs_per_graph);
    cli.value("--slack", slack_pct);
    cli.value("--ilp-max-ops", options.ilp_max_ops);
    cli.flag("--no-heuristic", [&] { options.use_heuristic = false; });
    cli.flag("--no-two-stage", [&] { options.use_two_stage = false; });
    cli.flag("--no-descending", [&] { options.use_descending = false; });
    cli.flag("--static", static_mode);
    cli.value("--jobs", jobs);
    cli.value("--graph", graph_files);
    cli.parse(argc, argv);
    if (slack_pct < 0.0) {
        cli.fail("slack must be non-negative");
    }
    // Zero vectors or an empty corpus would print the OK banner having
    // checked nothing; refuse, matching mwl_batch's verify= validation.
    if (options.inputs_per_graph < 1) {
        cli.fail("--inputs must be >= 1");
    }
    if (graph_files.empty() && spec.count < 1) {
        cli.fail("--count must be >= 1");
    }
    // The simulator's int64 wrap contract holds for widths < 63; an n x m
    // multiplier produces n + m result bits, so corpus wordlengths must
    // stay <= 31 for the verdicts to be meaningful.
    if (spec.prototype.max_width > 31) {
        cli.fail("--max-width must be <= 31 (an n x m multiplier needs"
                 " n + m < 63 simulable bits)");
    }
    options.seed = spec.seed;
    options.slack = slack_pct / 100.0;

    try {
        const sonic_model model;
        thread_pool pool(jobs);
        stopwatch clock;

        if (static_mode) {
            analysis_report report;
            std::size_t graphs = 0;
            if (graph_files.empty()) {
                report = static_verify_corpus(spec, model, options, pool);
                graphs = spec.count;
            } else {
                for (const std::string& path : graph_files) {
                    std::string text;
                    if (!read_file(path, text)) {
                        std::cerr << "mwl_verify: cannot open " << path
                                  << '\n';
                        return 1;
                    }
                    const sequencing_graph graph = parse_graph_string(text);
                    const int lambda = relaxed_lambda(
                        min_latency(graph, model), options.slack);
                    report.merge(static_verify_graph(graph, path, model,
                                                     lambda, options));
                    ++graphs;
                }
            }
            const double wall = clock.seconds();
            std::cout << "mwl_verify --static: " << graphs << " graphs, "
                      << report.checks << " static checks in "
                      << static_cast<long long>(wall * 1e3) << " ms";
            if (wall > 0.0) {
                std::cout << " ("
                          << static_cast<long long>(
                                 static_cast<double>(report.checks) / wall)
                          << " checks/s, " << pool.size() << " threads)";
            }
            std::cout << '\n';
            if (!report.ok() || !report.findings.empty()) {
                std::cout << report.findings.size() << " finding(s):\n";
                for (const finding& f : report.findings) {
                    std::cout << "  " << f.to_string() << '\n';
                }
                if (report.truncated) {
                    std::cout << "  ... finding list truncated\n";
                }
                std::cout << "FAIL\n";
                return 1;
            }
            std::cout << "OK: all static value-range checks passed\n";
            return 0;
        }

        verify_report report;
        if (graph_files.empty()) {
            report = verify_corpus(spec, model, options, pool);
        } else {
            for (std::size_t g = 0; g < graph_files.size(); ++g) {
                const std::string& path = graph_files[g];
                std::string text;
                if (!read_file(path, text)) {
                    std::cerr << "mwl_verify: cannot open " << path << '\n';
                    return 1;
                }
                const sequencing_graph graph = parse_graph_string(text);
                const int lambda = relaxed_lambda(
                    min_latency(graph, model), options.slack);
                report.merge(verify_graph(
                    graph, path, model, lambda, options,
                    verify_input_seed(options.seed, g)));
            }
        }
        const double wall = clock.seconds();

        std::cout << "mwl_verify: " << report.graphs << " graphs, "
                  << report.allocations << " allocations, "
                  << report.input_vectors << " input vectors, "
                  << report.value_checks << " value checks in "
                  << static_cast<long long>(wall * 1e3) << " ms";
        if (wall > 0.0) {
            std::cout << " ("
                      << static_cast<long long>(
                             static_cast<double>(report.input_vectors) / wall)
                      << " graph-inputs/s, "
                      << static_cast<long long>(
                             static_cast<double>(report.value_checks) / wall)
                      << " checks/s, " << pool.size() << " threads)";
        }
        std::cout << '\n';

        if (!report.ok()) {
            std::cout << report.counterexamples.size()
                      << " counterexample(s):\n";
            for (const counterexample& cx : report.counterexamples) {
                std::cout << "  " << cx.to_string() << '\n';
            }
            std::cout << "FAIL\n";
            return 1;
        }
        std::cout << "OK: reference == datapath sim == RTL interpretation\n";
        return 0;
    } catch (const parse_error& e) {
        std::cerr << "mwl_verify: " << e.what() << '\n';
        return 2;
    } catch (const error& e) {
        std::cerr << "mwl_verify: " << e.what() << '\n';
        return 1;
    }
}
