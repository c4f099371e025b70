// Static-analyzer throughput vs differential simulation.
//
// PR 3's harness proves value preservation by sampling: N random vectors
// through the reference simulator, the datapath simulator and the RTL
// interpreter. The static analyzer (src/analyze/) proves the same
// properties -- for *all* input values -- by one interval walk over the
// elaborated design. This bench allocates a corpus once (allocation cost
// is common to both and excluded), then times checking each datapath both
// ways and reports designs/s, so PERF.md can quote the cost of a static
// check next to the simulation it replaces.
//
// Soundness is cross-checked in-run: both arms must come back clean on
// the correct elaboration, and the static arm must flag a mutated
// (legacy unsigned-multiply) elaboration -- the bench exits non-zero
// otherwise, so the throughput numbers can never come from a check that
// stopped checking.

#include "bench_common.hpp"
#include "analyze/analyze.hpp"
#include "core/dpalloc.hpp"
#include "support/timer.hpp"
#include "verify/differential.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

int main(int argc, char** argv)
{
    using namespace mwl;
    bench::bench_options opt =
        bench::parse_options(argc, argv, "lint_throughput", 48);
    const std::size_t n_ops = opt.max_size != 0 ? opt.max_size : 12;
    constexpr std::size_t inputs_per_graph = 8;
    constexpr double slack = 0.25;

    const sonic_model model;
    const auto corpus = make_corpus(n_ops, opt.graphs, model, opt.seed);

    // Allocate once; both arms check the same datapaths.
    std::vector<datapath> paths;
    paths.reserve(corpus.size());
    for (const corpus_entry& e : corpus) {
        paths.push_back(
            dpalloc(e.graph, model,
                    relaxed_lambda(e.lambda_min, slack))
                .path);
    }
    // Input vectors are drawn outside the timed region too: their cost
    // belongs to the harness, not to the simulation being measured.
    std::vector<std::vector<sim_inputs>> vectors(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        rng random(verify_input_seed(opt.seed, i));
        for (std::size_t v = 0; v < inputs_per_graph; ++v) {
            vectors[i].push_back(
                random_signed_inputs(corpus[i].graph, random));
        }
    }

    // Arm 1: differential simulation (the dynamic harness).
    stopwatch dynamic_clock;
    verify_report dynamic;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        std::string name = "g"; // split concat: gcc 12 -Wrestrict chokes
        name += std::to_string(i);
        dynamic.merge(verify_datapath(corpus[i].graph, name, "dpalloc",
                                      paths[i], model, vectors[i]));
    }
    const double dynamic_ms = dynamic_clock.milliseconds();
    if (!dynamic.ok()) {
        std::cerr << "lint_throughput: DYNAMIC HARNESS FOUND A DIVERGENCE "
                     "ON THE CORRECT ELABORATION\n";
        return 1;
    }

    // Arm 2: the static value-range analyzer on the same datapaths.
    stopwatch static_clock;
    analysis_report report;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        report.merge(analyze_allocation(corpus[i].graph, model, paths[i]));
    }
    const double static_ms = static_clock.milliseconds();
    if (!report.ok()) {
        std::cerr << "lint_throughput: STATIC ANALYZER FLAGGED THE CORRECT "
                     "ELABORATION (false positive)\n";
        return 1;
    }

    // Soundness canary: the analyzer must still catch a real bug.
    elaborate_options mutated;
    mutated.legacy_unsigned_multiply = true;
    analysis_report canary;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        canary.merge(
            analyze_allocation(corpus[i].graph, model, paths[i], mutated));
    }
    if (canary.ok()) {
        std::cerr << "lint_throughput: STATIC ANALYZER MISSED THE "
                     "unsigned-mul MUTATION (false negative)\n";
        return 1;
    }

    const std::size_t designs = corpus.size();
    const auto rate = [&](double ms) {
        return ms > 0.0 ? static_cast<double>(designs) / (ms / 1e3) : 0.0;
    };
    const double speedup = static_ms > 0.0 ? dynamic_ms / static_ms : 0.0;

    table t("Static lint vs differential simulation: " +
            std::to_string(designs) + " designs, |O| = " +
            std::to_string(n_ops) + ", " +
            std::to_string(inputs_per_graph) + " vectors/design");
    t.header({"arm", "ms", "designs/s", "checks", "speedup"});
    t.row({"differential sim", table::num(dynamic_ms, 1),
           table::num(rate(dynamic_ms), 1),
           std::to_string(dynamic.value_checks), "1.00x"});
    t.row({"static analyzer", table::num(static_ms, 1),
           table::num(rate(static_ms), 1), std::to_string(report.checks),
           table::num(speedup, 2) + "x"});
    bench::emit(t, opt);

    std::ostringstream json;
    json << "{\"bench\":\"lint_throughput\",\"graphs\":" << designs
         << ",\"n_ops\":" << n_ops << ",\"seed\":" << opt.seed
         << ",\"inputs_per_graph\":" << inputs_per_graph
         << ",\"designs\":" << designs << ',' << bench::env_json()
         << ",\"dynamic_ms\":" << dynamic_ms
         << ",\"dynamic_value_checks\":" << dynamic.value_checks
         << ",\"static_ms\":" << static_ms
         << ",\"static_checks\":" << report.checks
         << ",\"static_designs_per_s\":" << rate(static_ms)
         << ",\"dynamic_designs_per_s\":" << rate(dynamic_ms)
         << ",\"speedup_static_vs_dynamic\":" << speedup
         << ",\"mutation_canary_findings\":" << canary.findings.size()
         << "}";
    std::cout << '\n' << json.str() << '\n';

    if (opt.max_size != 0 && opt.out.empty()) {
        return 0;
    }
    const std::string path =
        opt.out.empty() ? "BENCH_lint_throughput.json" : opt.out;
    std::ofstream file(path);
    if (file) {
        file << json.str() << '\n';
    } else {
        std::cerr << "lint_throughput: cannot write " << path << '\n';
        return 1;
    }
    return 0;
}
