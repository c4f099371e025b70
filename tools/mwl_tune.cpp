// mwl_tune -- error-budget-driven wordlength optimization driver.
//
// Reads a tune spec (src/wordlength/tune_spec.hpp) naming designs
// (registry scenarios and/or .mwl graph files), an output-noise budget
// sweep, and search knobs; runs the wordlength optimizer
// (src/wordlength/optimizer.hpp) once per (design x budget) with the
// real dpalloc allocator as the cost function, and reports the
// noise-vs-area frontier. All points of one design share one engine
// cache, so consecutive budgets answer most of each other's candidate
// evaluations from the LRU.
//
// Spec format (one keyword per line; '#' starts a comment):
//
//   scenario fir8 fir4            'all' = whole registry
//   graph FILE ...                .mwl graph files
//   budget 1e-6 1e-5 1e-4         required, positive, no duplicates
//   frac min=2 max=24
//   search seed=2001 max-steps=64 anneal=0 temp=0.05
//   gain model=unit|attenuating base-frac=8 cap=32
//   lambda slack=25
//
// Usage:
//   mwl_tune SPEC [--jobs N] [--json FILE] [--csv] [--cache N]
//   SPEC of '-' reads the spec from stdin
//
// Exit codes match the other tools: 0 all points tuned, 1 some point
// failed (infeasible budget / allocation failure), 2 usage, spec or
// graph-file error, 3 interrupted -- SIGINT/SIGTERM finish the in-flight
// point, emit the partial frontier, and exit 3.
//
// The JSON report is deterministic byte for byte for a fixed spec (no
// wall-clock fields, and reuse counts the timing-independent
// cache-or-coalesced sum); timing goes to stdout only.

#include "cli.hpp"
#include "engine/batch_engine.hpp"
#include "io/graph_io.hpp"
#include "model/hardware_model.hpp"
#include "report/table.hpp"
#include "scenarios/scenarios.hpp"
#include "support/atomic_write.hpp"
#include "support/interrupt.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"
#include "wordlength/optimizer.hpp"
#include "wordlength/tune_spec.hpp"

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace mwl;

const char* const usage_text =
    "usage: mwl_tune SPEC [options]\n"
    "  --jobs N     worker threads [hardware concurrency]\n"
    "  --json FILE  write the frontier + stats as JSON ('-' = stdout)\n"
    "  --csv        CSV on stdout instead of the aligned table\n"
    "  --cache N    engine result-cache capacity [4096]\n"
    "  SPEC of '-' reads the spec from stdin\n"
    "spec lines:\n"
    "  scenario NAME ...   registry scenarios ('all' = every one)\n"
    "  graph FILE ...      .mwl graph files\n"
    "  budget V ...        output-noise budgets (required)\n"
    "  frac min=2 max=24\n"
    "  search seed=2001 max-steps=64 anneal=0 temp=0.05\n"
    "  gain model=unit|attenuating base-frac=8 cap=32\n"
    "  lambda slack=25\n"
    "SIGINT/SIGTERM finish the in-flight point and emit the\n"
    "partial frontier (exit 3) instead of dying with no output\n";

/// One (design, budget) result row.
struct tune_point {
    std::string entry;
    double budget = 0.0;
    bool ok = false;
    bool ran = false;         ///< reached before an interrupt
    std::string detail;       ///< error text when !ok
    tuned_design design;
    std::size_t evaluations = 0;
    std::size_t reused = 0;
    bool front = false;       ///< on the noise-vs-area Pareto front
};

/// Within one design, a point is on the front iff no other successful
/// point has (noise <=, area <=) with at least one strict.
void mark_front(std::vector<tune_point>& points)
{
    for (tune_point& p : points) {
        if (!p.ok) {
            continue;
        }
        p.front = true;
        for (const tune_point& q : points) {
            if (&q == &p || !q.ok || q.entry != p.entry) {
                continue;
            }
            const bool no_worse = q.design.noise_power <= p.design.noise_power &&
                                  q.design.area <= p.design.area;
            const bool strictly = q.design.noise_power < p.design.noise_power ||
                                  q.design.area < p.design.area;
            if (no_worse && strictly) {
                p.front = false;
                break;
            }
        }
    }
}

} // namespace

int main(int argc, char** argv)
{
    install_interrupt_handler();

    std::string spec_file;
    std::size_t jobs = 0;
    std::string json_file;
    bool csv = false;
    std::size_t cache_capacity = 4096;

    cli::tool cli("mwl_tune", usage_text);
    cli.value("--jobs", jobs);
    cli.value("--json", json_file);
    cli.flag("--csv", csv);
    cli.value("--cache", cache_capacity);
    cli.positional([&](const std::string& arg) { spec_file = arg; });
    cli.parse(argc, argv);
    if (spec_file.empty()) {
        cli.fail("no spec given");
    }

    // ---- parse the spec --------------------------------------------------
    tune_spec spec;
    try {
        const cli::input in(spec_file);
        if (!in) {
            std::cerr << "mwl_tune: cannot open " << spec_file << '\n';
            return 1;
        }
        spec = tune_spec::parse(in.text());
    } catch (const spec_error& e) {
        std::cerr << "mwl_tune: " << e.what() << '\n';
        return 2;
    }

    try {
        // ---- load designs and decompose them for the search --------------
        struct design {
            std::string name;
            tune_problem problem;
        };
        std::vector<design> designs;
        designs.reserve(spec.entries.size());
        for (const tune_spec::entry& e : spec.entries) {
            sequencing_graph graph;
            if (!e.scenario.empty()) {
                graph = make_scenario(e.scenario).graph;
            } else {
                std::string text;
                if (!read_file(e.graph_file, text)) {
                    std::cerr << "mwl_tune: cannot open graph file "
                              << e.graph_file << '\n';
                    return 2;
                }
                // A bad graph file is an input error, like a bad spec.
                std::string bad;
                try {
                    graph = parse_graph_string(text);
                    if (graph.empty()) {
                        bad = "graph has no operations";
                    }
                } catch (const parse_error& err) {
                    bad = err.what();
                }
                if (!bad.empty()) {
                    std::cerr << "mwl_tune: " << e.graph_file << ": " << bad
                              << '\n';
                    return 2;
                }
            }
            designs.push_back({e.name(),
                               make_tune_problem(graph, spec.gains,
                                                 spec.base_frac_bits,
                                                 spec.width_cap)});
        }

        // ---- run one optimization per (design x budget) -------------------
        const sonic_model model;
        thread_pool pool(jobs);
        batch_options engine_options;
        engine_options.cache_capacity = cache_capacity;
        batch_engine engine(pool, engine_options);

        stopwatch clock;
        std::vector<tune_point> points;
        points.reserve(designs.size() * spec.budgets.size());
        bool interrupted = false;
        for (const design& d : designs) {
            for (const double budget : spec.budgets) {
                tune_point p;
                p.entry = d.name;
                p.budget = budget;
                if (interrupted || interrupt_requested()) {
                    // Counted in the "completed k of n" total, but a
                    // partial report only contains points that ran.
                    interrupted = true;
                    points.push_back(std::move(p));
                    continue;
                }
                p.ran = true;
                optimizer_options options;
                options.noise.budget = budget;
                options.noise.min_frac_bits = spec.min_frac_bits;
                options.noise.max_frac_bits = spec.max_frac_bits;
                options.slack = spec.slack;
                options.seed = spec.seed;
                options.max_steps = spec.max_steps;
                options.anneal_iterations = spec.anneal_iterations;
                options.anneal_temp = spec.anneal_temp;
                try {
                    const tune_result r = optimize_wordlengths(
                        d.problem, model, options, engine);
                    p.ok = true;
                    p.design = r.best;
                    p.evaluations = r.stats.evaluations;
                    p.reused = r.stats.reused;
                    if (r.stats.interrupted) {
                        interrupted = true;
                    }
                } catch (const error& e) {
                    // An unreachable budget (or an unallocatable seed)
                    // fails its own point, not the sweep.
                    p.detail = e.what();
                }
                points.push_back(std::move(p));
            }
        }
        const double wall = clock.seconds();
        mark_front(points);

        // ---- report ------------------------------------------------------
        table t("mwl_tune frontier");
        t.header({"entry", "budget", "noise", "frac", "lambda", "latency",
                  "area", "status"});
        std::ostringstream json;
        json << "{\"results\":[";
        bool first = true;
        int failures = 0;
        std::size_t completed = 0;
        std::size_t total_evals = 0;
        std::size_t total_reused = 0;
        for (const tune_point& p : points) {
            if (!p.ran) {
                continue; // interrupted before this point: no row at all
            }
            ++completed;
            total_evals += p.evaluations;
            total_reused += p.reused;
            std::ostringstream budget_text;
            budget_text << p.budget;
            json << (first ? "" : ",") << "{\"entry\":" << json_quote(p.entry)
                 << ",\"budget\":" << format_double(p.budget);
            first = false;
            if (!p.ok) {
                ++failures;
                t.row({p.entry, budget_text.str(), "-", "-", "-", "-", "-",
                       "error: " + p.detail});
                json << ",\"status\":\"error\",\"detail\":"
                     << json_quote(p.detail) << "}";
                continue;
            }
            std::ostringstream noise_text;
            noise_text << p.design.noise_power;
            const char* status = p.front ? "front" : "dominated";
            t.row({p.entry, budget_text.str(), noise_text.str(),
                   table::num(static_cast<int>(p.design.total_frac)),
                   table::num(p.design.lambda),
                   table::num(p.design.latency),
                   table::num(p.design.area, 1), status});
            json << ",\"noise\":" << format_double(p.design.noise_power)
                 << ",\"frac_bits\":[";
            for (std::size_t i = 0; i < p.design.frac_bits.size(); ++i) {
                json << (i ? "," : "") << p.design.frac_bits[i];
            }
            json << "],\"total_frac\":" << p.design.total_frac
                 << ",\"lambda\":" << p.design.lambda
                 << ",\"latency\":" << p.design.latency
                 << ",\"area\":" << format_double(p.design.area)
                 << ",\"evaluations\":" << p.evaluations
                 << ",\"reused\":" << p.reused
                 << ",\"status\":\"" << status << "\"}";
        }

        const double reuse_rate =
            total_evals > 0
                ? static_cast<double>(total_reused) /
                      static_cast<double>(total_evals)
                : 0.0;
        json << "],\"stats\":{\"points\":" << points.size()
             << ",\"completed_points\":" << completed
             << ",\"failures\":" << failures
             << ",\"interrupted\":" << (interrupted ? "true" : "false")
             << ",\"evaluations\":" << total_evals
             << ",\"reused\":" << total_reused
             << ",\"reuse_rate\":" << format_double(reuse_rate) << "}}";

        std::ostream& text = cli::report_stream(json_file);
        if (csv) {
            t.print_csv(text);
        } else {
            t.print(text);
        }
        const engine_stats stats = engine.snapshot();
        text << "\nsearch: " << total_evals << " evaluations, "
             << total_reused << " reused ("
             << table::num(reuse_rate * 100.0, 1) << "% of candidates)\n"
             << "engine: " << stats.submitted << " jobs, " << stats.executed
             << " executed, " << stats.cache_hits << " cache hits, "
             << stats.coalesced << " coalesced, " << stats.errors
             << " errors\n"
             << "pool: " << pool.size() << " threads, "
             << table::num(wall * 1e3, 1) << " ms\n";
        if (interrupted) {
            text << "interrupted: completed " << completed << " of "
                 << points.size() << " points\n";
        }
        if (!json_file.empty() &&
            !cli.write_json(json_file, json.str(), text)) {
            return 1;
        }
        if (interrupted) {
            return interrupt_exit_code;
        }
        return failures == 0 ? 0 : 1;
    } catch (const error& e) {
        std::cerr << "mwl_tune: " << e.what() << '\n';
        return 1;
    }
}
