// mwl_batch -- manifest-driven batch allocation and sweep driver.
//
// Reads a manifest describing many allocation jobs -- .mwl graph files
// and/or generated tgff corpora, each with a latency constraint or a
// Pareto sweep range -- and runs them through the batch engine
// (src/engine/) on a work-stealing pool. Emits per-job results as an
// aligned table, JSON, or CSV, plus cache-hit and throughput statistics.
//
// The manifest grammar is io/manifest.hpp's; this tool runs every
// directive. Without lambda= or slack= an entry allocates at lambda_min.
// `sweep=PCT` runs a Pareto sweep instead of a single allocation;
// `verify=N` checks every allocator's datapath against the bit-true
// reference and the RTL interpreter (src/verify/) on N random signed
// input vectors, and a counterexample fails the run.
//
// Usage:
//   mwl_batch MANIFEST [--jobs N] [--json FILE] [--csv] [--cache N]
//   echo 'corpus ops=8 count=4 sweep=30' | mwl_batch -
//   echo 'corpus ops=8 count=4 verify=16' | mwl_batch -

#include "cli.hpp"
#include "dfg/analysis.hpp"
#include "engine/batch_engine.hpp"
#include "engine/parallel_pareto.hpp"
#include "io/manifest.hpp"
#include "model/hardware_model.hpp"
#include "report/table.hpp"
#include "support/interrupt.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"
#include "verify/differential.hpp"

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace mwl;

const char* const usage_text =
    "usage: mwl_batch MANIFEST [options]\n"
    "  --jobs N     worker threads [hardware concurrency]\n"
    "  --json FILE  write results + stats as JSON ('-' = stdout)\n"
    "  --csv        CSV on stdout instead of the aligned table\n"
    "  --cache N    result cache capacity [1024]\n"
    "  MANIFEST of '-' reads the manifest from stdin\n"
    "manifest lines (io/manifest.hpp):\n"
    "  graph FILE [lambda=N | slack=PCT | sweep=PCT] [verify=N]\n"
    "  corpus ops=N count=N [seed=S] [mul-fraction=F] [min-width=W]\n"
    "         [max-width=W] [lambda=N | slack=PCT | sweep=PCT]\n"
    "         [verify=N]\n"
    "  verify=N cross-checks reference == datapath sim == RTL\n"
    "  interpretation on N random signed input vectors per graph\n"
    "SIGINT/SIGTERM drain in-flight jobs and emit the partial\n"
    "results (exit 3) instead of dying with no output\n";

} // namespace

int main(int argc, char** argv)
{
    // First thing, so a ^C during manifest expansion already drains
    // instead of killing the process with no output.
    install_interrupt_handler();

    std::string manifest_file;
    std::size_t jobs = 0;
    std::string json_file;
    bool csv = false;
    std::size_t cache_capacity = 1024;

    cli::tool cli("mwl_batch", usage_text);
    cli.value("--jobs", jobs);
    cli.value("--json", json_file);
    cli.flag("--csv", csv);
    cli.value("--cache", cache_capacity);
    cli.positional([&](const std::string& arg) { manifest_file = arg; });
    cli.parse(argc, argv);
    if (manifest_file.empty()) {
        cli.fail("no manifest given");
    }

    try {
        // ---- parse the manifest into owned graphs -----------------------
        const cli::input in(manifest_file);
        if (!in) {
            std::cerr << "mwl_batch: cannot open " << manifest_file << '\n';
            return 1;
        }
        std::vector<manifest_entry> items;
        try {
            items = parse_manifest(in.text());
        } catch (const line_error& e) {
            std::cerr << "mwl_batch: " << e.what() << '\n';
            return 2;
        }
        if (items.empty()) {
            std::cerr << "mwl_batch: manifest has no entries\n";
            return 2;
        }

        // ---- run ---------------------------------------------------------
        const sonic_model model;
        thread_pool pool(jobs);
        batch_options engine_options;
        engine_options.cache_capacity = cache_capacity;
        batch_engine engine(pool, engine_options);

        stopwatch clock;

        // Single-lambda jobs go through the engine (dedup + cache) in
        // bounded chunks, draining between them, so a SIGINT/SIGTERM
        // costs at most one chunk of in-flight work before the partial
        // results are emitted; sweep entries fan out per-lambda subtasks
        // on the same pool afterwards.
        std::vector<std::size_t> job_of_item(items.size(),
                                             static_cast<std::size_t>(-1));
        std::vector<int> lambda_of_item(items.size(), 0);
        std::vector<batch_engine::outcome> outcomes;
        constexpr std::size_t chunk_size = 64;
        std::size_t reached = 0; ///< items whose chunk ran (or was skipped)
        bool interrupted = false;
        while (reached < items.size()) {
            if (interrupt_requested()) {
                interrupted = true;
                break;
            }
            const std::size_t base = outcomes.size();
            std::size_t submitted = 0;
            for (; reached < items.size() && submitted < chunk_size;
                 ++reached) {
                const manifest_entry& item = items[reached];
                if (item.what.sweep) {
                    continue;
                }
                const int lambda =
                    item.what.lambda ? *item.what.lambda
                    : item.graph.empty()
                        ? 0
                        : relaxed_lambda(min_latency(item.graph, model),
                                         item.what.slack.value_or(0.0));
                lambda_of_item[reached] = lambda;
                if (item.what.verify) {
                    continue; // verified on the pool below, at this lambda
                }
                job_of_item[reached] =
                    base + engine.submit(item.graph, model, lambda);
                ++submitted;
            }
            auto drained = engine.drain();
            outcomes.insert(outcomes.end(),
                            std::make_move_iterator(drained.begin()),
                            std::make_move_iterator(drained.end()));
        }

        // Sweep and verification entries run concurrently across items
        // too: one task per graph on the same pool (sweeps additionally
        // fan per-lambda subtasks). An interrupt stops further launches;
        // already-launched tasks drain through tasks.wait().
        std::vector<std::vector<pareto_point>> fronts(items.size());
        std::vector<verify_report> verifications(items.size());
        std::vector<bool> launched(items.size(), false);
        {
            task_group tasks(pool);
            for (std::size_t i = 0; i < reached; ++i) {
                const manifest_entry& item = items[i];
                if (!item.what.sweep && !item.what.verify) {
                    continue;
                }
                if (interrupt_requested()) {
                    interrupted = true;
                    break;
                }
                launched[i] = true;
                if (item.what.sweep) {
                    pareto_options sweep;
                    sweep.max_slack = *item.what.sweep;
                    const sequencing_graph* graph = &item.graph;
                    std::vector<pareto_point>* slot = &fronts[i];
                    tasks.run([&pool, &model, sweep, graph, slot] {
                        *slot =
                            parallel_pareto_sweep(*graph, model, sweep, pool);
                    });
                    continue;
                }
                verify_options options;
                options.inputs_per_graph = *item.what.verify;
                options.slack = item.what.slack.value_or(0.0);
                const int lambda = lambda_of_item[i];
                // Input seeds follow verify_corpus for corpus lines, so
                // `seed=` changes the inputs too, not just the graphs.
                const std::uint64_t seed =
                    item.corpus_seed
                        ? verify_input_seed(*item.corpus_seed,
                                            item.corpus_index)
                        : verify_input_seed(2001, i);
                const manifest_entry* work = &item;
                verify_report* slot = &verifications[i];
                tasks.run([&model, options, lambda, seed, work, slot] {
                    if (work->graph.empty()) {
                        return; // nothing to verify; report stays ok
                    }
                    try {
                        *slot = verify_graph(work->graph, work->name, model,
                                             lambda, options, seed);
                    } catch (const error& e) {
                        // A broken entry (e.g. a graph too wide to
                        // simulate) fails its own row, not the batch.
                        counterexample cx;
                        cx.graph_name = work->name;
                        cx.allocator = "-";
                        cx.stage = "error";
                        cx.detail = e.what();
                        slot->counterexamples.push_back(std::move(cx));
                    }
                });
            }
            tasks.wait();
        }
        const double wall = clock.seconds();

        // ---- report ------------------------------------------------------
        std::vector<manifest_result> rows;
        int failures = 0;
        std::size_t completed_items = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const manifest_entry& item = items[i];
            // On interrupt, entries that never ran get no row: a partial
            // report only contains results that actually exist.
            if (item.what.sweep || item.what.verify) {
                if (!launched[i]) {
                    continue;
                }
            } else if (i >= reached) {
                continue;
            }
            ++completed_items;
            if (item.what.sweep) {
                if (fronts[i].empty()) {
                    // An empty graph sweeps to an empty frontier; still
                    // give the entry a row so no job vanishes from the
                    // report.
                    rows.push_back({item.name, "sweep", 0, 0, 0.0,
                                    "empty graph"});
                    continue;
                }
                for (const pareto_point& p : fronts[i]) {
                    rows.push_back({item.name, "sweep", p.lambda, p.latency,
                                    p.area, "front"});
                }
                continue;
            }
            if (item.what.verify) {
                const verify_report& vr = verifications[i];
                if (!vr.ok()) {
                    ++failures;
                }
                rows.push_back(
                    {item.name, "verify", lambda_of_item[i], 0, 0.0,
                     vr.ok() ? "ok (" + std::to_string(vr.value_checks) +
                                   " checks, " +
                                   std::to_string(vr.allocations) +
                                   " allocations)"
                             : "counterexample: " +
                                   vr.counterexamples.front().to_string()});
                continue;
            }
            const batch_engine::outcome& out = outcomes[job_of_item[i]];
            if (!out.ok()) {
                rows.push_back({item.name, "alloc", lambda_of_item[i], 0, 0.0,
                                "error: " + out.error});
                ++failures;
                continue;
            }
            rows.push_back({item.name, "alloc", lambda_of_item[i],
                            out.result->path.latency,
                            out.result->path.total_area,
                            out.from_cache  ? "cached"
                            : out.coalesced ? "coalesced"
                                            : "computed"});
        }

        const batch_stats stats = engine.stats();
        const double throughput =
            wall > 0.0 ? static_cast<double>(items.size()) / wall : 0.0;
        std::ostringstream json;
        json << "{\"results\":" << results_json(rows)
             << ",\"stats\":{\"entries\":" << items.size()
             << ",\"completed_entries\":" << completed_items
             << ",\"interrupted\":" << (interrupted ? "true" : "false")
             << ",\"engine_jobs\":" << stats.submitted
             << ",\"executed\":" << stats.executed
             << ",\"cache_hits\":" << stats.cache_hits
             << ",\"coalesced\":" << stats.coalesced
             << ",\"errors\":" << stats.errors << ",\"pool_threads\":"
             << pool.size() << ",\"wall_seconds\":" << format_double(wall)
             << ",\"entries_per_second\":" << format_double(throughput)
             << "}}";

        std::ostream& text = cli::report_stream(json_file);
        const table t = results_table("mwl_batch results", rows);
        if (csv) {
            t.print_csv(text);
        } else {
            t.print(text);
        }
        text << "\nengine: " << stats.submitted << " jobs, "
             << stats.executed << " executed, " << stats.cache_hits
             << " cache hits, " << stats.coalesced << " coalesced, "
             << stats.errors << " errors\n"
             << "pool: " << pool.size() << " threads, "
             << table::num(wall * 1e3, 1) << " ms, "
             << table::num(throughput, 1) << " entries/s\n";
        if (interrupted) {
            text << "interrupted: completed " << completed_items << " of "
                 << items.size() << " entries\n";
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
        std::cerr << "mwl_batch: " << e.what() << '\n';
        return 1;
    }
}
