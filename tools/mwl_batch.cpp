// mwl_batch -- manifest-driven batch allocation and sweep driver.
//
// Reads a manifest describing many allocation jobs -- .mwl graph files
// and/or generated tgff corpora, each with a latency constraint or a
// Pareto sweep range -- and runs them through the batch engine
// (src/engine/) on a thread pool. Emits per-job results as an
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
#include "engine/pareto_sweep.hpp"
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
    "SIGINT/SIGTERM start no further entry, finish the running\n"
    "ones and emit the partial results (exit 3)\n";

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

        // One pass over the whole manifest: one parallel_for index per
        // entry, each writing only its own slot. Allocations and every
        // lambda of a sweep go through the engine (dedup + cache); sweeps
        // fan their lambdas out on the same pool. Every index checks the
        // interrupt flag before it starts, so a SIGINT/SIGTERM costs at
        // most the entries already running -- one per pool thread plus
        // this one -- before the partial results are emitted.
        struct entry_slot {
            bool ran = false;
            int lambda = 0;
            std::string error; ///< what() of a failed sweep or lambda
            batch_engine::outcome alloc;
            std::vector<pareto_point> front;
            verify_report verification;
        };
        std::vector<entry_slot> slots(items.size());
        parallel_for(pool, items.size(), [&](std::size_t i) {
            if (interrupt_requested()) {
                return;
            }
            const manifest_entry& item = items[i];
            entry_slot& slot = slots[i];
            slot.ran = true;
            // A broken entry -- a sweep whose lambda fails, a slack whose
            // lambda passes INT_MAX -- fails its own row, not the batch.
            try {
                if (item.what.sweep) {
                    pareto_options sweep;
                    sweep.max_slack = *item.what.sweep;
                    slot.front =
                        pareto_sweep(item.graph, model, sweep, engine);
                    return;
                }
                slot.lambda =
                    item.what.lambda ? *item.what.lambda
                    : item.graph.empty()
                        ? 0
                        : relaxed_lambda(min_latency(item.graph, model),
                                         item.what.slack.value_or(0.0));
            } catch (const error& e) {
                slot.error = e.what();
                return;
            }
            if (!item.what.verify) {
                slot.alloc = engine.run(item.graph, model, slot.lambda);
                return;
            }
            if (item.graph.empty()) {
                return; // nothing to verify; report stays ok
            }
            verify_options options;
            options.inputs_per_graph = *item.what.verify;
            options.slack = item.what.slack.value_or(0.0);
            // Input seeds follow verify_corpus for corpus lines, so
            // `seed=` changes the inputs too, not just the graphs.
            const std::uint64_t seed =
                item.corpus_seed
                    ? verify_input_seed(*item.corpus_seed, item.corpus_index)
                    : verify_input_seed(2001, i);
            try {
                slot.verification = verify_graph(item.graph, item.name, model,
                                                 slot.lambda, options, seed);
            } catch (const error& e) {
                // A broken entry (e.g. a graph too wide to simulate) fails
                // its own row, not the batch.
                counterexample cx;
                cx.graph_name = item.name;
                cx.allocator = "-";
                cx.stage = "error";
                cx.detail = e.what();
                slot.verification.counterexamples.push_back(std::move(cx));
            }
        });
        const double wall = clock.seconds();

        // ---- report ------------------------------------------------------
        std::vector<manifest_result> rows;
        int failures = 0;
        std::size_t completed_items = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const manifest_entry& item = items[i];
            const entry_slot& slot = slots[i];
            // On interrupt, entries that never ran get no row: a partial
            // report only contains results that actually exist.
            if (!slot.ran) {
                continue;
            }
            ++completed_items;
            if (!slot.error.empty()) {
                rows.push_back({item.name,
                                item.what.sweep    ? "sweep"
                                : item.what.verify ? "verify"
                                                   : "alloc",
                                0, 0, 0.0, "error: " + slot.error});
                ++failures;
                continue;
            }
            if (item.what.sweep) {
                if (slot.front.empty()) {
                    // An empty graph sweeps to an empty frontier; still
                    // give the entry a row so no job vanishes from the
                    // report.
                    rows.push_back({item.name, "sweep", 0, 0, 0.0,
                                    "empty graph"});
                    continue;
                }
                for (const pareto_point& p : slot.front) {
                    rows.push_back({item.name, "sweep", p.lambda, p.latency,
                                    p.area, "front"});
                }
                continue;
            }
            if (item.what.verify) {
                const verify_report& vr = slot.verification;
                if (!vr.ok()) {
                    ++failures;
                }
                rows.push_back(
                    {item.name, "verify", slot.lambda, 0, 0.0,
                     vr.ok() ? "ok (" + std::to_string(vr.value_checks) +
                                   " checks, " +
                                   std::to_string(vr.allocations) +
                                   " allocations)"
                             : "counterexample: " +
                                   vr.counterexamples.front().to_string()});
                continue;
            }
            const batch_engine::outcome& out = slot.alloc;
            if (!out.ok()) {
                rows.push_back({item.name, "alloc", slot.lambda, 0, 0.0,
                                "error: " + out.error});
                ++failures;
                continue;
            }
            rows.push_back({item.name, "alloc", slot.lambda,
                            out.result->path.latency,
                            out.result->path.total_area,
                            out.from_cache  ? "cached"
                            : out.coalesced ? "coalesced"
                                            : "computed"});
        }
        const bool interrupted = completed_items < items.size();

        const engine_stats stats = engine.snapshot();
        const double throughput =
            wall > 0.0 ? static_cast<double>(completed_items) / wall : 0.0;
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
