// mwl_campaign -- crash-safe design-space-exploration campaign driver.
//
// Expands a declarative campaign spec (scenario set x lambda range x
// hardware-model parameter grid x optional wordlength perturbations, see
// src/campaign/campaign_spec.hpp for the grammar) into a deterministic
// point list, executes it through the batch engine, and records every
// completed point in a checkpointed on-disk store (append-only journal
// with per-record checksums + atomically replaced snapshots). A killed
// campaign -- kill -9, power loss, or the MWL_CRASH_AFTER fault-injection
// countdown -- resumes with `--resume`, skipping completed points and
// re-running only what was in flight; the final result set is
// byte-identical to an uninterrupted run (proven by
// tests/campaign_test.cpp and the CI kill-and-resume soak).
//
// Usage:
//   mwl_campaign --run DIR --spec FILE [--jobs N] [--checkpoint-every N]
//   mwl_campaign --resume DIR [--jobs N] [--checkpoint-every N]
//   mwl_campaign --status DIR
//   mwl_campaign --report DIR [--json FILE] [--csv]
//
// Exit codes: 0 campaign complete, 1 complete with failed points,
// 2 usage/spec/store errors, 3 interrupted (drained + checkpointed).

#include "campaign/campaign_runner.hpp"
#include "campaign/report.hpp"
#include "cli.hpp"
#include "support/atomic_write.hpp"
#include "support/interrupt.hpp"
#include "support/timer.hpp"

#include <iostream>
#include <string>

namespace {

using namespace mwl;

const char* const usage_text =
    "usage: mwl_campaign MODE [options]\n"
    "modes (exactly one):\n"
    "  --run DIR --spec FILE  start a campaign in a fresh DIR\n"
    "  --resume DIR           continue a checkpointed campaign\n"
    "  --status DIR           print completion counters\n"
    "  --report DIR           print merged per-scenario Pareto fronts\n"
    "options:\n"
    "  --jobs N               worker threads [hardware concurrency]\n"
    "  --checkpoint-every N   journal records between snapshots [64]\n"
    "  --json FILE            write the canonical report JSON ('-' = stdout)\n"
    "  --csv                  CSV tables on stdout\n"
    "exit codes: 0 complete, 1 complete with failed points,\n"
    "            2 usage/spec/store error, 3 interrupted\n"
    "crash injection: MWL_CRASH_AFTER=<n> exits (code 96) at the\n"
    "n-th store write; MWL_CRASH_TORN=1 tears that write.\n";

struct options {
    std::string mode; ///< run | resume | status | report
    std::string dir;
    std::string spec_file;
    std::size_t jobs = 0;
    std::size_t checkpoint_every = 64;
    std::string json_file;
    bool csv = false;
};

void print_table(const table& t, const options& c)
{
    std::ostream& text = cli::report_stream(c.json_file);
    if (c.csv) {
        t.print_csv(text);
    } else {
        t.print(text);
    }
}

/// The canonical report JSON, if --json asked for it; false if unwritable.
bool write_report(const cli::tool& cli, const options& c,
                  const std::vector<campaign_point>& points,
                  const result_store& store)
{
    return c.json_file.empty() ||
           cli.write_json(c.json_file, report_json(points, store),
                          cli::report_stream(c.json_file));
}

int failed_points(const result_store& store)
{
    int failed = 0;
    for (const auto& [index, result] : store.results()) {
        if (!result.ok()) {
            ++failed;
        }
    }
    return failed;
}

/// Shared by --run and --resume once the store and point list exist.
int execute(const cli::tool& cli, const campaign_spec& spec,
            const std::vector<campaign_point>& points, result_store& store,
            const options& c)
{
    stopwatch clock;
    campaign_run_options options;
    options.jobs = c.jobs;
    const campaign_run_summary summary =
        run_campaign(spec, points, store, options);
    const double wall = clock.seconds();

    const campaign_status status = status_of(points, store);
    print_table(render_status(status), c);
    std::ostream& text = cli::report_stream(c.json_file);
    text << "\nrun: " << summary.executed << " executed, "
         << summary.already_complete << " resumed from checkpoint, "
         << summary.failed << " failed, " << table::num(wall * 1e3, 1)
         << " ms";
    if (wall > 0.0 && summary.executed > 0) {
        text << ", "
             << table::num(static_cast<double>(summary.executed) / wall, 1)
             << " points/s";
    }
    text << '\n';
    const store_load_stats& loaded = store.load_stats();
    if (loaded.dropped_tail) {
        text << "recovered: torn journal tail discarded ("
             << loaded.tail_error << ")\n";
    }
    if (summary.interrupted) {
        text << "interrupted: " << status.completed << " of "
             << status.total
             << " points checkpointed; rerun --resume to finish\n";
        return interrupt_exit_code;
    }
    if (!write_report(cli, c, points, store)) {
        return 2;
    }
    return failed_points(store) == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    install_interrupt_handler();
    options c;
    cli::tool cli("mwl_campaign", usage_text);
    for (const char* mode : {"run", "resume", "status", "report"}) {
        cli.value(std::string("--") + mode, [&, mode](const std::string& dir) {
            if (!c.mode.empty()) {
                cli.fail("modes --" + c.mode + " and --" + mode +
                         " are mutually exclusive");
            }
            c.mode = mode;
            c.dir = dir;
        });
    }
    cli.value("--spec", c.spec_file);
    cli.value("--jobs", c.jobs);
    cli.value("--checkpoint-every", c.checkpoint_every);
    cli.value("--json", c.json_file);
    cli.flag("--csv", c.csv);
    cli.parse(argc, argv);
    if (c.mode.empty()) {
        cli.fail("pick a mode: --run, --resume, --status or --report");
    }
    if (c.checkpoint_every == 0) {
        cli.fail("--checkpoint-every must be >= 1");
    }
    if (c.mode == "run" && c.spec_file.empty()) {
        cli.fail("--run needs --spec FILE");
    }
    if (c.mode != "run" && !c.spec_file.empty()) {
        cli.fail("--spec only applies to --run");
    }
    try {
        if (c.mode == "run") {
            std::string spec_text;
            if (!read_file(c.spec_file, spec_text)) {
                std::cerr << "mwl_campaign: cannot open spec "
                          << c.spec_file << '\n';
                return 2;
            }
            const campaign_spec spec = campaign_spec::parse(spec_text);
            const std::vector<campaign_point> points = expand(spec);
            result_store store = result_store::create(
                c.dir, spec_text, points_fingerprint(points), points.size(),
                c.checkpoint_every);
            return execute(cli, spec, points, store, c);
        }
        if (c.mode == "resume") {
            const std::string spec_text =
                result_store::load_spec_text(c.dir);
            const campaign_spec spec = campaign_spec::parse(spec_text);
            const std::vector<campaign_point> points = expand(spec);
            result_store store = result_store::open(
                c.dir, points_fingerprint(points), c.checkpoint_every);
            return execute(cli, spec, points, store, c);
        }
        if (c.mode == "status") {
            const std::string spec_text =
                result_store::load_spec_text(c.dir);
            const campaign_spec spec = campaign_spec::parse(spec_text);
            const std::vector<campaign_point> points = expand(spec);
            const result_store store = result_store::open(
                c.dir, points_fingerprint(points), c.checkpoint_every);
            const campaign_status status = status_of(points, store);
            print_table(render_status(status), c);
            const store_load_stats& loaded = store.load_stats();
            std::cout << "\nstore: " << loaded.snapshot_records
                      << " snapshot records, " << loaded.journal_records
                      << " journal records, " << loaded.duplicates
                      << " duplicates";
            if (loaded.dropped_tail) {
                std::cout << ", torn tail dropped (" << loaded.tail_error
                          << ")";
            }
            std::cout << '\n'
                      << (status.completed == status.total ? "complete"
                                                           : "incomplete")
                      << ": " << status.completed << " of " << status.total
                      << " points, " << status.failed << " failed\n";
            return 0;
        }
        // --report
        const std::string spec_text = result_store::load_spec_text(c.dir);
        const campaign_spec spec = campaign_spec::parse(spec_text);
        const std::vector<campaign_point> points = expand(spec);
        const result_store store = result_store::open(
            c.dir, points_fingerprint(points), c.checkpoint_every);
        print_table(render_frontiers(merge_scenario_frontiers(points, store)),
                    c);
        return write_report(cli, c, points, store) ? 0 : 2;
    } catch (const error& e) {
        std::cerr << "mwl_campaign: " << e.what() << '\n';
        return 2;
    }
}
