// The campaign layer, measured on the wordlength path's campaign front door:
// a tuning campaign (campaign_spec's `tune` directive) run once through
// run_campaign on a fresh result_store on the real filesystem, with jobs =
// hardware concurrency. The tune_sweep traced run calls this; the split it
// reports is expand, record (journal append + fsync) and compaction, the
// canonical report, and serial dpalloc over the grid's distinct jobs.

#include "bench.hpp"
#include "trace.hpp"

#include "campaign/campaign_runner.hpp"
#include "campaign/report.hpp"
#include "dfg/analysis.hpp"
#include "engine/batch_engine.hpp"
#include "tgff/corpus.hpp"
#include "wordlength/optimizer.hpp"

#include <set>

namespace perfbench {

using namespace mwl;

namespace {

/// The first point re-run by a direct optimize_wordlengths() call, with
/// the options the campaign runner derives from the spec, must match.
void check_first_point(const config& cfg, const campaign_spec& spec,
                       const campaign_point& p, point_result recorded,
                       report& out)
{
    if (cfg.corrupt) {
        recorded.area += 1.0;
    }
    const sonic_model model(p.adder_latency, p.mul_bits_per_cycle);
    optimizer_options search;
    search.noise.budget = p.budget;
    search.noise.min_frac_bits = spec.tune_min_frac;
    search.noise.max_frac_bits = spec.tune_max_frac;
    search.slack = p.slack_percent / 100.0;
    search.seed = spec.tune_seed;
    search.max_steps = spec.tune_max_steps;
    search.anneal_iterations = spec.tune_anneal;
    search.batch_neighbors = false;
    batch_engine engine(batch_options{.jobs = 1});
    const tune_result direct = optimize_wordlengths(
        make_tune_problem(make_variant_graph(spec, p.scenario, p.variant)),
        model, search, engine);
    out.check(recorded.ok() && recorded.lambda == direct.best.lambda &&
                  recorded.latency == direct.best.latency &&
                  recorded.area == direct.best.area,
              "campaign: point " + p.key() +
                  " differs from a direct optimize_wordlengths()");
}

} // namespace

void measure_campaign_layer(const config& cfg, const std::string& spec_text,
                            report& out, tracer& trace)
{
    const campaign_spec spec = campaign_spec::parse(spec_text);
    std::vector<campaign_point> points;
    {
        const scope s(&trace, "campaign.expand", "campaign");
        points = expand(spec);
    }
    out.set("campaign.expand_ms", trace.total_ms("campaign.expand"), "ms");
    const std::uint64_t fingerprint = points_fingerprint(points);

    const std::filesystem::path dir = cfg.scratch_dir / "campaign";
    std::filesystem::remove_all(dir);
    std::map<std::size_t, point_result> results;
    {
        const scope s(&trace, "campaign.run", "campaign");
        result_store store = result_store::create(dir, spec_text, fingerprint,
                                                  points.size());
        const campaign_run_summary summary = run_campaign(
            spec, points, store, {.jobs = cfg.jobs, .wave = 0});
        out.attempt(points.size());
        out.fail(summary.failed);
        out.check(summary.executed == points.size() && summary.failed == 0 &&
                      !summary.interrupted,
                  "campaign: run did not complete every point cleanly");
        {
            const scope r(&trace, "campaign.report", "campaign");
            static_cast<void>(report_json(points, store));
        }
        results = store.results();
    }
    std::filesystem::remove_all(dir);
    out.set("campaign.report_ms", trace.total_ms("campaign.report"), "ms");
    if (!results.empty()) {
        check_first_point(cfg, spec, points.front(), results.begin()->second,
                          out);
    }

    // Journal: replay the run's results through record() on a fresh store.
    // A record that reaches the checkpoint cadence also compacts; those
    // are reported apart. The cadence is short so that even a small
    // campaign compacts a few times.
    const std::filesystem::path replay_dir = cfg.scratch_dir / "replay";
    std::filesystem::remove_all(replay_dir);
    constexpr std::size_t checkpoint_every = 8;
    {
        result_store store =
            result_store::create(replay_dir, spec_text, fingerprint,
                                 points.size(), checkpoint_every);
        std::vector<double> record_us;
        double compact_ms = 0.0;
        std::size_t n = 0;
        for (const auto& [index, r] : results) {
            const scope s(&trace, "campaign.record", "campaign");
            const clock::time_point t0 = clock::now();
            store.record(r);
            const double us = seconds_since(t0) * 1e6;
            if (++n % checkpoint_every == 0) {
                compact_ms += us / 1e3;
            } else {
                record_us.push_back(us);
            }
        }
        out.set("campaign.record_us_p50", median(record_us), "us");
        out.set("campaign.compact_ms", compact_ms, "ms");
    }
    std::filesystem::remove_all(replay_dir);

    // Serial dpalloc over the grid's distinct (graph, model, slack) jobs.
    std::set<std::string> seen;
    std::vector<double> alloc_us;
    for (const campaign_point& p : points) {
        const std::string key = p.scenario + "/v" + std::to_string(p.variant) +
                                "/a" + std::to_string(p.adder_latency) + "m" +
                                std::to_string(p.mul_bits_per_cycle) + "/s" +
                                std::to_string(p.slack_percent);
        if (!seen.insert(key).second) {
            continue;
        }
        const sequencing_graph g =
            make_variant_graph(spec, p.scenario, p.variant);
        const sonic_model model(p.adder_latency, p.mul_bits_per_cycle);
        const int lambda =
            relaxed_lambda(min_latency(g, model), p.slack_percent / 100.0);
        const scope s(&trace, "campaign.small_alloc", "core");
        const clock::time_point t0 = clock::now();
        static_cast<void>(dpalloc(g, model, lambda));
        alloc_us.push_back(seconds_since(t0) * 1e6);
    }
    out.set("campaign.small_alloc_us_p50", median(alloc_us), "us");
}

} // namespace perfbench
