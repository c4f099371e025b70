#include "campaign/campaign_runner.hpp"

#include "dfg/analysis.hpp"
#include "engine/batch_engine.hpp"
#include "support/interrupt.hpp"
#include "support/thread_pool.hpp"
#include "tgff/corpus.hpp"
#include "wordlength/optimizer.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

namespace mwl {

namespace {

/// What one pending point reads while it runs: a graph and its lambda on
/// a plain grid, a tune problem on a tuning grid.
struct point_job {
    const campaign_point* point = nullptr;
    const sonic_model* model = nullptr;
    const sequencing_graph* graph = nullptr;
    int lambda = 0;
    const tune_problem* problem = nullptr;
};

} // namespace

campaign_run_summary run_campaign(const campaign_spec& spec,
                                  const std::vector<campaign_point>& points,
                                  result_store& store,
                                  const campaign_run_options& options)
{
    campaign_run_summary summary;
    summary.total = points.size();

    std::vector<const campaign_point*> pending;
    for (const campaign_point& point : points) {
        if (store.has(point.index)) {
            ++summary.already_complete;
        } else {
            pending.push_back(&point);
        }
    }
    if (pending.empty()) {
        return summary;
    }

    // Graphs, tune problems and models are shared across the grid: one
    // graph (or problem) per (scenario, variant), one model per parameter
    // combination, one lambda_min per (graph, model) pair. They are built
    // serially up front, so the points on the pool only read them.
    const bool tuning = !spec.tune_budgets.empty();
    std::map<std::string, sequencing_graph> graphs;
    std::map<std::string, tune_problem> problems;
    std::map<std::pair<int, int>, std::unique_ptr<sonic_model>> models;
    std::map<std::pair<const sequencing_graph*, const sonic_model*>, int>
        lambda_mins;
    std::vector<point_job> jobs;
    jobs.reserve(pending.size());
    for (const campaign_point* p : pending) {
        point_job job;
        job.point = p;
        std::unique_ptr<sonic_model>& model =
            models[{p->adder_latency, p->mul_bits_per_cycle}];
        if (!model) {
            model = std::make_unique<sonic_model>(p->adder_latency,
                                                  p->mul_bits_per_cycle);
        }
        job.model = model.get();
        const std::string variant =
            p->scenario + "/v" + std::to_string(p->variant);
        auto graph = graphs.find(variant);
        if (graph == graphs.end()) {
            graph = graphs
                        .emplace(variant, make_variant_graph(spec, p->scenario,
                                                             p->variant))
                        .first;
        }
        if (tuning) {
            auto problem = problems.find(variant);
            if (problem == problems.end()) {
                problem = problems
                              .emplace(variant,
                                       make_tune_problem(graph->second))
                              .first;
            }
            job.problem = &problem->second;
        } else {
            job.graph = &graph->second;
            auto lambda_min = lambda_mins.find({job.graph, job.model});
            if (lambda_min == lambda_mins.end()) {
                lambda_min =
                    lambda_mins
                        .emplace(std::pair{job.graph, job.model},
                                 min_latency(*job.graph, *job.model))
                        .first;
            }
            job.lambda = relaxed_lambda(lambda_min->second,
                                        p->slack_percent / 100.0);
        }
        jobs.push_back(job);
    }

    batch_engine engine(batch_options{.jobs = options.jobs,
                                      .cache_capacity = 1024});
    const std::size_t wave_size =
        options.wave != 0
            ? options.wave
            : std::max<std::size_t>(32, 4 * engine.pool().size());

    // One point: an engine.run() on a plain grid, a wordlength search on
    // a tuning grid. Each search prices its candidates through engine.run()
    // too, fanned out over the same pool, so every point shares the
    // dedup+LRU; parallel_for never runs a foreign task while it waits, so
    // no point starts another point's work on its stack.
    std::mutex record_mutex;
    const auto run_point = [&](const point_job& job) {
        const campaign_point& p = *job.point;
        point_result r;
        r.index = p.index;
        r.key = p.key();
        if (job.problem != nullptr) {
            optimizer_options search;
            search.noise.budget = p.budget;
            search.noise.min_frac_bits = spec.tune_min_frac;
            search.noise.max_frac_bits = spec.tune_max_frac;
            search.slack = p.slack_percent / 100.0;
            search.seed = spec.tune_seed;
            search.max_steps = spec.tune_max_steps;
            search.anneal_iterations = spec.tune_anneal;
            try {
                const tune_result tuned = optimize_wordlengths(
                    *job.problem, *job.model, search, engine);
                if (tuned.stats.interrupted) {
                    // A partial best is not the deterministic answer:
                    // record nothing, so resume re-runs the point.
                    return;
                }
                r.lambda = tuned.best.lambda;
                r.latency = tuned.best.latency;
                r.area = tuned.best.area;
            } catch (const error& e) {
                // An unreachable budget is this point's result, not a
                // campaign failure.
                r.error = e.what();
            }
        } else {
            r.lambda = job.lambda;
            const batch_engine::outcome out =
                engine.run(*job.graph, *job.model, job.lambda);
            if (out.ok()) {
                r.latency = out.result->path.latency;
                r.area = out.result->path.total_area;
            } else {
                r.error = out.error;
            }
        }
        const std::lock_guard<std::mutex> lock(record_mutex);
        store.record(r);
        ++summary.executed;
        if (!r.ok()) {
            ++summary.failed;
        }
    };

    for (std::size_t start = 0; start < jobs.size(); start += wave_size) {
        if (interrupt_requested()) {
            summary.interrupted = true;
            break;
        }
        const std::size_t count = std::min(wave_size, jobs.size() - start);
        parallel_for(engine.pool(), count,
                     [&](std::size_t i) { run_point(jobs[start + i]); });
    }

    store.flush_checkpoint();
    return summary;
}

} // namespace mwl
