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

/// The tuning path: one wordlength optimization per pending point, run
/// as tasks on the engine's pool. Each search prices its candidates
/// through engine.run(), fanned out over the same pool (parallel_for),
/// so the points share the dedup+LRU, and a point waiting on its own
/// step never runs another queued point's search on its stack. A point
/// interrupted mid-search records nothing: its partial best is not the
/// deterministic answer, so resume re-runs it from scratch.
campaign_run_summary run_tuning_campaign(
    const campaign_spec& spec,
    const std::vector<const campaign_point*>& pending,
    std::size_t total, std::size_t already_complete, result_store& store,
    const campaign_run_options& options)
{
    campaign_run_summary summary;
    summary.total = total;
    summary.already_complete = already_complete;

    // Problems and models are shared across the grid; build them
    // serially up front so pool tasks only read.
    std::map<std::string, tune_problem> problems;
    std::map<std::pair<int, int>, std::unique_ptr<sonic_model>> models;
    for (const campaign_point* p : pending) {
        const std::string gkey =
            p->scenario + "/v" + std::to_string(p->variant);
        if (!problems.contains(gkey)) {
            problems.emplace(
                gkey, make_tune_problem(
                          make_variant_graph(spec, p->scenario, p->variant)));
        }
        const std::pair<int, int> mkey{p->adder_latency,
                                       p->mul_bits_per_cycle};
        if (!models.contains(mkey)) {
            models.emplace(mkey,
                           std::make_unique<sonic_model>(
                               p->adder_latency, p->mul_bits_per_cycle));
        }
    }

    batch_engine engine(batch_options{.jobs = options.jobs,
                                      .cache_capacity = 1024});
    const std::size_t wave_size =
        options.wave != 0
            ? options.wave
            : std::max<std::size_t>(32, 4 * engine.pool().size());

    std::mutex record_mutex;
    for (std::size_t start = 0; start < pending.size();
         start += wave_size) {
        if (interrupt_requested()) {
            summary.interrupted = true;
            break;
        }
        const std::size_t end =
            std::min(pending.size(), start + wave_size);
        task_group tasks(engine.pool());
        for (std::size_t i = start; i < end; ++i) {
            const campaign_point* p = pending[i];
            const tune_problem* problem =
                &problems.at(p->scenario + "/v" +
                             std::to_string(p->variant));
            const sonic_model* model =
                models.at({p->adder_latency, p->mul_bits_per_cycle}).get();
            tasks.run([&, p, problem, model] {
                optimizer_options search;
                search.noise.budget = p->budget;
                search.noise.min_frac_bits = spec.tune_min_frac;
                search.noise.max_frac_bits = spec.tune_max_frac;
                search.slack = p->slack_percent / 100.0;
                search.seed = spec.tune_seed;
                search.max_steps = spec.tune_max_steps;
                search.anneal_iterations = spec.tune_anneal;
                point_result r;
                r.index = p->index;
                r.key = p->key();
                bool cut_short = false;
                try {
                    const tune_result tuned = optimize_wordlengths(
                        *problem, *model, search, engine);
                    cut_short = tuned.stats.interrupted;
                    r.lambda = tuned.best.lambda;
                    r.latency = tuned.best.latency;
                    r.area = tuned.best.area;
                } catch (const error& e) {
                    // An unreachable budget is this point's result, not
                    // a campaign failure.
                    r.error = e.what();
                }
                if (cut_short) {
                    return;
                }
                const std::lock_guard<std::mutex> lock(record_mutex);
                store.record(r);
                ++summary.executed;
                if (!r.ok()) {
                    ++summary.failed;
                }
            });
        }
        tasks.wait();
    }

    store.flush_checkpoint();
    return summary;
}

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
    if (!spec.tune_budgets.empty()) {
        return run_tuning_campaign(spec, pending, summary.total,
                                   summary.already_complete, store,
                                   options);
    }

    // Graphs and models are shared across the grid: one graph per
    // (scenario, variant), one model per parameter combination, one
    // lambda_min per (graph, model) pair.
    std::map<std::string, sequencing_graph> graphs;
    std::map<std::pair<int, int>, std::unique_ptr<sonic_model>> models;
    std::map<std::string, int> lambda_mins;
    const auto graph_of = [&](const campaign_point& p) -> const
        sequencing_graph& {
        const std::string key =
            p.scenario + "/v" + std::to_string(p.variant);
        const auto it = graphs.find(key);
        if (it != graphs.end()) {
            return it->second;
        }
        return graphs
            .emplace(key, make_variant_graph(spec, p.scenario, p.variant))
            .first->second;
    };
    const auto model_of = [&](const campaign_point& p) -> const
        sonic_model& {
        const std::pair<int, int> key{p.adder_latency,
                                      p.mul_bits_per_cycle};
        const auto it = models.find(key);
        if (it != models.end()) {
            return *it->second;
        }
        return *models
                    .emplace(key, std::make_unique<sonic_model>(
                                      p.adder_latency, p.mul_bits_per_cycle))
                    .first->second;
    };

    batch_engine engine(batch_options{.jobs = options.jobs,
                                      .cache_capacity = 1024});
    const std::size_t wave_size =
        options.wave != 0
            ? options.wave
            : std::max<std::size_t>(32, 4 * engine.pool().size());

    struct wave_entry {
        const campaign_point* point = nullptr;
        int lambda = 0;
    };
    std::vector<wave_entry> wave;
    std::mutex record_mutex;
    engine.set_completion_hook([&](std::size_t index,
                                   const batch_engine::outcome& out) {
        const wave_entry& entry = wave[index];
        point_result r;
        r.index = entry.point->index;
        r.key = entry.point->key();
        r.lambda = entry.lambda;
        if (out.ok()) {
            r.latency = out.result->path.latency;
            r.area = out.result->path.total_area;
        } else {
            r.error = out.error;
        }
        const std::lock_guard<std::mutex> lock(record_mutex);
        store.record(r);
        ++summary.executed;
        if (!r.ok()) {
            ++summary.failed;
        }
    });

    for (std::size_t start = 0; start < pending.size();
         start += wave_size) {
        if (interrupt_requested()) {
            summary.interrupted = true;
            break;
        }
        const std::size_t end =
            std::min(pending.size(), start + wave_size);
        // Build the whole wave before the first submit: the completion
        // hook reads `wave` from pool threads as soon as a job resolves.
        wave.clear();
        for (std::size_t i = start; i < end; ++i) {
            const campaign_point& p = *pending[i];
            const sequencing_graph& graph = graph_of(p);
            const sonic_model& model = model_of(p);
            const std::string lkey =
                p.scenario + "/v" + std::to_string(p.variant) + "/a" +
                std::to_string(p.adder_latency) + "m" +
                std::to_string(p.mul_bits_per_cycle);
            auto lit = lambda_mins.find(lkey);
            if (lit == lambda_mins.end()) {
                lit = lambda_mins
                          .emplace(lkey, min_latency(graph, model))
                          .first;
            }
            wave.push_back(
                {&p, relaxed_lambda(lit->second,
                                    p.slack_percent / 100.0)});
        }
        for (const wave_entry& entry : wave) {
            static_cast<void>(engine.submit(graph_of(*entry.point),
                                            model_of(*entry.point),
                                            entry.lambda));
        }
        static_cast<void>(engine.drain());
    }

    store.flush_checkpoint();
    return summary;
}

} // namespace mwl
