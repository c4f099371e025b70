// Wordlength-optimizer throughput and cache-reuse measurement.
//
// The optimizer's cost function is a real dpalloc run per candidate, so
// its speed is governed by how often the batch engine's dedup+LRU cache
// answers instead of the allocator. The productive workload shape is a
// *budget sweep*: consecutive budgets quantize to the same integer
// water-filling seed, so whole searches revisit the same candidate
// region and one shared engine serves them from cache. This bench runs
// that sweep over a deterministic corpus and reports evaluations/s and
// the measured reuse rate.
//
// The reuse rate is load-bearing: the optimizer's design assumes sweeps
// are mostly cache-served (PERF.md quotes this number), so outside smoke
// mode the bench exits non-zero if reuse drops to 0.5 or below -- a
// throughput figure measured with a cold cache would be measuring the
// allocator, not the optimizer.

#include "bench_common.hpp"
#include "engine/batch_engine.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"
#include "wordlength/optimizer.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

int main(int argc, char** argv)
{
    using namespace mwl;
    bench::bench_options opt =
        bench::parse_options(argc, argv, "tune_throughput", 6);
    const bool smoke = opt.max_size != 0;
    const std::size_t n_ops = smoke ? opt.max_size : 12;
    constexpr std::size_t budgets_per_design = 8;
    // 3% budget steps: fine enough that neighbours share a water-filling
    // seed, which is the reuse the sweep is designed to harvest.
    constexpr double budget_top = 1e-6;
    constexpr double budget_step = 0.97;

    const sonic_model model;
    const auto corpus = make_corpus(n_ops, opt.graphs, model, opt.seed);

    std::vector<tune_problem> problems;
    problems.reserve(corpus.size());
    for (const corpus_entry& e : corpus) {
        problems.push_back(make_tune_problem(e.graph));
    }

    batch_options engine_opt;
    engine_opt.cache_capacity = 4096;
    batch_engine engine(engine_opt);

    optimizer_options base;
    base.noise.min_frac_bits = 2;
    base.noise.max_frac_bits = 20;
    base.max_steps = 16;
    base.anneal_iterations = 0;

    std::size_t evaluations = 0;
    std::size_t reused = 0;
    std::size_t searches = 0;
    std::size_t infeasible = 0;
    stopwatch clock;
    for (const tune_problem& problem : problems) {
        double budget = budget_top;
        for (std::size_t b = 0; b < budgets_per_design; ++b) {
            optimizer_options options = base;
            options.noise.budget = budget;
            budget *= budget_step;
            try {
                const tune_result r =
                    optimize_wordlengths(problem, model, options, engine);
                evaluations += r.stats.evaluations;
                reused += r.stats.reused;
                ++searches;
            } catch (const infeasible_error&) {
                ++infeasible; // tiny smoke graphs may max out; not a bug
            }
        }
    }
    const double ms = clock.milliseconds();

    if (searches == 0 || evaluations == 0) {
        std::cerr << "tune_throughput: NO SEARCH COMPLETED (" << infeasible
                  << " infeasible)\n";
        return 1;
    }
    const double reuse_rate =
        static_cast<double>(reused) / static_cast<double>(evaluations);
    const double evals_per_s =
        ms > 0.0 ? static_cast<double>(evaluations) / (ms / 1e3) : 0.0;
    const double searches_per_s =
        ms > 0.0 ? static_cast<double>(searches) / (ms / 1e3) : 0.0;
    const engine_stats engine_counts = engine.snapshot();

    table t("Wordlength tuning sweep: " + std::to_string(problems.size()) +
            " designs x " + std::to_string(budgets_per_design) +
            " budgets, |O| = " + std::to_string(n_ops));
    t.header({"searches", "ms", "searches/s", "evals", "evals/s",
              "reuse rate"});
    t.row({std::to_string(searches), table::num(ms, 1),
           table::num(searches_per_s, 1), std::to_string(evaluations),
           table::num(evals_per_s, 1), table::num(reuse_rate, 3)});
    bench::emit(t, opt);

    std::ostringstream json;
    json << "{\"bench\":\"tune_throughput\",\"graphs\":" << problems.size()
         << ",\"n_ops\":" << n_ops << ",\"seed\":" << opt.seed
         << ",\"budgets_per_design\":" << budgets_per_design
         << ",\"searches\":" << searches
         << ",\"infeasible\":" << infeasible << ',' << bench::env_json()
         << ",\"ms\":" << ms << ",\"evaluations\":" << evaluations
         << ",\"reused\":" << reused << ",\"reuse_rate\":" << reuse_rate
         << ",\"evals_per_s\":" << evals_per_s
         << ",\"searches_per_s\":" << searches_per_s
         << ",\"engine_executed\":" << engine_counts.executed
         << ",\"engine_cache_hits\":" << engine_counts.cache_hits
         << ",\"engine_coalesced\":" << engine_counts.coalesced << "}";
    std::cout << '\n' << json.str() << '\n';

    // Self-gate (full runs only): the sweep must be mostly cache-served.
    if (!smoke && reuse_rate <= 0.5) {
        std::cerr << "tune_throughput: REUSE RATE " << reuse_rate
                  << " <= 0.5 -- the sweep is not harvesting the cache\n";
        return 1;
    }

    if (smoke && opt.out.empty()) {
        return 0;
    }
    const std::string path =
        opt.out.empty() ? "BENCH_tune_throughput.json" : opt.out;
    std::ofstream file(path);
    if (file) {
        file << json.str() << '\n';
    } else {
        std::cerr << "tune_throughput: cannot write " << path << '\n';
        return 1;
    }
    return 0;
}
