// Batch-engine throughput: a Pareto sweep over a tgff corpus, run through
// the engine (engine/pareto_sweep.hpp) at --jobs 1 vs --jobs 8, plus a
// result-cache replay pass. Every engine frontier is cross-checked
// byte-identical to the serial reference sweep
// (`oracle::pareto_sweep_serial`) -- the bench exits non-zero on any
// divergence, so the speedup numbers can never come from changed answers.
//
// Emits the aligned table (or --csv) plus a JSON artifact: always written
// to BENCH_batch_throughput.json (or --out FILE) and echoed to stdout.
// Note the speedup is bounded by the machine: the artifact records
// hardware_concurrency so a single-core container's ~1x is legible.

#include "bench_common.hpp"
#include "engine/pareto_sweep.hpp"
#include "oracle/pareto_serial.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

bool fronts_identical(const std::vector<mwl::pareto_point>& a,
                      const std::vector<mwl::pareto_point>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].lambda != b[i].lambda || a[i].latency != b[i].latency ||
            a[i].area != b[i].area ||
            a[i].path.start != b[i].path.start ||
            a[i].path.instance_of_op != b[i].path.instance_of_op ||
            a[i].path.total_area != b[i].path.total_area) {
            return false;
        }
    }
    return true;
}

} // namespace

int main(int argc, char** argv)
{
    using namespace mwl;
    // 64 graphs: the acceptance corpus size.
    bench::bench_options opt =
        bench::parse_options(argc, argv, "batch_throughput", 64);
    const std::size_t n_ops = opt.max_size != 0 ? opt.max_size : 12;

    pareto_options sweep;
    sweep.max_slack = 0.3; // the paper's 0..30% relaxation band

    const sonic_model model;
    const auto corpus = make_corpus(n_ops, opt.graphs, model, opt.seed);

    // Serial reference: ground truth for identity and the speedup base.
    std::vector<std::vector<pareto_point>> serial_fronts(corpus.size());
    stopwatch clock;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        serial_fronts[i] =
            oracle::pareto_sweep_serial(corpus[i].graph, model, sweep);
    }
    const double serial_ms = clock.milliseconds();

    constexpr int reps = 3;
    const auto run_arm = [&](std::size_t jobs, bool& identical) {
        identical = true;
        double best_ms = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
            std::vector<std::vector<pareto_point>> fronts(corpus.size());
            // A fresh engine per rep: no rep reads another rep's cache.
            batch_engine engine(batch_options{.jobs = jobs});
            stopwatch arm_clock;
            // mwl_batch's shape: one index per graph, each sweep fanning
            // its lambdas out on the same pool.
            parallel_for(engine.pool(), corpus.size(), [&](std::size_t i) {
                fronts[i] =
                    pareto_sweep(corpus[i].graph, model, sweep, engine);
            });
            const double ms = arm_clock.milliseconds();
            if (rep == 0 || ms < best_ms) {
                best_ms = ms;
            }
            for (std::size_t i = 0; i < corpus.size(); ++i) {
                if (!fronts_identical(fronts[i], serial_fronts[i])) {
                    identical = false;
                }
            }
        }
        return best_ms;
    };

    bool ok1 = true;
    bool ok8 = true;
    const double ms_jobs1 = run_arm(1, ok1);
    const double ms_jobs8 = run_arm(8, ok8);
    if (!ok1 || !ok8) {
        std::cerr << "batch_throughput: ENGINE FRONT DIVERGED FROM"
                     " THE SERIAL SWEEP\n";
        return 1;
    }

    // Cache replay: the same corpus's lambda_min jobs twice through one
    // engine; the second pass must be all cache hits.
    batch_options engine_options;
    engine_options.jobs = 8;
    engine_options.cache_capacity = 2 * corpus.size() + 1;
    batch_engine engine(engine_options);
    const auto engine_pass = [&] {
        stopwatch pass;
        parallel_for(engine.pool(), corpus.size(), [&](std::size_t i) {
            static_cast<void>(
                engine.run(corpus[i].graph, model, corpus[i].lambda_min));
        });
        return pass.milliseconds();
    };
    const double pass1_ms = engine_pass();
    const double pass2_ms = engine_pass();
    const engine_stats stats = engine.snapshot();
    const double hit_rate =
        static_cast<double>(stats.cache_hits) /
        static_cast<double>(corpus.size());

    const double speedup = ms_jobs8 > 0.0 ? ms_jobs1 / ms_jobs8 : 0.0;

    table t("Batch sweep throughput: " + std::to_string(opt.graphs) +
            " graphs, |O| = " + std::to_string(n_ops) +
            ", slack 0..30%");
    t.header({"arm", "ms", "graphs/s", "speedup"});
    const auto rate = [&](double ms) {
        return ms > 0.0 ? static_cast<double>(opt.graphs) / (ms / 1e3) : 0.0;
    };
    t.row({"serial sweep", table::num(serial_ms, 1),
           table::num(rate(serial_ms), 1), "1.00x"});
    t.row({"engine --jobs 1", table::num(ms_jobs1, 1),
           table::num(rate(ms_jobs1), 1),
           table::num(serial_ms / ms_jobs1, 2) + "x"});
    t.row({"engine --jobs 8", table::num(ms_jobs8, 1),
           table::num(rate(ms_jobs8), 1),
           table::num(serial_ms / ms_jobs8, 2) + "x"});
    t.row({"cache replay", table::num(pass2_ms, 1),
           table::num(rate(pass2_ms), 1),
           table::num(pass1_ms / (pass2_ms > 0.0 ? pass2_ms : 1e-9), 2) +
               "x"});
    bench::emit(t, opt);

    std::ostringstream json;
    json << "{\"bench\":\"batch_throughput\",\"graphs\":" << opt.graphs
         << ",\"n_ops\":" << n_ops << ",\"seed\":" << opt.seed
         << ",\"sweep_slack\":" << sweep.max_slack
         << ',' << bench::env_json()
         << ",\"serial_ms\":" << serial_ms << ",\"jobs1_ms\":" << ms_jobs1
         << ",\"jobs8_ms\":" << ms_jobs8
         << ",\"speedup_jobs8_vs_jobs1\":" << speedup
         << ",\"front_identical_to_serial\":" << (ok1 && ok8 ? "true"
                                                             : "false")
         << ",\"cache\":{\"first_pass_ms\":" << pass1_ms
         << ",\"second_pass_ms\":" << pass2_ms
         << ",\"hit_rate\":" << hit_rate << "}}";
    std::cout << '\n' << json.str() << '\n';

    // Smoke runs must not clobber a recorded full-size artifact unless an
    // explicit --out asks for a file.
    if (opt.max_size != 0 && opt.out.empty()) {
        return 0;
    }
    const std::string path =
        opt.out.empty() ? "BENCH_batch_throughput.json" : opt.out;
    std::ofstream file(path);
    if (file) {
        file << json.str() << '\n';
    } else {
        std::cerr << "batch_throughput: cannot write " << path << '\n';
        return 1;
    }
    return 0;
}
