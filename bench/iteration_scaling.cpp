// End-to-end DPAlloc wall time vs problem size |O|, incremental pipeline
// against the from-scratch reference pipeline (tests/oracle,
// oracle::dpalloc_from_scratch). Sizes go well beyond the paper's
// |O| <= 24 regime -- this is the bench backing the "3x at |O| >= 50"
// acceptance bar of the incrementalization work (see PERF.md).
//
// Emits the aligned table (or --csv) on stdout plus a JSON trajectory:
// always written to BENCH_iteration_scaling.json in the working directory
// (or --out FILE), and echoed to stdout, so the numbers land in the
// repository's benchmark record.
//
// Both pipelines are run on the same corpus and their total areas are
// cross-checked: the incremental machinery must not change any result.

#include "bench_common.hpp"
#include "core/dpalloc.hpp"
#include "oracle/oracle.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

int main(int argc, char** argv)
{
    using namespace mwl;
    // Large instances: 5 graphs per size keep runs in seconds.
    const bench::bench_options opt =
        bench::parse_options(argc, argv, "iteration_scaling", 5);

    std::vector<std::size_t> sizes{10, 20, 35, 50, 75};
    if (opt.max_size != 0) {
        // Smoke mode (bench-smoke passes --max-size 4): tiny sizes only.
        sizes.clear();
        if (opt.max_size / 2 > 0) {
            sizes.push_back(opt.max_size / 2);
        }
        sizes.push_back(opt.max_size);
    }

    const sonic_model model;
    table t("DPAlloc end-to-end wall time: reference vs incremental"
            " pipeline (lambda = lambda_min)");
    t.header({"|O|", "reference ms", "incremental ms", "speedup"});

    std::ostringstream json;
    json << "{\"bench\":\"iteration_scaling\"," << bench::env_json()
         << ",\"graphs\":" << opt.graphs
         << ",\"seed\":" << opt.seed << ",\"points\":[";

    // Best of `reps` repetitions per arm: scheduler noise only ever adds
    // time, so the minimum is the most faithful estimate of each arm.
    constexpr int reps = 3;

    bool first_point = true;
    for (const std::size_t n : sizes) {
        const auto corpus = make_corpus(n, opt.graphs, model, opt.seed);

        const auto run_arm = [&](auto allocate, double& area_out) {
            double best_ms = 0.0;
            for (int rep = 0; rep < reps; ++rep) {
                double area = 0.0;
                stopwatch clock;
                for (const corpus_entry& e : corpus) {
                    area += allocate(e.graph, model, e.lambda_min, {})
                                .path.total_area;
                }
                const double ms = clock.milliseconds();
                if (rep == 0 || ms < best_ms) {
                    best_ms = ms;
                }
                area_out = area;
            }
            return best_ms;
        };

        double ref_area = 0.0;
        const double ref_ms =
            run_arm(oracle::dpalloc_from_scratch, ref_area);

        double incr_area = 0.0;
        const double incr_ms = run_arm(dpalloc, incr_area);

        if (ref_area != incr_area) {
            std::cerr << "iteration_scaling: INCREMENTAL PIPELINE DIVERGED"
                         " at |O| = "
                      << n << " (" << ref_area << " vs " << incr_area
                      << ")\n";
            return 1;
        }

        const double speedup = incr_ms > 0.0 ? ref_ms / incr_ms : 0.0;
        t.row({table::num(static_cast<int>(n)), table::num(ref_ms, 2),
               table::num(incr_ms, 2), table::num(speedup, 2) + "x"});
        json << (first_point ? "" : ",") << "{\"n\":" << n
             << ",\"reference_ms\":" << format_double(ref_ms)
             << ",\"incremental_ms\":" << format_double(incr_ms)
             << ",\"speedup\":" << format_double(speedup) << "}";
        first_point = false;
    }
    json << "]}";

    bench::emit(t, opt);
    std::cout << '\n' << json.str() << '\n';

    // Smoke runs (--max-size) must not clobber a previously recorded
    // full-size trajectory unless an explicit --out asks for a file.
    if (opt.max_size != 0 && opt.out.empty()) {
        return 0;
    }
    const std::string path =
        opt.out.empty() ? "BENCH_iteration_scaling.json" : opt.out;
    std::ofstream file(path);
    if (file) {
        file << json.str() << '\n';
    } else {
        std::cerr << "iteration_scaling: cannot write " << path << '\n';
        return 1;
    }
    return 0;
}
