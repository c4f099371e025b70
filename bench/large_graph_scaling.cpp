// Large-graph scaling tier: dpalloc throughput on the deterministic
// windowed tgff presets (tgff/generator.hpp, large_graph_preset) at
// |O| = 500 / 1000 / 2000, with jobs = 1/2/4/8 curves over a small
// per-size corpus.
//
// The first graph of every size is the (large_graph_seed_base + n) graph
// that tests/large_graph_identity_test.cpp pins bit-for-bit, and its area
// is recorded in the artifact -- a throughput number only counts if the
// allocations it measures are the pinned ones. Results echo to stdout and
// are written to BENCH_large_graph.json (or --out FILE) on full-size runs;
// smoke runs (--max-size) never clobber the recorded artifact.
//
// The jobs > 1 rows parallelise across graphs with the repo thread_pool;
// "multicore_valid" in the artifact says whether the curve means anything
// on the recording machine (a single-core container shows ~1x by fiat).

#include "bench_common.hpp"

#include "core/dpalloc.hpp"
#include "dfg/analysis.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"

#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr double k_slack = 0.10;

struct size_point {
    std::size_t n = 0;
    std::size_t graphs = 0;
    int lambda = 0;
    long area_first = 0; ///< area of the pinned (seed base + n) graph
    long area_sum = 0;   ///< corpus checksum, identical across jobs levels
    std::vector<std::pair<int, double>> jobs_ms; ///< (jobs, wall ms)
};

} // namespace

int main(int argc, char** argv)
{
    using namespace mwl;
    const bench::bench_options opt =
        bench::parse_options(argc, argv, "large_graph_scaling");

    std::vector<std::size_t> sizes;
    if (opt.max_size != 0) {
        sizes.push_back(opt.max_size);
    } else {
        sizes = {500, 1000, 2000};
    }
    const std::vector<int> jobs_levels = {1, 2, 4, 8};
    const sonic_model model;

    std::vector<size_point> points;
    for (const std::size_t n : sizes) {
        size_point pt;
        pt.n = n;
        // Keep total work roughly flat across sizes: fewer, heavier
        // graphs as |O| grows (8 at 500, 4 at 1000, 2 at 2000).
        pt.graphs = std::max<std::size_t>(
            1, std::min<std::size_t>(opt.graphs, 4000 / std::max<std::size_t>(n, 1)));

        std::vector<sequencing_graph> corpus;
        corpus.reserve(pt.graphs);
        for (std::size_t i = 0; i < pt.graphs; ++i) {
            rng random(large_graph_seed_base + n + i);
            corpus.push_back(generate_tgff(large_graph_preset(n), random));
        }
        pt.lambda = relaxed_lambda(min_latency(corpus.front(), model), k_slack);

        for (const int jobs : jobs_levels) {
            std::vector<long> areas(corpus.size(), 0);
            stopwatch clock;
            if (jobs == 1) {
                for (std::size_t i = 0; i < corpus.size(); ++i) {
                    const int lambda = relaxed_lambda(
                        min_latency(corpus[i], model), k_slack);
                    areas[i] = static_cast<long>(
                        dpalloc(corpus[i], model, lambda).path.total_area);
                }
            } else {
                thread_pool pool(static_cast<std::size_t>(jobs));
                std::vector<std::future<void>> done;
                done.reserve(corpus.size());
                for (std::size_t i = 0; i < corpus.size(); ++i) {
                    done.push_back(pool.submit([&, i] {
                        const int lambda = relaxed_lambda(
                            min_latency(corpus[i], model), k_slack);
                        areas[i] = static_cast<long>(
                            dpalloc(corpus[i], model, lambda).path.total_area);
                    }));
                }
                for (auto& f : done) {
                    f.get();
                }
            }
            pt.jobs_ms.emplace_back(jobs, clock.milliseconds());

            long sum = 0;
            for (const long a : areas) {
                sum += a;
            }
            if (pt.area_sum == 0) {
                pt.area_first = areas.front();
                pt.area_sum = sum;
            } else if (pt.area_sum != sum) {
                std::cerr << "large_graph_scaling: corpus area drifted "
                             "across jobs levels at n="
                          << n << '\n';
                return 1;
            }
        }
        points.push_back(std::move(pt));
    }

    table t("Large-graph dpalloc scaling: preset corpus, slack " +
            std::to_string(static_cast<int>(k_slack * 100)) + "%");
    t.header({"|O|", "graphs", "jobs", "ms", "allocs/s", "speedup"});
    const auto rate = [](std::size_t graphs, double ms) {
        return ms > 0.0 ? static_cast<double>(graphs) / (ms / 1e3) : 0.0;
    };
    for (const size_point& pt : points) {
        const double ms1 = pt.jobs_ms.front().second;
        for (const auto& [jobs, ms] : pt.jobs_ms) {
            t.row({std::to_string(pt.n), std::to_string(pt.graphs),
                   std::to_string(jobs), table::num(ms, 1),
                   table::num(rate(pt.graphs, ms), 2),
                   table::num(ms > 0.0 ? ms1 / ms : 0.0, 2) + "x"});
        }
    }
    bench::emit(t, opt);

    std::ostringstream json;
    json << "{\"bench\":\"large_graph_scaling\"," << bench::env_json()
         << ",\"seed_base\":" << large_graph_seed_base
         << ",\"slack\":" << k_slack << ",\"points\":[";
    bool first_point = true;
    for (const size_point& pt : points) {
        json << (first_point ? "" : ",") << "{\"n\":" << pt.n
             << ",\"graphs\":" << pt.graphs << ",\"lambda\":" << pt.lambda
             << ",\"area_first\":" << pt.area_first
             << ",\"area_sum\":" << pt.area_sum << ",\"jobs\":[";
        bool first_jobs = true;
        for (const auto& [jobs, ms] : pt.jobs_ms) {
            json << (first_jobs ? "" : ",") << "{\"jobs\":" << jobs
                 << ",\"ms\":" << format_double(ms) << ",\"allocs_per_s\":"
                 << format_double(rate(pt.graphs, ms)) << "}";
            first_jobs = false;
        }
        json << "]}";
        first_point = false;
    }
    json << "]}";
    std::cout << '\n' << json.str() << '\n';

    // Smoke runs must not clobber a recorded full-size artifact unless an
    // explicit --out asks for a file.
    if (opt.max_size != 0 && opt.out.empty()) {
        return 0;
    }
    const std::string path =
        opt.out.empty() ? "BENCH_large_graph.json" : opt.out;
    std::ofstream file(path);
    if (file) {
        file << json.str() << '\n';
    } else {
        std::cerr << "large_graph_scaling: cannot write " << path << '\n';
        return 1;
    }
    return 0;
}
