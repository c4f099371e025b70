// Scenario-corpus throughput: allocation rate of every allocator on the
// named DSP kernels (src/scenarios/), the workload arm the random-tgff
// benches cannot cover -- real filter/transform structures with long
// serial chains and coefficient-width spreads.
//
//   --graphs N    repetitions per (scenario, allocator) point [25]
//   --max-size N  bench only the N smallest scenarios (0 = all); the
//                 smoke run uses this to stay fast
//   --csv / --out FILE (JSON artifact, default
//                 BENCH_scenario_throughput.json for full runs)

#include "baseline/descending.hpp"
#include "baseline/two_stage.hpp"
#include "bench_common.hpp"
#include "core/dpalloc.hpp"
#include "dfg/analysis.hpp"
#include "model/hardware_model.hpp"
#include "scenarios/scenarios.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

int main(int argc, char** argv)
{
    using namespace mwl;
    const bench::bench_options opt =
        bench::parse_options(argc, argv, "scenario_throughput");

    const sonic_model model;
    std::vector<scenario> scenarios = all_scenarios();
    if (opt.max_size != 0 && opt.max_size < scenarios.size()) {
        std::stable_sort(scenarios.begin(), scenarios.end(),
                         [](const scenario& a, const scenario& b) {
                             return a.graph.size() < b.graph.size();
                         });
        scenarios.resize(opt.max_size);
    }
    const std::size_t reps = std::max<std::size_t>(1, opt.graphs);

    struct arm {
        const char* name;
        std::function<datapath(const sequencing_graph&, int)> allocate;
    };
    const arm arms[] = {
        {"dpalloc",
         [&](const sequencing_graph& g, int lambda) {
             return dpalloc(g, model, lambda).path;
         }},
        {"two_stage",
         [&](const sequencing_graph& g, int lambda) {
             return two_stage_allocate(g, model, lambda).path;
         }},
        {"descending",
         [&](const sequencing_graph& g, int lambda) {
             return descending_allocate(g, model, lambda);
         }},
    };

    table t("scenario corpus throughput (reps=" + std::to_string(reps) +
            ")");
    t.header({"scenario", "allocator", "ops", "lambda", "latency", "area",
              "ms/alloc", "alloc/s"});
    std::ostringstream json;
    json << "{\"bench\":\"scenario_throughput\"," << bench::env_json()
         << ",\"reps\":" << reps << ",\"points\":[";
    bool first = true;
    for (const scenario& s : scenarios) {
        const int lambda =
            relaxed_lambda(min_latency(s.graph, model), 0.25);
        for (const arm& a : arms) {
            datapath path;
            stopwatch clock;
            for (std::size_t r = 0; r < reps; ++r) {
                path = a.allocate(s.graph, lambda);
            }
            const double seconds = clock.seconds();
            const double per_second =
                seconds > 0.0 ? static_cast<double>(reps) / seconds : 0.0;
            t.row({s.name, a.name,
                   table::num(static_cast<int>(s.graph.size())),
                   table::num(lambda), table::num(path.latency),
                   table::num(path.total_area, 1),
                   table::num(seconds * 1e3 / static_cast<double>(reps), 3),
                   table::num(per_second, 1)});
            json << (first ? "" : ",") << "{\"scenario\":\"" << s.name
                 << "\",\"allocator\":\"" << a.name
                 << "\",\"ops\":" << s.graph.size()
                 << ",\"lambda\":" << lambda
                 << ",\"latency\":" << path.latency
                 << ",\"area\":" << path.total_area
                 << ",\"seconds\":" << seconds
                 << ",\"allocs_per_second\":" << per_second << "}";
            first = false;
        }
    }
    json << "]}";

    bench::emit(t, opt);
    std::cout << '\n' << json.str() << '\n';

    // Smoke runs (--max-size) don't clobber the checked-in artifact unless
    // an explicit --out asks for a file.
    if (opt.max_size != 0 && opt.out.empty()) {
        return 0;
    }
    const std::string out_path =
        opt.out.empty() ? "BENCH_scenario_throughput.json" : opt.out;
    std::ofstream file(out_path);
    if (!file) {
        std::cerr << "scenario_throughput: cannot write " << out_path << '\n';
        return 1;
    }
    file << json.str() << '\n';
    std::cout << "json written to " << out_path << '\n';
    return 0;
}
