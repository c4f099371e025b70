// large_alloc: one closed-loop caller running serial dpalloc() on large
// preset tgff graphs (|O| ~ 300-700, 10% slack). The wcg / sched / bind /
// core phases do all the work; engine, io, serve and campaign do none.
//
// One operation is one dpalloc() call; the caller makes round-robin passes
// over the draw (make_draw) for the measured window.

#include "bench.hpp"
#include "replay.hpp"
#include "trace.hpp"

#include "core/validate.hpp"
#include "dfg/analysis.hpp"
#include "io/graph_io.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"

#include <algorithm>

namespace perfbench {

using namespace mwl;

namespace {

constexpr double slack = 0.10;
constexpr std::size_t pinned_ops = 500;
constexpr double pinned_area = 17658.0;

struct job {
    sequencing_graph graph;
    int lambda = 0;
};

/// The draw: the preset corpus graphs (seed large_graph_seed_base + n, the
/// repository's convention) at seven sizes spread evenly over 300-700, the
/// pinned |O| = 500 graph first, plus `seeded` graphs drawn from the
/// workload seed. The seeded graphs sit at the small end of the range so a
/// new seed brings new inputs without moving the median call or the cost
/// of a pass by more than a few percent.
std::vector<job> make_draw(const config& cfg, const hardware_model& model,
                           tracer* trace)
{
    const std::size_t lo = cfg.smoke ? 30 : 300;
    const std::size_t hi = cfg.smoke ? 60 : 700;
    const std::size_t mid = (lo + hi) / 2;
    constexpr std::size_t fixed = 7;
    constexpr std::size_t seeded = 2;

    std::vector<job> jobs;
    const auto add = [&](std::size_t n, std::uint64_t graph_seed) {
        job j;
        {
            const scope s(trace, "tgff.generate", "tgff");
            rng random(graph_seed);
            j.graph = generate_tgff(large_graph_preset(n), random);
        }
        const scope s(trace, "dfg.min_latency", "dfg");
        j.lambda = relaxed_lambda(min_latency(j.graph, model), slack);
        jobs.push_back(std::move(j));
    };
    add(mid, large_graph_seed_base + mid);
    for (std::size_t i = 0; i < fixed; ++i) {
        const std::size_t n = lo + (hi - lo) * i / (fixed - 1);
        if (n != mid) {
            add(n, large_graph_seed_base + n);
        }
    }
    rng draw(mix(cfg.seed, 0x1a46e));
    for (std::size_t i = 0; i < seeded; ++i) {
        const std::size_t n = lo + draw.uniform(0, (hi - lo) / 8);
        add(n, mix(cfg.seed, i + 1));
    }
    return jobs;
}

/// Output checks on the first result of each distinct graph.
void check_result(const config& cfg, const job& j, std::size_t index,
                  dpalloc_result result, const hardware_model& model,
                  report& out)
{
    if (cfg.corrupt && index == 0) {
        result.path.start.back() = j.lambda + 1;
    }
    out.check(validate_datapath(j.graph, model, result.path, j.lambda).empty(),
              "large_alloc: graph " + std::to_string(index) +
                  " fails validate_datapath");
    if (!cfg.smoke && index == 0) {
        out.check(result.path.total_area == pinned_area,
                  "large_alloc: pinned |O| = 500 graph area " +
                      std::to_string(result.path.total_area) +
                      " != 17658");
    }
}

} // namespace

void run_large_alloc(const config& cfg, report& out, tracer* trace)
{
    const sonic_model model;

    setup_timer setup;
    std::vector<job> jobs;
    const auto set_up = [&] {
        setup.start();
        jobs = make_draw(cfg, model, setup.first() ? trace : nullptr);
        setup.stop();
    };
    while (setup.more()) {
        set_up();
    }

    if (trace != nullptr) {
        out.set("setup.tgff_ms", trace->total_ms("tgff.generate"), "ms");
        std::vector<double> fingerprint_us;
        for (const job& j : jobs) {
            const scope s(trace, "io.fingerprint", "io");
            const clock::time_point t0 = clock::now();
            static_cast<void>(graph_fingerprint(j.graph));
            fingerprint_us.push_back(seconds_since(t0) * 1e6);
        }
        out.set("io.fingerprint_us_p50", median(fingerprint_us), "us");

        // Phase split on a fixed prefix of the draw (pinned graph first),
        // so the dpalloc.* counts repeat exactly from run to run.
        const std::size_t replay_count = cfg.smoke ? jobs.size() : 3;
        replay_totals totals;
        for (std::size_t i = 0; i < replay_count; ++i) {
            const dpalloc_result result = replay_and_check(
                jobs[i].graph, model, jobs[i].lambda, *trace, totals, out);
            check_result(cfg, jobs[i], i, result, model, out);
        }
        report_replay(*trace, totals, out);
        out.set("trace.overhead_ratio", totals.replay_s / totals.dpalloc_s,
                "ratio");
        return;
    }

    // Closed loop: round-robin passes over the draw, two whole passes and
    // then every call whose last time still fits in the measured window.
    // Each graph's fastest call is kept: on a shared host interference only
    // ever slows a call down, so the fastest of several tracks the program
    // rather than its neighbours.
    std::vector<double> best_ms(jobs.size(), 0.0);
    std::vector<double> area(jobs.size(), 0.0);
    std::vector<double> rss_mb;
    std::size_t calls = 0;
    const clock::time_point start = clock::now();
    for (std::size_t k = 0;; k = (k + 1) % jobs.size(), ++calls) {
        if (k == 0) {
            if (calls > 0) {
                rss_mb.push_back(peak_rss_mb());
            }
            reset_peak_rss();
        }
        if (calls >= 2 * jobs.size() &&
            seconds_since(start) + best_ms[k] / 1e3 > cfg.seconds) {
            break;
        }
        const clock::time_point t0 = clock::now();
        const dpalloc_result result =
            dpalloc(jobs[k].graph, model, jobs[k].lambda);
        const double ms = seconds_since(t0) * 1e3;
        out.attempt();
        if (calls < jobs.size()) {
            best_ms[k] = ms;
            area[k] = result.path.total_area;
            check_result(cfg, jobs[k], k, result, model, out);
        } else {
            best_ms[k] = std::min(best_ms[k], ms);
            out.check(area[k] == result.path.total_area,
                      "large_alloc: repeated allocation changed its area");
        }
    }

    double pass_ms = 0.0;
    double area_sum = 0.0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        pass_ms += best_ms[k];
        area_sum += area[k];
    }
    while (setup.more_after()) {
        set_up();
    }
    out.set("setup_s", setup.median_s(), "s");
    out.set("ops_per_s", static_cast<double>(jobs.size()) / (pass_ms / 1e3),
            "1/s");
    out.set("op_ms_p50", median(best_ms), "ms");
    out.set("area_sum", area_sum, "area");
    out.set("peak_rss_mb", median(rss_mb), "MB");
}

} // namespace perfbench
