// mwl_perfbench: runs one named workload of the repository benchmark and
// prints its result as the last line of standard output:
//
//   {"correct":B,"attempted":N,"failed":N,"metrics":{NAME:{"value":V,"unit":U}}}
//
// End-to-end runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write their spans. Each run
// also writes an artifact with the environment record next to the result.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
//
// usage: mwl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--out-dir DIR] [--source-rev REV] [--smoke]
//                      [--corrupt]

#include "bench.hpp"
#include "trace.hpp"

#include "support/parse_num.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/utsname.h>

namespace {

using namespace perfbench;

struct metric_def {
    const char* name;
    const char* unit;
};

/// Reported by every end-to-end run; see BENCHMARK.json for the meaning of
/// an operation in each workload.
const std::vector<metric_def> end_to_end = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},
    {"area_sum", "area"},
    {"peak_rss_mb", "MB"},
};

/// Reported by every traced run. A layer a workload does not exercise
/// reads 0 there.
const std::vector<metric_def> per_layer = {
    {"wcg.build_ms", "ms"},
    {"sched.cover_ms", "ms"},
    {"sched.schedule_ms", "ms"},
    {"bind.bind_select_ms", "ms"},
    {"core.critical_ms", "ms"},
    {"core.refine_select_ms", "ms"},
    {"dpalloc.replayed", "count"},
    {"dpalloc.iterations", "count"},
    {"dpalloc.refinements", "count"},
    {"dpalloc.escalations", "count"},
    {"dpalloc.ms_per_iteration", "ms"},
    {"engine.submitted", "count"},
    {"engine.executed", "count"},
    {"engine.cache_hits", "count"},
    {"engine.coalesced", "count"},
    {"engine.evictions", "count"},
    {"engine.hit_ratio", "ratio"},
    {"io.fingerprint_us_p50", "us"},
    {"campaign.expand_ms", "ms"},
    {"campaign.record_us_p50", "us"},
    {"campaign.compact_ms", "ms"},
    {"campaign.report_ms", "ms"},
    {"campaign.small_alloc_us_p50", "us"},
    {"serve.req_us_p50", "us"},
    {"serve.req_us_p99", "us"},
    {"serve.engine_us_hit_p50", "us"},
    {"serve.engine_us_miss_p50", "us"},
    {"serve.outside_engine_us_p50", "us"},
    {"serve.parse_request_us", "us"},
    {"io.parse_graph_us", "us"},
    {"dfg.min_latency_us", "us"},
    {"serve.format_response_us", "us"},
    {"serve.rejected_busy", "count"},
    {"serve.protocol_errors", "count"},
    {"serve.error_responses", "count"},
    {"wordlength.evaluations", "count"},
    {"wordlength.reused", "count"},
    {"wordlength.reuse_ratio", "ratio"},
    {"wordlength.steps", "count"},
    {"wordlength.anneal_accepted", "count"},
    {"wordlength.apply_frac_bits_us", "us"},
    {"tune.cold_sweep_s", "s"},
    {"tune.warm_sweep_s", "s"},
    {"setup.tgff_ms", "ms"},
    {"setup.server_start_ms", "ms"},
    {"setup.warmup_ms", "ms"},
    {"self.wcg_ms", "ms"},
    {"self.sched_ms", "ms"},
    {"self.bind_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.io_ms", "ms"},
    {"self.campaign_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.wordlength_ms", "ms"},
    {"self.tgff_ms", "ms"},
    {"self.scenarios_ms", "ms"},
    {"self.dfg_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
    {"failed_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& message)
{
    std::cerr << "mwl_perfbench: " << message
              << "\nusage: mwl_perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--out-dir DIR] [--source-rev REV] [--smoke]"
                 " [--corrupt]\n";
    std::exit(2);
}

std::string json_string(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value)
{
    if (!std::isfinite(value)) {
        return "0"; // not JSON; the metric check has already failed the run
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string env_json(const std::string& source_rev, std::size_t jobs)
{
    utsname host = {};
    ::uname(&host);
    std::ostringstream out;
    out << "{\"hardware_concurrency\":" << std::thread::hardware_concurrency()
        << ",\"jobs\":" << jobs
        << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
        << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
        << ",\"source_rev\":" << json_string(source_rev)
        << ",\"kernel\":"
        << json_string(std::string(host.sysname) + " " + host.release)
        << ",\"machine\":" << json_string(host.machine) << "}";
    return out.str();
}

std::string result_json(const report& out)
{
    std::ostringstream json;
    json << "{\"correct\":" << (out.correct() ? "true" : "false")
         << ",\"attempted\":" << out.attempted()
         << ",\"failed\":" << out.failed() << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : out.metrics()) {
        json << (first ? "" : ",") << json_string(name) << ":{\"value\":"
             << json_number(m.value) << ",\"unit\":" << json_string(m.unit)
             << "}";
        first = false;
    }
    json << "}}";
    return json.str();
}

/// Fill the layer-generic metrics a traced run derives from its spans.
void finish_traced(const tracer& trace, report& out)
{
    const std::map<std::string, double> by_layer = trace.self_ms_by_layer();
    for (const std::string& layer : layers) {
        const auto it = by_layer.find(layer);
        out.set("self." + layer + "_ms", it == by_layer.end() ? 0.0 : it->second,
                "ms");
    }
    out.set("trace.spans", static_cast<double>(trace.size()), "count");
}

} // namespace

int main(int argc, char** argv)
{
    config cfg;
    cfg.jobs = std::max(1u, std::thread::hardware_concurrency());
    std::filesystem::path out_dir = ".bench_out";
    std::string source_rev = "unknown";
    bool have_trace = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage("missing value for " + arg);
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                cfg.workload = value();
            } else if (arg == "--seed") {
                cfg.seed = mwl::parse_u64_checked(value(), "--seed");
                have_seed = true;
            } else if (arg == "--seconds") {
                cfg.seconds = mwl::parse_double_checked(value(), "--seconds");
            } else if (arg == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1") {
                    usage("--trace takes 0 or 1");
                }
                cfg.trace = t == "1";
                have_trace = true;
            } else if (arg == "--out-dir") {
                out_dir = value();
            } else if (arg == "--source-rev") {
                source_rev = value();
            } else if (arg == "--smoke") {
                cfg.smoke = true;
            } else if (arg == "--corrupt") {
                cfg.corrupt = true;
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::exception& e) {
            usage(e.what());
        }
    }
    if (cfg.workload.empty() || !have_seed || !have_trace) {
        usage("--workload, --seed and --trace are required");
    }
    if (!(cfg.seconds > 0.0) || cfg.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
    }

    using runner = void (*)(const config&, report&, tracer*);
    const std::map<std::string, runner> workloads = {
        {"large_alloc", run_large_alloc},
        {"serve_mixed", run_serve_mixed},
        {"tune_sweep", run_tune_sweep},
    };
    const auto it = workloads.find(cfg.workload);
    if (it == workloads.end()) {
        usage("unknown workload " + cfg.workload);
    }

    std::filesystem::create_directories(out_dir);
    const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                            "-trace" + (cfg.trace ? "1" : "0");
    cfg.scratch_dir = out_dir / ("tmp-" + tag);
    std::filesystem::remove_all(cfg.scratch_dir);
    std::filesystem::create_directories(cfg.scratch_dir);

    report out;
    tracer trace;
    const std::vector<metric_def>& expected = cfg.trace ? per_layer : end_to_end;
    if (cfg.trace) {
        for (const metric_def& m : per_layer) {
            out.set(m.name, 0.0, m.unit);
        }
    }
    try {
        it->second(cfg, out, cfg.trace ? &trace : nullptr);
    } catch (const std::exception& e) {
        out.check(false, std::string("workload aborted: ") + e.what());
    }
    std::filesystem::remove_all(cfg.scratch_dir);

    if (cfg.trace) {
        finish_traced(trace, out);
        out.set("failed_ratio",
                out.attempted() == 0
                    ? 1.0
                    : static_cast<double>(out.failed()) /
                          static_cast<double>(out.attempted()),
                "ratio");
        trace.write(out_dir / (tag + ".spans.jsonl"));
    }
    out.check(out.attempted() >= 1, "no operation was attempted");
    // Every metric the benchmark names must be present and finite; the
    // end-to-end ones must be positive (a zero means nothing was measured).
    for (const metric_def& m : expected) {
        const auto found = out.metrics().find(m.name);
        const bool present = found != out.metrics().end() &&
                             std::isfinite(found->second.value);
        out.check(present && (cfg.trace || found->second.value > 0.0),
                  std::string("metric not measured: ") + m.name);
    }
    out.check(out.metrics().size() == expected.size(),
              "workload reported a metric outside the catalogue");

    const std::string result = result_json(out);
    const std::string env = env_json(source_rev, cfg.jobs);
    std::ofstream(out_dir / (tag + ".json"))
        << "{\"workload\":" << json_string(cfg.workload)
        << ",\"seed\":" << cfg.seed << ",\"seconds\":"
        << json_number(cfg.seconds) << ",\"trace\":" << cfg.trace
        << ",\"env\":" << env << ",\"result\":" << result << "}\n";
    for (const std::string& failure : out.failures()) {
        std::cerr << "mwl_perfbench: CHECK FAILED: " << failure << '\n';
    }
    std::cout << "{\"env\":" << env << "}\n" << result << std::endl;
    return out.correct() ? 0 : 1;
}
