// Shared command-line handling for the figure/table regeneration benches.
//
// Every bench runs with paper-shaped defaults scaled down to finish in
// seconds; pass --graphs 200 (and friends) to reproduce the paper's full
// corpus sizes. --csv switches the output to machine-readable form.

#ifndef MWL_BENCH_BENCH_COMMON_HPP
#define MWL_BENCH_BENCH_COMMON_HPP

#include "cli.hpp"
#include "report/table.hpp"

#include <cstdint>
#include <iostream>
#include <string>
#include <thread>

namespace mwl::bench {

struct bench_options {
    std::size_t graphs = 25;      ///< corpus size per (|O|, slack) point
    std::uint64_t seed = 2001;    ///< corpus base seed
    bool csv = false;             ///< CSV instead of aligned table
    double ilp_time_limit = 5.0;  ///< per-instance ILP wall limit (seconds)
    std::size_t max_size = 0;     ///< 0 = bench default
    std::string out;              ///< optional artifact path (bench-specific)
};

/// The shared bench flags, through the tools' flag layer (tools/cli.hpp):
/// a malformed or negative number is a diagnostic and exit 2.
/// `default_graphs` is the bench's --graphs when the flag is not given.
inline bench_options parse_options(int argc, char** argv,
                                   const char* bench_name,
                                   std::size_t default_graphs = 25)
{
    bench_options opt;
    opt.graphs = default_graphs;
    cli::tool cli(bench_name,
                  std::string(bench_name) +
                      " [--graphs N] [--seed S] [--csv]"
                      " [--ilp-time-limit SEC] [--max-size N]"
                      " [--out FILE]\n"
                      "Defaults are scaled for quick runs; use"
                      " --graphs 200 for the paper's corpus size.\n");
    cli.value("--graphs", opt.graphs);
    cli.value("--seed", opt.seed);
    cli.flag("--csv", opt.csv);
    cli.value("--ilp-time-limit", opt.ilp_time_limit);
    cli.value("--max-size", opt.max_size);
    cli.value("--out", opt.out);
    cli.parse(argc, argv);
    return opt;
}

/// Execution-environment fragment for every BENCH_*.json artifact:
/// `"hardware_concurrency":N,"multicore_valid":B` (no braces, ready to
/// splice into an object). multicore_valid says whether multi-job speedup
/// numbers from this run mean anything -- on a single-core container a
/// ~1x jobs-8 curve is the machine's fault, not a regression, and artifact
/// consumers must be able to tell the difference.
inline std::string env_json()
{
    const unsigned hardware = std::thread::hardware_concurrency();
    return "\"hardware_concurrency\":" + std::to_string(hardware) +
           ",\"multicore_valid\":" + (hardware >= 2 ? "true" : "false");
}

inline void emit(const table& t, const bench_options& opt)
{
    if (opt.csv) {
        t.print_csv(std::cout);
    } else {
        t.print(std::cout);
    }
}

} // namespace mwl::bench

#endif // MWL_BENCH_BENCH_COMMON_HPP
