// mwl_alloc -- command-line datapath allocator.
//
// Reads a sequencing graph in the .mwl text format (src/io/graph_io.hpp),
// allocates a datapath with the chosen algorithm, and reports the result;
// optionally emits Graphviz DOT for the graph and structural Verilog for
// the allocated design.
//
// Usage:
//   mwl_alloc GRAPH.mwl [--lambda N | --slack PCT] [--algorithm NAME]
//             [--sweep] [--jobs N] [--verilog FILE] [--dot] [--rtl] [--csv]
//
//   --algorithm dpalloc (default) | two-stage | descending | ilp
//   --slack PCT  : lambda = ceil(lambda_min * (1 + PCT/100)); default 0
//   --sweep      : print the Pareto frontier up to --slack (default 100%)
//                  instead of one allocation
//   --jobs N     : worker threads for --sweep (default 1; the frontier is
//                  identical at every N)
//   --rtl        : also report register/mux inventory and extended area
//   echo 'op a mul 8 8' | mwl_alloc -   reads from stdin

#include "baseline/descending.hpp"
#include "cli.hpp"
#include "baseline/two_stage.hpp"
#include "core/dpalloc.hpp"
#include "core/validate.hpp"
#include "dfg/analysis.hpp"
#include "dfg/dot.hpp"
#include "engine/pareto_sweep.hpp"
#include "ilp/formulation.hpp"
#include "io/graph_io.hpp"
#include "model/hardware_model.hpp"
#include "report/table.hpp"
#include "rtl/netlist.hpp"
#include "rtl/verilog.hpp"
#include "tgff/corpus.hpp"

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

namespace {

const char* const usage_text =
    "usage: mwl_alloc GRAPH.mwl [options]\n"
    "  --lambda N          latency constraint in control steps\n"
    "  --slack PCT         lambda = ceil(lambda_min*(1+PCT/100)) "
    "[default 0]\n"
    "  --algorithm NAME    dpalloc | two-stage | descending | ilp "
    "[dpalloc]\n"
    "  --sweep             print the Pareto frontier up to --slack "
    "[default 100]\n"
    "  --jobs N            worker threads for --sweep [1]\n"
    "  --verilog FILE      write structural Verilog\n"
    "  --dot               print the graph in DOT form\n"
    "  --rtl               report registers/muxes and extended area\n"
    "  GRAPH.mwl of '-' reads the graph from stdin\n";

} // namespace

int main(int argc, char** argv)
{
    using namespace mwl;

    std::string graph_file;
    std::optional<int> lambda_arg;
    std::optional<double> slack_arg;
    std::string algorithm = "dpalloc";
    std::string verilog_file;
    bool want_dot = false;
    bool want_rtl = false;
    bool want_sweep = false;
    std::size_t sweep_jobs = 1;

    cli::tool cli("mwl_alloc", usage_text);
    cli.value("--lambda", lambda_arg);
    cli.value("--slack", slack_arg);
    cli.flag("--sweep", want_sweep);
    cli.value("--jobs", sweep_jobs);
    cli.value("--algorithm", algorithm);
    cli.value("--verilog", verilog_file);
    cli.flag("--dot", want_dot);
    cli.flag("--rtl", want_rtl);
    cli.positional([&](const std::string& arg) { graph_file = arg; });
    cli.parse(argc, argv);
    if (graph_file.empty()) {
        cli.fail("no graph given");
    }
    if (want_sweep &&
        (lambda_arg || algorithm != "dpalloc" || !verilog_file.empty() ||
         want_rtl)) {
        cli.fail("--sweep explores dpalloc over a lambda range; it cannot"
                 " be combined with --lambda, --algorithm, --verilog or"
                 " --rtl");
    }
    if (slack_arg) {
        *slack_arg /= 100.0;
    }

    try {
        const cli::input in(graph_file);
        if (!in) {
            std::cerr << "mwl_alloc: cannot open " << graph_file << '\n';
            return 1;
        }
        const sequencing_graph graph = parse_graph_string(in.text());

        const sonic_model model;
        const int lambda_min = min_latency(graph, model);

        if (want_sweep) {
            pareto_options sweep;
            sweep.max_slack = slack_arg.value_or(1.0);
            // Before any output, so an overflowing range is only an error.
            const int lambda_max = relaxed_lambda(lambda_min, sweep.max_slack);
            std::cout << "graph: " << graph.size() << " operations, "
                      << graph.edge_count() << " dependencies, sweeping"
                      << " lambda " << lambda_min << ".." << lambda_max
                      << '\n';
            if (want_dot) {
                std::cout << '\n' << to_dot(graph) << '\n';
            }
            batch_engine engine(batch_options{.jobs = sweep_jobs});
            const auto frontier = pareto_sweep(graph, model, sweep, engine);
            table t("Pareto frontier (slack " +
                    table::num(sweep.max_slack * 100.0, 0) + "%)");
            t.header({"lambda", "latency", "area", "instances"});
            for (const pareto_point& p : frontier) {
                require_valid(graph, model, p.path, p.lambda);
                t.row({table::num(p.lambda), table::num(p.latency),
                       table::num(p.area, 1),
                       table::num(static_cast<int>(p.path.instances.size()))});
            }
            std::cout << '\n';
            t.print(std::cout);
            return 0;
        }

        const int lambda = lambda_arg
                               ? *lambda_arg
                               : relaxed_lambda(lambda_min,
                                                slack_arg.value_or(0.0));
        std::cout << "graph: " << graph.size() << " operations, "
                  << graph.edge_count() << " dependencies, lambda_min "
                  << lambda_min << ", lambda " << lambda << '\n';
        if (want_dot) {
            std::cout << '\n' << to_dot(graph) << '\n';
        }

        datapath path;
        if (algorithm == "dpalloc") {
            const dpalloc_result r = dpalloc(graph, model, lambda);
            std::cout << "dpalloc: " << r.stats.iterations << " iterations, "
                      << r.stats.refinements << " refinements\n";
            path = r.path;
        } else if (algorithm == "two-stage") {
            const two_stage_result r =
                two_stage_allocate(graph, model, lambda);
            std::cout << "two-stage: optimal binding "
                      << (r.proven_optimal_binding ? "proven" : "capped")
                      << ", " << r.nodes << " B&B nodes\n";
            path = r.path;
        } else if (algorithm == "descending") {
            path = descending_allocate(graph, model, lambda);
        } else if (algorithm == "ilp") {
            const ilp_result r = solve_ilp(graph, model, lambda);
            std::cout << "ilp: " << r.n_variables << " vars, "
                      << r.n_constraints << " rows, " << r.nodes
                      << " B&B nodes, status "
                      << (r.status == mip_status::optimal ? "optimal"
                                                          : "limit")
                      << '\n';
            path = r.path;
        } else {
            std::cerr << "mwl_alloc: unknown algorithm '" << algorithm
                      << "'\n";
            return 2;
        }

        require_valid(graph, model, path, lambda);
        std::cout << '\n' << describe(path, graph);

        if (want_rtl || !verilog_file.empty()) {
            const rtl_netlist net = build_rtl(graph, model, path);
            if (want_rtl) {
                std::cout << "\nrtl: " << net.registers.size()
                          << " registers, " << net.muxes.size()
                          << " muxes\n";
                std::cout << "extended area: fu " << net.fu_area << " + reg "
                          << net.register_area << " + mux " << net.mux_area
                          << " = " << net.total_area() << '\n';
            }
            if (!verilog_file.empty()) {
                std::ofstream out(verilog_file);
                if (!out) {
                    std::cerr << "mwl_alloc: cannot write " << verilog_file
                              << '\n';
                    return 1;
                }
                out << to_verilog(graph, path, net, "mwl_datapath");
                std::cout << "verilog written to " << verilog_file << '\n';
            }
        }
        return 0;
    } catch (const parse_error& e) {
        std::cerr << "mwl_alloc: " << e.what() << '\n';
        return 2;
    } catch (const error& e) {
        std::cerr << "mwl_alloc: " << e.what() << '\n';
        return 1;
    }
}
