// Design-space exploration: Pareto sweep + local search + RTL costing.
//
// The workflow a designer would actually run on a multiple-wordlength
// kernel: sweep the latency constraint to get the area/latency frontier
// (engine/pareto_sweep.hpp), polish each point with the validator-driven
// local search (improve/local_search.hpp), and price the winners at the
// register-transfer level including registers and muxes (rtl/netlist.hpp).
//
// Build & run:  ./build/examples/design_space

#include "core/validate.hpp"
#include "dfg/analysis.hpp"
#include "engine/pareto_sweep.hpp"
#include "improve/local_search.hpp"
#include "model/hardware_model.hpp"
#include "report/table.hpp"
#include "rtl/netlist.hpp"
#include "tgff/generator.hpp"

#include <iostream>

int main()
{
    using namespace mwl;

    // A 14-operation random kernel stands in for "your DSP block".
    rng random(0xD5921);
    tgff_options gopt;
    gopt.n_ops = 14;
    const sequencing_graph graph = generate_tgff(gopt, random);
    const sonic_model model;

    // The sweep prices its lambdas concurrently on the engine's pool; the
    // frontier is the same at any pool size.
    batch_engine engine;
    pareto_options popt;
    popt.max_slack = 0.6;
    const auto frontier = pareto_sweep(graph, model, popt, engine);

    table t("Design space of a 14-op kernel (areas in model units)");
    t.header({"lambda", "latency", "FU area", "after local search",
              "FU+reg+mux", "#FUs", "#regs"});
    for (const pareto_point& p : frontier) {
        const improve_result polished =
            improve_datapath(graph, model, p.path, p.lambda);
        require_valid(graph, model, polished.path, p.lambda);
        const rtl_netlist net = build_rtl(graph, model, polished.path);
        t.row({table::num(p.lambda), table::num(p.latency),
               table::num(p.area, 0),
               table::num(polished.path.total_area, 0),
               table::num(net.total_area(), 0),
               table::num(static_cast<int>(polished.path.instances.size())),
               table::num(static_cast<int>(net.registers.size()))});
    }
    t.print(std::cout);

    std::cout << "\nEach row is one non-dominated allocation; pick by the "
                 "latency budget\nand read off the full RTL cost.\n";
    return 0;
}
