// Fig. 5: execution time vs problem size for the heuristic and the ILP
// solution, at lambda = lambda_min (the regime *most favourable* to the
// ILP, as the paper stresses -- its variable count grows with lambda).
//
// Expected shape: the heuristic's time grows polynomially and stays orders
// of magnitude below the ILP's, whose time explodes with |O| ("between one
// and two orders of magnitude greater time" already at 10 operations).
//
// Default: 10 graphs/size, sizes 1..10.

#include "bench_common.hpp"
#include "core/dpalloc.hpp"
#include "ilp/formulation.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"

#include <iostream>
#include <vector>

int main(int argc, char** argv)
{
    using namespace mwl;
    // ILP-heavy bench: smaller quick-run default.
    bench::bench_options opt =
        bench::parse_options(argc, argv, "fig5_exec_time", 10);
    const std::size_t max_size = opt.max_size == 0 ? 10 : opt.max_size;

    const sonic_model model;
    table t("Fig. 5: mean execution time per graph at lambda = lambda_min");
    t.header({"|O|", "heuristic ms", "ILP ms", "ratio", "ILP solved"});

    for (std::size_t n = 1; n <= max_size; ++n) {
        const auto corpus = make_corpus(n, opt.graphs, model, opt.seed);
        std::vector<double> heur_ms;
        std::vector<double> ilp_ms;
        std::size_t solved = 0;
        for (const corpus_entry& e : corpus) {
            stopwatch heur_clock;
            const dpalloc_result heur =
                dpalloc(e.graph, model, e.lambda_min);
            heur_ms.push_back(heur_clock.milliseconds());
            static_cast<void>(heur);

            stopwatch ilp_clock;
            mip_options mopt;
            mopt.time_limit_seconds = opt.ilp_time_limit;
            const ilp_result best =
                solve_ilp(e.graph, model, e.lambda_min, mopt);
            ilp_ms.push_back(ilp_clock.milliseconds());
            solved += best.status == mip_status::optimal ? 1u : 0u;
        }
        const double h = mean(heur_ms);
        const double i = mean(ilp_ms);
        t.row({table::num(static_cast<int>(n)), table::num(h, 3),
               table::num(i, 2), table::num(h > 0.0 ? i / h : 0.0, 0) + "x",
               table::num(static_cast<int>(solved)) + "/" +
                   table::num(static_cast<int>(corpus.size()))});
    }
    bench::emit(t, opt);
    std::cout << "\n(paper: ILP takes one to two orders of magnitude longer"
                 " over 1..10 operations;\n ILP times here are lower bounds"
                 " wherever the time limit truncated the search)\n";
    return 0;
}
