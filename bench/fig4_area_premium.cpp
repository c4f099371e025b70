// Fig. 4: area premium (%) of the heuristic over the optimal ILP solution
// [5], for small problem sizes at the minimum latency constraint
// (lambda = lambda_min), where the ILP is still tractable.
//
// Expected shape: 0% for trivial sizes, growing into the mid-teens by
// ~10 operations ("over the range of 1 to 10 operations, the relative
// increase in area ranges from 0% to 16%").
//
// Instances the MILP solver cannot finish within its node/time budget are
// excluded from the mean (column "solved" reports coverage).
//
// Default: 15 graphs/size, sizes 1..10. Paper corpus: --graphs 200.

#include "bench_common.hpp"
#include "core/dpalloc.hpp"
#include "core/validate.hpp"
#include "ilp/formulation.hpp"
#include "support/stats.hpp"
#include "tgff/corpus.hpp"

#include <iostream>
#include <vector>

int main(int argc, char** argv)
{
    using namespace mwl;
    // ILP-heavy bench: smaller quick-run default.
    bench::bench_options opt =
        bench::parse_options(argc, argv, "fig4_area_premium", 15);
    const std::size_t max_size = opt.max_size == 0 ? 10 : opt.max_size;

    const sonic_model model;
    table t("Fig. 4: mean area premium (%) of DPAlloc over the ILP optimum"
            " at lambda = lambda_min");
    t.header({"|O|", "premium %", "max %", "solved", "mean B&B nodes"});

    for (std::size_t n = 1; n <= max_size; ++n) {
        const auto corpus = make_corpus(n, opt.graphs, model, opt.seed);
        std::vector<double> premiums;
        std::vector<double> nodes;
        for (const corpus_entry& e : corpus) {
            mip_options mopt;
            mopt.time_limit_seconds = opt.ilp_time_limit;
            const ilp_result best =
                solve_ilp(e.graph, model, e.lambda_min, mopt);
            if (best.status != mip_status::optimal) {
                continue; // no optimality proof -> no premium claim
            }
            require_valid(e.graph, model, best.path, e.lambda_min);
            const dpalloc_result heur =
                dpalloc(e.graph, model, e.lambda_min);
            require_valid(e.graph, model, heur.path, e.lambda_min);
            premiums.push_back(
                (heur.path.total_area / best.path.total_area - 1.0) *
                100.0);
            nodes.push_back(static_cast<double>(best.nodes));
        }
        t.row({table::num(static_cast<int>(n)),
               table::num(mean(premiums), 1),
               table::num(max_of(premiums), 1),
               table::num(static_cast<int>(premiums.size())) + "/" +
                   table::num(static_cast<int>(corpus.size())),
               table::num(mean(nodes), 0)});
    }
    bench::emit(t, opt);
    std::cout << "\n(paper: premium ranges 0%..16% over 1..10 operations)\n";
    return 0;
}
