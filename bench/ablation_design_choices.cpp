// Ablation bench for DPAlloc's design choices (DESIGN.md section 6):
//
//  * growth pass of BindSelect on/off (the paper's "compensation for the
//    greedy nature of the selections"),
//  * incomplete-wordlength constraint Eqn. 3' vs the classic per-type
//    constraint Eqn. 2 the paper argues is too relaxed.
//
// The paper's third ingredient, the cheapest-resource pass after covering,
// has no row: BindSelect's ratio rule already picks each clique's cheapest
// common resource, so the pass never moves a clique (DESIGN.md §2.3).
//
// Reports mean area relative to the full configuration (100% = default
// DPAlloc; higher = worse).

#include "bench_common.hpp"
#include "core/dpalloc.hpp"
#include "core/validate.hpp"
#include "support/stats.hpp"
#include "tgff/corpus.hpp"

#include <iostream>
#include <vector>

int main(int argc, char** argv)
{
    using namespace mwl;
    const bench::bench_options opt =
        bench::parse_options(argc, argv, "ablation_design_choices");

    struct arm {
        const char* name;
        dpalloc_options options;
    };
    const std::vector<arm> arms{
        {"full DPAlloc", {}},
        {"no growth pass",
         {.enable_growth = false}},
        {"classic Eqn. 2 constraint",
         {.classic_constraint = true}},
        {"all ablated",
         {.enable_growth = false, .classic_constraint = true}},
    };

    const sonic_model model;
    table t("Ablation: mean area relative to full DPAlloc (100 = default)");
    std::vector<std::string> head{"config"};
    struct point {
        std::size_t n;
        double slack;
    };
    const std::vector<point> points{{8, 0.1}, {8, 0.3}, {16, 0.1},
                                    {16, 0.3}};
    for (const point& p : points) {
        head.push_back("|O|=" + std::to_string(p.n) + " s" +
                       std::to_string(static_cast<int>(p.slack * 100)) +
                       "%");
    }
    t.header(head);

    // Reference areas for the full configuration.
    std::vector<std::vector<double>> reference(points.size());
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
        const auto corpus =
            make_corpus(points[pi].n, opt.graphs, model, opt.seed);
        for (const corpus_entry& e : corpus) {
            const int lambda =
                relaxed_lambda(e.lambda_min, points[pi].slack);
            reference[pi].push_back(
                dpalloc(e.graph, model, lambda).path.total_area);
        }
    }

    for (const arm& a : arms) {
        std::vector<std::string> row{a.name};
        for (std::size_t pi = 0; pi < points.size(); ++pi) {
            const auto corpus =
                make_corpus(points[pi].n, opt.graphs, model, opt.seed);
            std::vector<double> ratios;
            for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
                const corpus_entry& e = corpus[gi];
                const int lambda =
                    relaxed_lambda(e.lambda_min, points[pi].slack);
                const dpalloc_result r =
                    dpalloc(e.graph, model, lambda, a.options);
                require_valid(e.graph, model, r.path, lambda);
                ratios.push_back(r.path.total_area / reference[pi][gi] *
                                 100.0);
            }
            row.push_back(table::num(mean(ratios), 1));
        }
        t.row(std::move(row));
    }
    bench::emit(t, opt);
    return 0;
}
