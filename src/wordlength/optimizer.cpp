#include "wordlength/optimizer.hpp"

#include "dfg/analysis.hpp"
#include "support/error.hpp"
#include "support/interrupt.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tgff/corpus.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mwl {

namespace {

/// One evaluated candidate: the assignment plus its real allocation.
struct candidate_eval {
    std::vector<int> frac;
    long long bits = 0;
    int lambda = 0;
    int latency = 0;
    double area = 0.0;
    bool ok = false;    ///< allocation succeeded
    bool reused = false; ///< answered from the cache or coalesced
};

/// Strict lexicographic "cheaper" on (area, total bits, latency). Area
/// compares exactly: dpalloc is deterministic, so equal designs produce
/// bit-equal doubles and an epsilon would only blur real ties.
bool cheaper(const candidate_eval& a, const candidate_eval& b)
{
    if (a.area != b.area) {
        return a.area < b.area;
    }
    if (a.bits != b.bits) {
        return a.bits < b.bits;
    }
    return a.latency < b.latency;
}

class search {
public:
    search(const tune_problem& problem, const hardware_model& model,
           const optimizer_options& options, batch_engine& engine)
        : problem_(problem), model_(model), options_(options),
          engine_(engine),
          gains_(output_gains(problem.graph, problem.coeff_gain))
    {
    }

    tune_result run()
    {
        const wordlength_assignment seed_assignment =
            assign_fractional_widths(problem_.graph, gains_,
                                     options_.noise); // throws if infeasible

        candidate_eval best = evaluate_one(seed_assignment.frac_bits);
        if (!best.ok) {
            throw error("wordlength optimizer: seed design failed to "
                        "allocate at slack " +
                        std::to_string(options_.slack));
        }
        best = descend(std::move(best));
        if (options_.anneal_iterations > 0 && !stats_.interrupted) {
            best = anneal(std::move(best));
        }

        tune_result result;
        result.best.frac_bits = best.frac;
        result.best.noise_power = noise_of(best.frac);
        result.best.total_frac = best.bits;
        result.best.lambda = best.lambda;
        result.best.latency = best.latency;
        result.best.area = best.area;
        result.stats = stats_;
        return result;
    }

private:
    double noise_of(const std::vector<int>& frac) const
    {
        double total = 0.0;
        for (std::size_t o = 0; o < frac.size(); ++o) {
            total += gains_[o] * truncation_noise_power(frac[o]);
        }
        return total;
    }

    /// Price one candidate: re-width it, derive its lambda, and run it
    /// through the engine. Pure in (problem, model, options, frac), and
    /// safe to call from several threads at once.
    candidate_eval evaluate(std::vector<int> frac) const
    {
        candidate_eval e;
        e.bits = total_frac_bits(frac);
        const sequencing_graph graph = apply_frac_bits(problem_, frac);
        e.lambda =
            relaxed_lambda(min_latency(graph, model_), options_.slack);
        const batch_engine::outcome out =
            engine_.run(graph, model_, e.lambda);
        e.reused = out.from_cache || out.coalesced;
        if (out.ok()) {
            e.ok = true;
            e.latency = out.result->path.latency;
            e.area = out.result->path.total_area;
        }
        e.frac = std::move(frac);
        return e;
    }

    /// Price a step's candidates concurrently: this thread and idle
    /// workers of the engine's pool share them (parallel_for), each
    /// writing only its own slot. The stats are summed here afterwards.
    std::vector<candidate_eval>
    evaluate_all(std::vector<std::vector<int>> candidates)
    {
        std::vector<candidate_eval> evals(candidates.size());
        parallel_for(engine_.pool(), candidates.size(), [&](std::size_t i) {
            evals[i] = evaluate(std::move(candidates[i]));
        });
        stats_.evaluations += evals.size();
        for (const candidate_eval& e : evals) {
            if (e.reused) {
                ++stats_.reused;
            }
        }
        return evals;
    }

    candidate_eval evaluate_one(std::vector<int> frac)
    {
        std::vector<std::vector<int>> one;
        one.push_back(std::move(frac));
        return std::move(evaluate_all(std::move(one)).front());
    }

    /// Greedy descent: per step, evaluate every noise-feasible +-1
    /// neighbour and take the strictly cheapest. (area, bits) strictly
    /// lex-decreases each accepted step, so no state repeats and the
    /// walk terminates without a tabu list.
    candidate_eval descend(candidate_eval current)
    {
        for (std::size_t step = 0; step < options_.max_steps; ++step) {
            if (interrupt_requested()) {
                stats_.interrupted = true;
                break;
            }
            std::vector<std::vector<int>> neighbours;
            for (std::size_t o = 0; o < current.frac.size(); ++o) {
                if (current.frac[o] > options_.noise.min_frac_bits) {
                    std::vector<int> down = current.frac;
                    --down[o];
                    if (noise_of(down) <= options_.noise.budget) {
                        neighbours.push_back(std::move(down));
                    }
                }
                if (current.frac[o] < options_.noise.max_frac_bits) {
                    // Widening only lowers noise; no budget check needed.
                    std::vector<int> up = current.frac;
                    ++up[o];
                    neighbours.push_back(std::move(up));
                }
            }
            if (neighbours.empty()) {
                break;
            }
            std::vector<candidate_eval> evals =
                evaluate_all(std::move(neighbours));
            candidate_eval* best = nullptr;
            for (candidate_eval& e : evals) {
                if (e.ok && cheaper(e, current) &&
                    (best == nullptr || cheaper(e, *best))) {
                    best = &e;
                }
            }
            if (best == nullptr) {
                break; // local optimum under the real cost
            }
            current = std::move(*best);
            ++stats_.steps;
        }
        return current;
    }

    /// Metropolis refinement around the greedy optimum. The scalar energy
    /// is area plus a small per-bit tie-break, mirroring the (area, bits)
    /// lexicographic objective: without it, equal-area moves (the datapath
    /// cost is coarsely quantised) would always be accepted and the walk
    /// would diffuse across the whole plateau instead of settling. The
    /// temperature cools geometrically to ~1e-4 of t0, so the late walk
    /// freezes near the optimum, re-proposes its small neighbourhood, and
    /// answers mostly from the engine's LRU. The best design visited is
    /// returned (never worse than the greedy input).
    candidate_eval anneal(candidate_eval best)
    {
        rng random(options_.seed);
        candidate_eval state = best;
        const double t0 =
            options_.anneal_temp * std::max(1.0, best.area);
        const auto energy = [](const candidate_eval& e) {
            return e.area + 0.1 * static_cast<double>(e.bits);
        };
        const std::size_t n = state.frac.size();
        for (std::size_t k = 0; k < options_.anneal_iterations; ++k) {
            if (interrupt_requested()) {
                stats_.interrupted = true;
                break;
            }
            const std::size_t o =
                random.uniform(0, static_cast<std::uint64_t>(n) - 1);
            const int delta = random.chance(0.5) ? 1 : -1;
            const int moved = state.frac[o] + delta;
            if (moved < options_.noise.min_frac_bits ||
                moved > options_.noise.max_frac_bits) {
                continue;
            }
            std::vector<int> frac = state.frac;
            frac[o] = moved;
            if (delta < 0 && noise_of(frac) > options_.noise.budget) {
                continue;
            }
            candidate_eval cand = evaluate_one(std::move(frac));
            if (!cand.ok) {
                continue;
            }
            const double temp =
                t0 * std::pow(1e-4,
                              static_cast<double>(k) /
                                  static_cast<double>(
                                      options_.anneal_iterations));
            const double d = energy(cand) - energy(state);
            bool accept = d < 0.0;
            if (!accept && temp > 0.0) {
                accept = random.uniform_real() < std::exp(-d / temp);
            }
            if (!accept) {
                continue;
            }
            ++stats_.anneal_accepted;
            state = std::move(cand);
            if (cheaper(state, best)) {
                best = state;
            }
        }
        return best;
    }

    const tune_problem& problem_;
    const hardware_model& model_;
    const optimizer_options& options_;
    batch_engine& engine_;
    std::vector<double> gains_;
    tune_stats stats_;
};

} // namespace

tune_result optimize_wordlengths(const tune_problem& problem,
                                 const hardware_model& model,
                                 const optimizer_options& options,
                                 batch_engine& engine)
{
    require(options.slack >= 0.0, "optimizer slack must be non-negative");
    require(options.anneal_temp > 0.0,
            "optimizer anneal_temp must be positive");
    return search(problem, model, options, engine).run();
}

} // namespace mwl
