// Experiment corpora: the paper's evaluation protocol in one place.
//
// "We have generated 200 random sequencing graphs for each problem size |O|
// between 1 and 24 ... The minimum possible latency lambda_min was found for
// each graph, from which various latency constraints were created,
// corresponding to a 0% to 30% relaxation of lambda_min." (paper §3)

#ifndef MWL_TGFF_CORPUS_HPP
#define MWL_TGFF_CORPUS_HPP

#include "model/hardware_model.hpp"
#include "tgff/generator.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mwl {

/// One benchmark instance: a graph and its minimum achievable latency.
struct corpus_entry {
    sequencing_graph graph;
    int lambda_min = 0;
};

/// Deterministic corpus of `count` graphs with `n_ops` operations each.
/// `base_seed` tags the experiment; entry i of a given (n_ops, base_seed)
/// is identical across runs and platforms.
[[nodiscard]] std::vector<corpus_entry> make_corpus(
    std::size_t n_ops, std::size_t count, const hardware_model& model,
    std::uint64_t base_seed, const tgff_options& prototype = {});

/// Latency constraint for a given relaxation: ceil(lambda_min*(1+slack)).
/// slack = 0.0 reproduces the paper's lambda = lambda_min point. Throws
/// `precondition_error` on a negative slack or a result above INT_MAX.
[[nodiscard]] int relaxed_lambda(int lambda_min, double slack);

/// A `make_corpus` call as data, so tools can name a corpus in text form
/// (mwl_batch manifests: `corpus ops=12 count=64 seed=2001 ...`).
struct corpus_spec {
    std::size_t n_ops = 10;
    std::size_t count = 10;
    std::uint64_t seed = 2001;
    tgff_options prototype; ///< n_ops is overridden by the field above

    /// Parse whitespace-free `key=value` tokens: ops, count, seed,
    /// mul-fraction, min-width, max-width. Throws `precondition_error` on
    /// unknown keys or unparseable values.
    [[nodiscard]] static corpus_spec parse(
        const std::vector<std::string_view>& tokens);
};

/// The corpus a spec describes (same derivation as the base overload).
[[nodiscard]] std::vector<corpus_entry> make_corpus(
    const corpus_spec& spec, const hardware_model& model);

} // namespace mwl

#endif // MWL_TGFF_CORPUS_HPP
