// Declarative specs for the mwl_tune wordlength-optimization driver.
//
// A tune spec names the designs to retune (registry scenarios and/or
// .mwl graph files), the output-noise budget sweep, and the search knobs.
// Same small line-based format as campaign specs (1-based line numbers in
// every diagnostic; parse failures throw `spec_error`):
//
//   # comment
//   scenario fir8 fir4            one or more lines; 'all' = registry
//   graph FILE ...                .mwl files, loaded by the tool
//   budget 1e-6 1e-5 1e-4         required; one or more positive values
//   frac min=2 max=24
//   search seed=2001 max-steps=64 anneal=0 temp=0.05
//   gain model=unit|attenuating base-frac=8 cap=32
//   lambda slack=25               percent over lambda_min, like the tools
//
// The optimizer then runs once per (entry x budget); the report orders
// points exactly as the spec lists them, so a spec is a reproducible
// experiment definition.

#ifndef MWL_WORDLENGTH_TUNE_SPEC_HPP
#define MWL_WORDLENGTH_TUNE_SPEC_HPP

#include "campaign/campaign_spec.hpp" // spec_error
#include "wordlength/tuned_graph.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mwl {

struct tune_spec {
    /// One design to retune: exactly one of the two names is set.
    struct entry {
        std::string scenario;   ///< registry name, or empty
        std::string graph_file; ///< .mwl path, or empty
        [[nodiscard]] const std::string& name() const
        {
            return scenario.empty() ? graph_file : scenario;
        }

        friend bool operator==(const entry&, const entry&) = default;
    };

    std::vector<entry> entries;
    std::vector<double> budgets; ///< in spec order; positive, no dups

    int min_frac_bits = 2;
    int max_frac_bits = 24;

    std::uint64_t seed = 2001;
    std::size_t max_steps = 64;
    std::size_t anneal_iterations = 0;
    double anneal_temp = 0.05;

    gain_model gains = gain_model::unit;
    int base_frac_bits = 8;
    int width_cap = 32;

    double slack = 0.25;

    friend bool operator==(const tune_spec&, const tune_spec&) = default;

    /// Parse a spec. Throws `spec_error` carrying the 1-based line number
    /// on unknown keywords/keys, bad or out-of-range values, duplicate
    /// sections, unknown scenario names, a spec naming no designs, or a
    /// spec naming no budgets.
    [[nodiscard]] static tune_spec parse(std::string_view text);
};

} // namespace mwl

#endif // MWL_WORDLENGTH_TUNE_SPEC_HPP
