// Declarative DSE campaign specs.
//
// A campaign is the cross product the multiple-wordlength literature
// sweeps around this paper's allocator (FpSynt's cost-in-the-loop search,
// linaii's largedse driver): named scenarios x a lambda-relaxation range
// x a hardware-model parameter grid x optional wordlength perturbations.
// The spec is a line grammar read by io/line_reader.hpp (diagnostics carry
// 1-based line numbers, like mwl_batch manifests):
//
//   # comment
//   scenario fir4 fir8 dct8      one or more lines; 'all' = whole registry
//   lambda slack=0..30 step=10   integer percent relaxations of lambda_min
//   model adder-latency=1,2 mul-bits-per-cycle=4,8
//   perturb count=2 flips=2 seed=2001
//   tune budget=1e-6,1e-5 min-frac=2 max-frac=24 seed=2001
//        max-steps=32 anneal=0
//
// A `tune` line turns the campaign into a wordlength-optimization sweep:
// instead of allocating each point's graph as-is, the runner searches
// per-operation fractional widths meeting the point's noise budget
// (src/wordlength/optimizer.hpp) and records the tuned allocation. The
// budget list adds an innermost loop to the grid; specs without a tune
// line expand and fingerprint exactly as before.
//
// `expand()` turns a spec into the campaign's *deterministic point list*:
// a fixed nested-loop order (scenario, variant, adder-latency, mul-bits,
// slack) in which every point has a stable index and a stable human-
// readable key. Everything downstream -- the result store, resume, the
// report -- is keyed on that list, and `points_fingerprint()` pins it so
// a checkpoint can refuse a spec it was not built from.

#ifndef MWL_CAMPAIGN_CAMPAIGN_SPEC_HPP
#define MWL_CAMPAIGN_CAMPAIGN_SPEC_HPP

#include "dfg/sequencing_graph.hpp"
#include "io/line_reader.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mwl {

/// A campaign or tune spec that does not parse; `what()` carries
/// "spec line N" (io/line_reader.hpp).
using spec_error = line_error;

struct campaign_spec {
    /// Scenario names in declaration order (validated against the
    /// registry at parse time; duplicates rejected).
    std::vector<std::string> scenarios;

    /// Lambda relaxation range over lambda_min, inclusive, in integer
    /// percent: slack_lo, slack_lo + slack_step, ..., <= slack_hi.
    int slack_lo = 0;
    int slack_hi = 30;
    int slack_step = 10;

    /// Hardware-model grid: every (adder_latency, mul_bits_per_cycle)
    /// combination instantiates one sonic_model.
    std::vector<int> adder_latencies{2};
    std::vector<int> mul_bits_per_cycle{8};

    /// Wordlength perturbations: per scenario, `perturb_count` extra
    /// variants on top of variant 0 (the unperturbed graph), each with
    /// `perturb_flips` operand widths bumped by +-1, deterministically
    /// derived from (perturb_seed, scenario name, variant index).
    std::size_t perturb_count = 0;
    int perturb_flips = 2;
    std::uint64_t perturb_seed = 2001;

    /// Wordlength tuning (the `tune` line): empty = a plain allocation
    /// campaign. Non-empty = every grid point is optimized once per
    /// budget, with these search knobs.
    std::vector<double> tune_budgets;
    int tune_min_frac = 2;
    int tune_max_frac = 24;
    std::uint64_t tune_seed = 2001;
    std::size_t tune_max_steps = 32;
    std::size_t tune_anneal = 0;

    friend bool operator==(const campaign_spec&,
                           const campaign_spec&) = default;

    /// Parse a spec. Throws `spec_error` with the offending 1-based line
    /// number on unknown keywords/keys, bad values, duplicate sections,
    /// unknown scenario names, or a spec naming no scenarios.
    [[nodiscard]] static campaign_spec parse(std::string_view text);
};

/// One point of the expanded grid.
struct campaign_point {
    std::size_t index = 0;    ///< position in the deterministic list
    std::string scenario;
    std::size_t variant = 0;  ///< 0 = unperturbed
    int adder_latency = 2;
    int mul_bits_per_cycle = 8;
    int slack_percent = 0;
    /// Set on points of a tuning campaign (`tune` line): the output-noise
    /// budget this point optimizes to.
    bool tuned = false;
    double budget = 0.0;

    /// Stable id, e.g. "fir8/v1/a2m8/s10" -- plus "/b1e-06" on tuned
    /// points; unique within a campaign.
    [[nodiscard]] std::string key() const;
};

/// The spec's deterministic point list (see the ordering contract above).
[[nodiscard]] std::vector<campaign_point> expand(const campaign_spec& spec);

/// Content fingerprint of a point list (and the store format it implies);
/// equal fingerprints mean a checkpoint and a spec describe the same
/// campaign, so resuming is sound.
[[nodiscard]] std::uint64_t points_fingerprint(
    const std::vector<campaign_point>& points);

/// The graph of (scenario, variant): variant 0 is the registry scenario
/// itself, variant v >= 1 perturbs `perturb_flips` operand widths by +-1
/// under the spec's seed. Deterministic; equal inputs give byte-identical
/// graphs.
[[nodiscard]] sequencing_graph make_variant_graph(const campaign_spec& spec,
                                                  const std::string& scenario,
                                                  std::size_t variant);

} // namespace mwl

#endif // MWL_CAMPAIGN_CAMPAIGN_SPEC_HPP
