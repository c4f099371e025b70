// Differential RTL verification harness.
//
// Closes the loop the ROADMAP asks for between allocator and RTL: for a
// graph (or a whole TGFF corpus) and random *signed* input vectors, every
// enabled allocator's datapath must satisfy
//
//     reference_evaluate == simulate_datapath == RTL interpretation
//
// op for op, plus primary-output readback from the shared register file.
// The reference is the bit-true fixed-point semantics (sim/simulator.hpp);
// the RTL side executes the same structural IR the Verilog printer emits
// (rtl/rtl_interp.hpp), so a divergence here is a value-incorrect module,
// not a modelling gap -- the FpSynt-style simulate-against-reference
// validation (arXiv:1307.8401) applied to every allocator we have. The
// first divergent (graph, allocator, input, op, cycle) tuple is reported
// as a counterexample; `verify_options::elaborate` can re-introduce the
// historical zero-extension bugs to prove the harness catches them.

#ifndef MWL_VERIFY_DIFFERENTIAL_HPP
#define MWL_VERIFY_DIFFERENTIAL_HPP

#include "analyze/analyze.hpp"
#include "model/hardware_model.hpp"
#include "rtl/elaborate.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tgff/corpus.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace mwl {

struct verify_options {
    /// Random signed input vectors evaluated per allocation.
    std::size_t inputs_per_graph = 8;
    /// Seeds the input-vector streams (graph structure comes from the
    /// corpus spec's own seed).
    std::uint64_t seed = 2001;
    /// Latency relaxation over lambda_min for corpus entries.
    double slack = 0.25;
    bool use_heuristic = true;   ///< DPAlloc (core/dpalloc.hpp)
    bool use_two_stage = true;   ///< baseline/two_stage.hpp
    bool use_descending = true;  ///< baseline/descending.hpp
    /// Include the ILP reference for graphs with at most this many
    /// operations (0 disables it; it is exponential by design).
    std::size_t ilp_max_ops = 0;
    /// Elaboration knobs; the legacy flags reproduce the historical
    /// zero-extension bugs so tests can assert the harness catches them.
    elaborate_options elaborate;
    /// Stop collecting after this many counterexamples.
    std::size_t max_counterexamples = 8;
};

/// One divergence, pinned to the first place it was observed.
struct counterexample {
    std::string graph_name;
    std::string allocator;
    std::size_t input_index = 0;
    /// "validate" (static IR violation), "datapath-sim", "rtl-interp",
    /// or "rtl-output".
    std::string stage;
    op_id op;
    int cycle = -1; ///< capture cycle of the divergent value, if known
    std::int64_t expected = 0;
    std::int64_t actual = 0;
    std::string detail; ///< free-form (validator text, simulator error)

    [[nodiscard]] std::string to_string() const;
};

struct verify_report {
    std::size_t graphs = 0;
    std::size_t allocations = 0;   ///< (graph, allocator) pairs checked
    std::size_t input_vectors = 0; ///< vectors evaluated across allocations
    std::size_t value_checks = 0;  ///< individual value comparisons
    std::vector<counterexample> counterexamples;

    [[nodiscard]] bool ok() const { return counterexamples.empty(); }
    void merge(verify_report other);
};

/// Input-vector seed for entry `index` of a corpus seeded with `seed`.
/// verify_corpus and mwl_batch's corpus verify= entries share this
/// derivation, so a generated graph's input stream depends only on
/// (seed, corpus index), independent of corpus size or pool width; the
/// front-ends also apply it per file to explicit graph lists, where the
/// index is front-end-local (reproduce those through the same tool).
[[nodiscard]] constexpr std::uint64_t verify_input_seed(std::uint64_t seed,
                                                        std::size_t index)
{
    return seed * 0x100000001b3ULL + 0x9e3779b9ULL * (index + 1);
}

/// Random external operands for every unfilled port: each drawn at the
/// operation's native operand width, mixing uniform signed values with
/// the extremes (min, max, -1, 0) that flush out extension bugs.
[[nodiscard]] sim_inputs random_signed_inputs(const sequencing_graph& graph,
                                              rng& random);

/// Check one allocated datapath against the reference on `inputs`.
[[nodiscard]] verify_report verify_datapath(
    const sequencing_graph& graph, const std::string& graph_name,
    const std::string& allocator, const datapath& path,
    const hardware_model& model, const std::vector<sim_inputs>& inputs,
    const elaborate_options& elaborate_opts = {},
    std::size_t max_counterexamples = 8);

/// Allocate `graph` with every enabled allocator and check each result.
/// `input_seed` fixes the input-vector stream (defaults to options.seed).
[[nodiscard]] verify_report verify_graph(const sequencing_graph& graph,
                                         const std::string& graph_name,
                                         const hardware_model& model,
                                         int lambda,
                                         const verify_options& options);
[[nodiscard]] verify_report verify_graph(const sequencing_graph& graph,
                                         const std::string& graph_name,
                                         const hardware_model& model,
                                         int lambda,
                                         const verify_options& options,
                                         std::uint64_t input_seed);

/// Differentially verify a whole generated corpus, one parallel_for index
/// per graph on `pool` (deterministic: reports are merged in corpus order,
/// and each graph's input stream depends only on options.seed and its
/// index).
[[nodiscard]] verify_report verify_corpus(const corpus_spec& spec,
                                          const hardware_model& model,
                                          const verify_options& options,
                                          thread_pool& pool);

/// Static counterpart of verify_graph: allocate with every enabled
/// allocator and run the value-range analyzer (analyze_allocation) on each
/// result -- no input vectors executed. Finding locations are prefixed
/// "graph/allocator: " so merged corpus reports stay attributable.
/// `options.inputs_per_graph` and `options.seed` are ignored.
[[nodiscard]] analysis_report static_verify_graph(
    const sequencing_graph& graph, const std::string& graph_name,
    const hardware_model& model, int lambda, const verify_options& options);

/// Statically verify a whole generated corpus (verify_corpus without the
/// simulations), one parallel_for index per graph on `pool`, merged in
/// corpus order.
[[nodiscard]] analysis_report static_verify_corpus(
    const corpus_spec& spec, const hardware_model& model,
    const verify_options& options, thread_pool& pool);

} // namespace mwl

#endif // MWL_VERIFY_DIFFERENTIAL_HPP
