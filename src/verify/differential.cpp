#include "verify/differential.hpp"

#include "baseline/descending.hpp"
#include "baseline/two_stage.hpp"
#include "core/dpalloc.hpp"
#include "ilp/formulation.hpp"
#include "rtl/rtl_interp.hpp"
#include "support/error.hpp"

#include <sstream>
#include <utility>

namespace mwl {
namespace {

std::int64_t random_operand(rng& random, int width)
{
    const std::int64_t lo = -(std::int64_t{1} << (width - 1));
    const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
    // A quarter of the draws hit the corners that flush out extension
    // bugs: the most negative value, the all-ones pattern, zero, and max.
    if (random.chance(0.25)) {
        switch (random.uniform_int(0, 3)) {
        case 0: return lo;
        case 1: return -1;
        case 2: return 0;
        default: return hi;
        }
    }
    return lo + static_cast<std::int64_t>(
                    random.uniform(0, static_cast<std::uint64_t>(hi - lo)));
}

std::string corpus_graph_name(const corpus_spec& spec, std::size_t index)
{
    return "tgff(ops=" + std::to_string(spec.n_ops) +
           ",seed=" + std::to_string(spec.seed) + ")#" +
           std::to_string(index);
}

} // namespace

std::string counterexample::to_string() const
{
    std::ostringstream os;
    os << "graph " << graph_name << ", allocator " << allocator
       << ", input " << input_index << ", stage " << stage;
    if (op.is_valid()) {
        os << ": op " << op;
        if (cycle >= 0) {
            os << " (capture cycle " << cycle << ")";
        }
        os << " expected " << expected << ", got " << actual;
    }
    if (!detail.empty()) {
        os << (op.is_valid() ? " -- " : ": ") << detail;
    }
    return os.str();
}

void verify_report::merge(verify_report other)
{
    graphs += other.graphs;
    allocations += other.allocations;
    input_vectors += other.input_vectors;
    value_checks += other.value_checks;
    for (counterexample& cx : other.counterexamples) {
        counterexamples.push_back(std::move(cx));
    }
}

sim_inputs random_signed_inputs(const sequencing_graph& graph, rng& random)
{
    sim_inputs in(graph.size());
    for (const op_id o : graph.all_ops()) {
        const std::size_t n_preds = graph.predecessors(o).size();
        for (int port = static_cast<int>(n_preds); port < 2; ++port) {
            in[o.value()].push_back(
                random_operand(random,
                               operand_width(graph.shape(o), port)));
        }
    }
    return in;
}

namespace {

/// The reference is allocator-independent; callers checking several
/// allocations over one input set evaluate it once and pass it down.
verify_report verify_against(const sequencing_graph& graph,
                             const std::string& graph_name,
                             const std::string& allocator,
                             const datapath& path,
                             const hardware_model& model,
                             const std::vector<sim_inputs>& inputs,
                             const std::vector<sim_result>& references,
                             const elaborate_options& elaborate_opts,
                             std::size_t max_counterexamples)
{
    verify_report report;
    report.allocations = 1;

    const auto blame = [&](std::size_t input_index, std::string stage,
                           op_id op, int cycle, std::int64_t expected,
                           std::int64_t actual, std::string detail = {}) {
        counterexample cx;
        cx.graph_name = graph_name;
        cx.allocator = allocator;
        cx.input_index = input_index;
        cx.stage = std::move(stage);
        cx.op = op;
        cx.cycle = cycle;
        cx.expected = expected;
        cx.actual = actual;
        cx.detail = std::move(detail);
        report.counterexamples.push_back(std::move(cx));
    };

    const rtl_netlist net = build_rtl(graph, model, path, {},
                                      elaborate_opts.legacy_output_recycling);
    const rtl_design design =
        elaborate(graph, path, net, "dut", elaborate_opts);

    // Static IR check first: a structurally broken design (e.g. a widening
    // zero-extension) is a finding even before any value diverges. Skipped
    // when a legacy bug was *requested*, where violations are the point
    // and the interesting question is whether values diverge too.
    if (!elaborate_opts.any()) {
        for (const finding& violation : validate_design(design)) {
            if (report.counterexamples.size() >= max_counterexamples) {
                return report;
            }
            blame(0, "validate", op_id::invalid(), -1, 0, 0,
                  violation.to_string());
        }
        if (!report.counterexamples.empty()) {
            return report;
        }
    }

    for (std::size_t k = 0; k < inputs.size(); ++k) {
        if (report.counterexamples.size() >= max_counterexamples) {
            break;
        }
        const sim_inputs& in = inputs[k];
        ++report.input_vectors;
        const sim_result& ref = references[k];

        bool diverged = false;
        try {
            const sim_result sim = simulate_datapath(graph, path, in);
            for (const op_id o : graph.all_ops()) {
                ++report.value_checks;
                if (sim.value_of_op[o.value()] != ref.value_of_op[o.value()]) {
                    blame(k, "datapath-sim", o, -1,
                          ref.value_of_op[o.value()],
                          sim.value_of_op[o.value()]);
                    diverged = true;
                    break;
                }
            }
        } catch (const error& e) {
            // Structural/timing violations are input-independent; one
            // report covers every vector, so stop instead of filling the
            // counterexample budget with duplicates.
            blame(k, "datapath-sim", op_id::invalid(), -1, 0, 0, e.what());
            break;
        }
        if (diverged) {
            continue;
        }

        const rtl_interp_result rtl = interpret(design, in);
        for (const op_id o : graph.all_ops()) {
            ++report.value_checks;
            if (rtl.value_of_op[o.value()] != ref.value_of_op[o.value()]) {
                blame(k, "rtl-interp", o,
                      rtl.capture_cycle_of_op[o.value()],
                      ref.value_of_op[o.value()],
                      rtl.value_of_op[o.value()]);
                diverged = true;
                break;
            }
        }
        if (diverged) {
            continue;
        }
        for (std::size_t j = 0; j < design.outputs.size(); ++j) {
            ++report.value_checks;
            const op_id o = design.outputs[j].op;
            if (rtl.outputs[j] != ref.value_of_op[o.value()]) {
                blame(k, "rtl-output", o, -1, ref.value_of_op[o.value()],
                      rtl.outputs[j]);
                break;
            }
        }
    }
    return report;
}

std::vector<sim_result> evaluate_references(
    const sequencing_graph& graph, const std::vector<sim_inputs>& inputs)
{
    std::vector<sim_result> references;
    references.reserve(inputs.size());
    for (const sim_inputs& in : inputs) {
        references.push_back(reference_evaluate(graph, in));
    }
    return references;
}

} // namespace

verify_report verify_datapath(const sequencing_graph& graph,
                              const std::string& graph_name,
                              const std::string& allocator,
                              const datapath& path,
                              const hardware_model& model,
                              const std::vector<sim_inputs>& inputs,
                              const elaborate_options& elaborate_opts,
                              std::size_t max_counterexamples)
{
    return verify_against(graph, graph_name, allocator, path, model, inputs,
                          evaluate_references(graph, inputs), elaborate_opts,
                          max_counterexamples);
}

verify_report verify_graph(const sequencing_graph& graph,
                           const std::string& graph_name,
                           const hardware_model& model, int lambda,
                           const verify_options& options)
{
    return verify_graph(graph, graph_name, model, lambda, options,
                        options.seed);
}

verify_report verify_graph(const sequencing_graph& graph,
                           const std::string& graph_name,
                           const hardware_model& model, int lambda,
                           const verify_options& options,
                           std::uint64_t input_seed)
{
    verify_report report;
    report.graphs = 1;
    if (graph.empty()) {
        return report;
    }
    // The simulator's int64 wrap contract holds for widths < 63; reject
    // wider operations (e.g. a mul32x32 from a hand-written .mwl) with a
    // diagnostic instead of letting wrap_to_width's assertion abort.
    for (const op_id o : graph.all_ops()) {
        require(result_width(graph.shape(o)) < 63,
                "graph " + graph_name + ": op " + std::to_string(o.value()) +
                    " (" + graph.shape(o).to_string() +
                    ") is too wide to simulate (result must be < 63 bits)");
    }

    rng random(input_seed);
    std::vector<sim_inputs> inputs;
    inputs.reserve(options.inputs_per_graph);
    for (std::size_t k = 0; k < options.inputs_per_graph; ++k) {
        inputs.push_back(random_signed_inputs(graph, random));
    }
    const std::vector<sim_result> references =
        evaluate_references(graph, inputs);

    const auto remaining = [&]() -> std::size_t {
        const std::size_t used = report.counterexamples.size();
        return used >= options.max_counterexamples
                   ? 0
                   : options.max_counterexamples - used;
    };
    const auto check = [&](const std::string& allocator,
                           const datapath& path) {
        report.merge(verify_against(graph, graph_name, allocator, path,
                                    model, inputs, references,
                                    options.elaborate, remaining()));
    };

    if (options.use_heuristic && remaining() > 0) {
        check("dpalloc", dpalloc(graph, model, lambda).path);
    }
    if (options.use_two_stage && remaining() > 0) {
        check("two_stage", two_stage_allocate(graph, model, lambda).path);
    }
    if (options.use_descending && remaining() > 0) {
        check("descending", descending_allocate(graph, model, lambda));
    }
    if (options.ilp_max_ops > 0 && graph.size() <= options.ilp_max_ops &&
        remaining() > 0) {
        const ilp_result ilp = solve_ilp(graph, model, lambda);
        if (ilp.status == mip_status::optimal ||
            ilp.status == mip_status::limit_feasible) {
            check("ilp", ilp.path);
        }
    }
    return report;
}

analysis_report static_verify_graph(const sequencing_graph& graph,
                                    const std::string& graph_name,
                                    const hardware_model& model, int lambda,
                                    const verify_options& options)
{
    analysis_report report;
    if (graph.empty()) {
        return report;
    }
    const auto check = [&](const std::string& allocator,
                           const datapath& path) {
        analysis_report one =
            analyze_allocation(graph, model, path, options.elaborate);
        for (finding& f : one.findings) {
            f.location = graph_name + "/" + allocator + ": " + f.location;
        }
        report.merge(std::move(one));
    };

    if (options.use_heuristic) {
        check("dpalloc", dpalloc(graph, model, lambda).path);
    }
    if (options.use_two_stage) {
        check("two_stage", two_stage_allocate(graph, model, lambda).path);
    }
    if (options.use_descending) {
        check("descending", descending_allocate(graph, model, lambda));
    }
    if (options.ilp_max_ops > 0 && graph.size() <= options.ilp_max_ops) {
        const ilp_result ilp = solve_ilp(graph, model, lambda);
        if (ilp.status == mip_status::optimal ||
            ilp.status == mip_status::limit_feasible) {
            check("ilp", ilp.path);
        }
    }
    return report;
}

analysis_report static_verify_corpus(const corpus_spec& spec,
                                     const hardware_model& model,
                                     const verify_options& options,
                                     thread_pool& pool)
{
    const std::vector<corpus_entry> corpus = make_corpus(spec, model);

    std::vector<analysis_report> slots(corpus.size());
    parallel_for(pool, corpus.size(), [&](std::size_t i) {
        const corpus_entry& e = corpus[i];
        slots[i] = static_verify_graph(
            e.graph, corpus_graph_name(spec, i), model,
            relaxed_lambda(e.lambda_min, options.slack), options);
    });

    analysis_report report;
    for (analysis_report& slot : slots) {
        report.merge(std::move(slot));
    }
    return report;
}

verify_report verify_corpus(const corpus_spec& spec,
                            const hardware_model& model,
                            const verify_options& options, thread_pool& pool)
{
    const std::vector<corpus_entry> corpus = make_corpus(spec, model);

    std::vector<verify_report> slots(corpus.size());
    parallel_for(pool, corpus.size(), [&](std::size_t i) {
        const corpus_entry& e = corpus[i];
        slots[i] = verify_graph(e.graph, corpus_graph_name(spec, i), model,
                                relaxed_lambda(e.lambda_min, options.slack),
                                options, verify_input_seed(options.seed, i));
    });

    verify_report report;
    for (verify_report& slot : slots) {
        report.merge(std::move(slot));
    }
    // The merged list can exceed the cap when graphs fail in parallel;
    // trim so callers see a bounded, deterministic prefix.
    if (report.counterexamples.size() > options.max_counterexamples) {
        report.counterexamples.resize(options.max_counterexamples);
    }
    return report;
}

} // namespace mwl
