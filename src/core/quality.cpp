#include "core/quality.hpp"

#include "baseline/descending.hpp"
#include "baseline/two_stage.hpp"
#include "core/dpalloc.hpp"
#include "dfg/analysis.hpp"
#include "ilp/formulation.hpp"
#include "rtl/netlist.hpp"
#include "support/json.hpp"
#include "tgff/corpus.hpp"

#include <cmath>
#include <sstream>
#include <utility>

namespace mwl {
namespace {

// ---------------------------------------------------------- JSON reading --

int int_of(const json_value& obj, const char* key)
{
    return static_cast<int>(obj.number_at(key));
}

std::size_t size_of(const json_value& obj, const char* key)
{
    const double v = obj.number_at(key);
    if (v < 0) {
        throw json_error(std::string("key '") + key +
                         "' must be non-negative");
    }
    return static_cast<std::size_t>(v);
}

// ------------------------------------------------------------- diffing ----

void push_drift(std::vector<metric_drift>& out, const quality_report& golden,
                const std::string& allocator, const char* metric,
                double expected, double actual, double allowed)
{
    if (std::abs(actual - expected) <= allowed) {
        return;
    }
    out.push_back(
        {golden.scenario, allocator, metric, expected, actual, allowed});
}

} // namespace

quality_metrics measure_quality(const sequencing_graph& graph,
                                const hardware_model& model,
                                const datapath& path, int lambda)
{
    quality_metrics m;
    m.lambda = lambda;
    m.latency = path.latency;
    m.fu_count = path.instances.size();
    m.fu_area = path.total_area;
    const rtl_netlist net = build_rtl(graph, model, path);
    m.register_count = net.registers.size();
    m.register_area = net.register_area;
    m.mux_count = net.muxes.size();
    m.mux_area = net.mux_area;
    m.ext_area = net.total_area();
    return m;
}

quality_report measure_quality_report(const sequencing_graph& graph,
                                      std::string name,
                                      const hardware_model& model,
                                      const quality_options& options)
{
    require(!graph.empty(), "cannot measure quality of an empty graph");
    quality_report report;
    report.scenario = std::move(name);
    report.ops = graph.size();
    report.edges = graph.edge_count();
    report.lambda_min = min_latency(graph, model);
    report.options = options;
    const int lambda = relaxed_lambda(report.lambda_min, options.slack);

    const auto record = [&](const char* allocator, const datapath& path) {
        report.allocators.push_back(
            {allocator, measure_quality(graph, model, path, lambda)});
    };
    if (options.use_dpalloc) {
        record("dpalloc", dpalloc(graph, model, lambda).path);
    }
    if (options.use_two_stage) {
        record("two_stage", two_stage_allocate(graph, model, lambda).path);
    }
    if (options.use_descending) {
        record("descending", descending_allocate(graph, model, lambda));
    }
    if (options.ilp_max_ops > 0 && graph.size() <= options.ilp_max_ops) {
        mip_options mip;
        mip.max_nodes = options.ilp_max_nodes;
        const ilp_result ilp = solve_ilp(graph, model, lambda, mip);
        // Only proven optima are locked in: the node cap is deterministic,
        // so whether this row exists is machine-independent, and an
        // unproven incumbent would be a meaningless golden.
        if (ilp.status == mip_status::optimal) {
            record("ilp", ilp.path);
        }
    }
    return report;
}

std::string to_json(const quality_report& report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"format_version\": " << quality_format_version << ",\n"
        << "  \"scenario\": " << json_quote(report.scenario) << ",\n"
        << "  \"ops\": " << report.ops << ",\n"
        << "  \"edges\": " << report.edges << ",\n"
        << "  \"lambda_min\": " << report.lambda_min << ",\n"
        << "  \"options\": {\"slack\": "
        << format_double(report.options.slack)
        << ", \"ilp_max_ops\": " << report.options.ilp_max_ops
        << ", \"ilp_max_nodes\": " << report.options.ilp_max_nodes
        << ", \"use_dpalloc\": "
        << (report.options.use_dpalloc ? "true" : "false")
        << ", \"use_two_stage\": "
        << (report.options.use_two_stage ? "true" : "false")
        << ", \"use_descending\": "
        << (report.options.use_descending ? "true" : "false") << "},\n"
        << "  \"allocators\": [";
    for (std::size_t i = 0; i < report.allocators.size(); ++i) {
        const allocator_quality& a = report.allocators[i];
        const quality_metrics& m = a.metrics;
        out << (i == 0 ? "" : ",") << "\n    {\"name\": "
            << json_quote(a.allocator) << ", \"lambda\": " << m.lambda
            << ", \"latency\": " << m.latency
            << ", \"fu_count\": " << m.fu_count
            << ", \"fu_area\": " << format_double(m.fu_area)
            << ", \"register_count\": " << m.register_count
            << ", \"register_area\": " << format_double(m.register_area)
            << ", \"mux_count\": " << m.mux_count
            << ", \"mux_area\": " << format_double(m.mux_area)
            << ", \"ext_area\": " << format_double(m.ext_area) << "}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

quality_report parse_quality_report(const std::string& text)
{
    try {
        const json_value root = parse_json(text);
        const int version = int_of(root, "format_version");
        if (version != quality_format_version) {
            throw quality_format_error(
                "golden format_version " + std::to_string(version) +
                " does not match this build's version " +
                std::to_string(quality_format_version) +
                " (refresh with mwl_scenarios --update-goldens)");
        }
        quality_report report;
        report.scenario = root.string_at("scenario");
        report.ops = size_of(root, "ops");
        report.edges = size_of(root, "edges");
        report.lambda_min = int_of(root, "lambda_min");
        const json_value& options = root.at("options");
        report.options.slack = options.number_at("slack");
        report.options.ilp_max_ops = size_of(options, "ilp_max_ops");
        report.options.ilp_max_nodes = size_of(options, "ilp_max_nodes");
        report.options.use_dpalloc = options.boolean_at("use_dpalloc");
        report.options.use_two_stage = options.boolean_at("use_two_stage");
        report.options.use_descending = options.boolean_at("use_descending");
        for (const json_value& entry : root.array_at("allocators")) {
            allocator_quality a;
            a.allocator = entry.string_at("name");
            a.metrics.lambda = int_of(entry, "lambda");
            a.metrics.latency = int_of(entry, "latency");
            a.metrics.fu_count = size_of(entry, "fu_count");
            a.metrics.fu_area = entry.number_at("fu_area");
            a.metrics.register_count = size_of(entry, "register_count");
            a.metrics.register_area = entry.number_at("register_area");
            a.metrics.mux_count = size_of(entry, "mux_count");
            a.metrics.mux_area = entry.number_at("mux_area");
            a.metrics.ext_area = entry.number_at("ext_area");
            report.allocators.push_back(std::move(a));
        }
        return report;
    } catch (const json_error& e) {
        throw quality_format_error(std::string("quality report ") +
                                   e.what());
    }
}

std::vector<metric_drift> diff_quality(const quality_report& golden,
                                       const quality_report& current,
                                       const drift_tolerances& tol)
{
    std::vector<metric_drift> out;
    const auto structural = [&](const char* metric, double expected,
                                double actual) {
        push_drift(out, golden, "-", metric, expected, actual, 0.0);
    };
    structural("ops", static_cast<double>(golden.ops),
               static_cast<double>(current.ops));
    structural("edges", static_cast<double>(golden.edges),
               static_cast<double>(current.edges));
    structural("lambda_min", golden.lambda_min, current.lambda_min);
    structural("options.slack", golden.options.slack, current.options.slack);
    structural("options.ilp_max_ops",
               static_cast<double>(golden.options.ilp_max_ops),
               static_cast<double>(current.options.ilp_max_ops));

    for (const allocator_quality& want : golden.allocators) {
        const allocator_quality* have = nullptr;
        for (const allocator_quality& a : current.allocators) {
            if (a.allocator == want.allocator) {
                have = &a;
                break;
            }
        }
        if (have == nullptr) {
            push_drift(out, golden, want.allocator, "present", 1.0, 0.0, 0.0);
            continue;
        }
        const quality_metrics& e = want.metrics;
        const quality_metrics& a = have->metrics;
        const auto area_tol = [&](double expected) {
            return tol.area_rel * std::max(1.0, std::abs(expected));
        };
        push_drift(out, golden, want.allocator, "lambda", e.lambda, a.lambda,
                   0.0);
        push_drift(out, golden, want.allocator, "latency", e.latency,
                   a.latency, tol.latency_abs);
        push_drift(out, golden, want.allocator, "fu_count",
                   static_cast<double>(e.fu_count),
                   static_cast<double>(a.fu_count), tol.count_abs);
        push_drift(out, golden, want.allocator, "fu_area", e.fu_area,
                   a.fu_area, area_tol(e.fu_area));
        push_drift(out, golden, want.allocator, "register_count",
                   static_cast<double>(e.register_count),
                   static_cast<double>(a.register_count), tol.count_abs);
        push_drift(out, golden, want.allocator, "register_area",
                   e.register_area, a.register_area,
                   area_tol(e.register_area));
        push_drift(out, golden, want.allocator, "mux_count",
                   static_cast<double>(e.mux_count),
                   static_cast<double>(a.mux_count), tol.count_abs);
        push_drift(out, golden, want.allocator, "mux_area", e.mux_area,
                   a.mux_area, area_tol(e.mux_area));
        push_drift(out, golden, want.allocator, "ext_area", e.ext_area,
                   a.ext_area, area_tol(e.ext_area));
    }
    for (const allocator_quality& a : current.allocators) {
        bool known = false;
        for (const allocator_quality& want : golden.allocators) {
            known = known || want.allocator == a.allocator;
        }
        if (!known) {
            push_drift(out, golden, a.allocator, "present", 0.0, 1.0, 0.0);
        }
    }
    return out;
}

table render_drift_table(std::span<const metric_drift> drifts)
{
    table t("allocation-quality drift (golden vs. current)");
    t.header({"scenario", "allocator", "metric", "golden", "current",
              "allowed", "delta"});
    for (const metric_drift& d : drifts) {
        t.row({d.scenario, d.allocator, d.metric, table::num(d.expected, 3),
               table::num(d.actual, 3), table::num(d.allowed, 3),
               table::num(d.actual - d.expected, 3)});
    }
    return t;
}

} // namespace mwl
