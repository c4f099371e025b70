#include "io/graph_io.hpp"

#include "support/hash.hpp"

#include <map>
#include <sstream>

namespace mwl {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message)
{
    throw parse_error("line " + std::to_string(line) + ": " + message);
}

int parse_width(std::istringstream& in, std::size_t line,
                const char* what)
{
    int width = 0;
    if (!(in >> width)) {
        fail(line, std::string("expected ") + what);
    }
    if (width < 1) {
        fail(line, std::string(what) + " must be >= 1");
    }
    if (width > op_shape::max_width) {
        fail(line, std::string(what) + " must be <= " +
                       std::to_string(op_shape::max_width));
    }
    return width;
}

} // namespace

sequencing_graph parse_graph(std::istream& in)
{
    sequencing_graph graph;
    std::map<std::string, op_id> by_name;

    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        std::istringstream line(raw);
        std::string keyword;
        if (!(line >> keyword) || keyword.front() == '#') {
            continue; // blank or comment
        }
        if (keyword == "op") {
            std::string name;
            std::string kind;
            if (!(line >> name >> kind)) {
                fail(line_no, "expected 'op <name> <add|mul> ...'");
            }
            if (by_name.contains(name)) {
                fail(line_no, "duplicate operation name '" + name + "'");
            }
            op_shape shape = op_shape::adder(1);
            if (kind == "add") {
                shape = op_shape::adder(
                    parse_width(line, line_no, "adder width"));
            } else if (kind == "mul") {
                const int a =
                    parse_width(line, line_no, "multiplier width_a");
                const int b =
                    parse_width(line, line_no, "multiplier width_b");
                shape = op_shape::multiplier(a, b);
            } else {
                fail(line_no, "unknown operation kind '" + kind + "'");
            }
            std::string extra;
            if (line >> extra) {
                fail(line_no, "trailing tokens after operation");
            }
            by_name.emplace(name, graph.add_operation(shape, name));
        } else if (keyword == "dep") {
            std::string from;
            std::string to;
            if (!(line >> from >> to)) {
                fail(line_no, "expected 'dep <producer> <consumer>'");
            }
            const auto fi = by_name.find(from);
            const auto ti = by_name.find(to);
            if (fi == by_name.end()) {
                fail(line_no, "unknown operation '" + from + "'");
            }
            if (ti == by_name.end()) {
                fail(line_no, "unknown operation '" + to + "'");
            }
            try {
                graph.add_dependency(fi->second, ti->second);
            } catch (const precondition_error& e) {
                fail(line_no, e.what());
            }
        } else {
            fail(line_no, "unknown keyword '" + keyword + "'");
        }
    }
    return graph;
}

sequencing_graph parse_graph_string(const std::string& text)
{
    std::istringstream in(text);
    return parse_graph(in);
}

std::string write_graph(const sequencing_graph& graph)
{
    std::ostringstream out;
    const auto name_of = [&](op_id o) {
        const std::string& name = graph.op(o).name;
        if (!name.empty()) {
            return name;
        }
        std::string fallback = "o"; // split concat: gcc 12 -Wrestrict
        fallback += std::to_string(o.value());
        return fallback;
    };
    for (const op_id o : graph.all_ops()) {
        const op_shape& s = graph.shape(o);
        out << "op " << name_of(o) << ' ';
        if (s.kind() == op_kind::add) {
            out << "add " << s.width_a();
        } else {
            out << "mul " << s.width_a() << ' ' << s.width_b();
        }
        out << '\n';
    }
    for (const op_id o : graph.all_ops()) {
        for (const op_id t : graph.successors(o)) {
            out << "dep " << name_of(o) << ' ' << name_of(t) << '\n';
        }
    }
    return out.str();
}

std::uint64_t graph_fingerprint(const sequencing_graph& graph)
{
    // Predecessors are hashed in stored order, not sorted: equal
    // fingerprints then guarantee the allocator sees byte-identical
    // adjacency (any tie-break that scans edges behaves the same), which
    // is the property the engine's cache correctness rests on.
    fnv1a_hasher h;
    h.mix("mwl-graph-v1");
    h.mix(static_cast<std::int64_t>(graph.size()));
    for (const op_id o : graph.all_ops()) {
        const op_shape& s = graph.shape(o);
        h.mix(static_cast<std::int64_t>(s.kind()));
        h.mix(static_cast<std::int64_t>(s.width_a()));
        h.mix(static_cast<std::int64_t>(s.width_b()));
        const auto preds = graph.predecessors(o);
        h.mix(static_cast<std::int64_t>(preds.size()));
        for (const op_id p : preds) {
            h.mix(static_cast<std::int64_t>(p.value()));
        }
    }
    return h.digest();
}

} // namespace mwl
