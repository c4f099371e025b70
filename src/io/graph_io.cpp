#include "io/graph_io.hpp"

#include "io/line_reader.hpp"
#include "support/hash.hpp"

#include <functional>
#include <map>
#include <sstream>

namespace mwl {

sequencing_graph parse_graph_string(std::string_view text)
{
    sequencing_graph graph;
    std::map<std::string, op_id, std::less<>> by_name;
    line_reader line(text, "");
    const auto width = [&](std::size_t i, const char* what) {
        if (i >= line.tokens().size()) {
            line.fail(std::string("expected ") + what);
        }
        const int value = line.number<int>(line.tokens()[i]);
        if (value < 1) {
            line.fail(std::string(what) + " must be >= 1");
        }
        if (value > op_shape::max_width) {
            line.fail(std::string(what) + " must be <= " +
                      std::to_string(op_shape::max_width));
        }
        return value;
    };
    const auto op_named = [&](std::string_view name) {
        const auto it = by_name.find(name);
        if (it == by_name.end()) {
            line.fail("unknown operation '" + std::string(name) + "'");
        }
        return it->second;
    };
    try {
        while (line.next()) {
            const std::vector<std::string_view>& tokens = line.tokens();
            if (line.keyword() == "op") {
                if (tokens.size() < 2) {
                    line.fail("expected 'op <name> <add|mul> ...'");
                }
                const std::string_view name = tokens[0];
                if (by_name.contains(name)) {
                    line.fail("duplicate operation name '" +
                              std::string(name) + "'");
                }
                op_shape shape = op_shape::adder(1);
                std::size_t fields = 3;
                if (tokens[1] == "add") {
                    shape = op_shape::adder(width(2, "adder width"));
                } else if (tokens[1] == "mul") {
                    const int a = width(2, "multiplier width_a");
                    const int b = width(3, "multiplier width_b");
                    shape = op_shape::multiplier(a, b);
                    fields = 4;
                } else {
                    line.fail("unknown operation kind '" +
                              std::string(tokens[1]) + "'");
                }
                if (tokens.size() > fields) {
                    line.fail("trailing tokens after operation");
                }
                by_name.emplace(
                    name, graph.add_operation(shape, std::string(name)));
            } else if (line.keyword() == "dep") {
                if (tokens.size() < 2) {
                    line.fail("expected 'dep <producer> <consumer>'");
                }
                const op_id from = op_named(tokens[0]);
                const op_id to = op_named(tokens[1]);
                if (tokens.size() > 2) {
                    line.fail("trailing tokens after dependency");
                }
                try {
                    graph.add_dependency(from, to);
                } catch (const precondition_error& e) {
                    line.fail(e.what());
                }
            } else {
                line.fail("unknown keyword '" + std::string(line.keyword()) +
                          "'");
            }
        }
    } catch (const line_error& e) {
        // .mwl keeps its own error type: tools map a graph's parse_error
        // and a manifest's or spec's line_error to different exit codes.
        throw parse_error(e.what());
    }
    return graph;
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
