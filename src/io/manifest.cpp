#include "io/manifest.hpp"

#include "io/graph_io.hpp"
#include "model/hardware_model.hpp"
#include "support/json.hpp"
#include "tgff/corpus.hpp"

#include <fstream>

namespace mwl {

namespace {

/// The value of `token` if it starts with `prefix`.
std::optional<std::string> value_of(const std::string& token,
                                    const std::string& prefix)
{
    if (token.rfind(prefix, 0) != 0) {
        return std::nullopt;
    }
    return token.substr(prefix.size());
}

void read_line(const line_reader& line, std::vector<manifest_entry>& out)
{
    const bool graph_line = line.keyword() == "graph";
    if (!graph_line && line.keyword() != "corpus") {
        line.fail("unknown keyword '" + line.keyword() + "'");
    }
    manifest_directives what;
    std::vector<std::string> rest;
    for (const std::string& token : line.tokens()) {
        if (!parse_directive(token, what)) {
            rest.push_back(token);
        }
    }
    require(!(what.sweep && what.verify),
            "sweep= and verify= are mutually exclusive");

    if (graph_line) {
        if (rest.empty()) {
            line.fail("expected 'graph FILE ...'");
        }
        if (rest.size() > 1) {
            line.fail("unknown graph token '" + rest[1] + "'");
        }
        std::ifstream in(rest.front());
        if (!in) {
            line.fail("cannot open graph file " + rest.front());
        }
        out.push_back({rest.front(), parse_graph(in), what,
                       line.line_number(), std::nullopt, 0});
        return;
    }
    const corpus_spec spec = corpus_spec::parse(rest);
    const sonic_model probe; // the tools recompute lambda_min per job
    std::size_t index = 0;
    for (corpus_entry& e : make_corpus(spec, probe)) {
        out.push_back({"tgff(ops=" + std::to_string(spec.n_ops) +
                           ",seed=" + std::to_string(spec.seed) + ")#" +
                           std::to_string(out.size()),
                       std::move(e.graph), what, line.line_number(),
                       spec.seed, index++});
    }
}

} // namespace

bool parse_directive(const std::string& token, manifest_directives& out)
{
    if (const auto v = value_of(token, "lambda=")) {
        out.lambda = parse_int_checked(*v, token);
    } else if (const auto v = value_of(token, "slack=")) {
        out.slack = parse_double_checked(*v, token) / 100.0;
        require(*out.slack >= 0.0, "slack must be non-negative");
    } else if (const auto v = value_of(token, "sweep=")) {
        out.sweep = parse_double_checked(*v, token) / 100.0;
        require(*out.sweep >= 0.0, "sweep must be non-negative");
    } else if (const auto v = value_of(token, "verify=")) {
        out.verify = parse_size_checked(*v, token);
        require(*out.verify >= 1, "verify needs >= 1 input");
    } else {
        return false;
    }
    return true;
}

std::vector<manifest_entry> parse_manifest(std::istream& in)
{
    std::vector<manifest_entry> entries;
    line_reader line(in, "manifest");
    while (line.next()) {
        try {
            read_line(line, entries);
        } catch (const line_error&) {
            throw;
        } catch (const error& e) {
            // Directive, corpus-spec and graph-parse errors carry the
            // manifest line number out through the same exception.
            line.fail(e.what());
        }
    }
    return entries;
}

std::string results_json(const std::vector<manifest_result>& rows)
{
    std::string out = "[";
    for (const manifest_result& r : rows) {
        if (out.size() > 1) {
            out += ',';
        }
        out += "{\"entry\":" + json_quote(r.entry) +
               ",\"kind\":" + json_quote(r.kind) +
               ",\"lambda\":" + std::to_string(r.lambda) +
               ",\"latency\":" + std::to_string(r.latency) +
               ",\"area\":" + format_double(r.area) +
               ",\"status\":" + json_quote(r.status) + "}";
    }
    return out + "]";
}

table results_table(const std::string& title,
                    const std::vector<manifest_result>& rows)
{
    table t(title);
    t.header({"entry", "kind", "lambda", "latency", "area", "status"});
    for (const manifest_result& r : rows) {
        t.row({r.entry, r.kind, table::num(r.lambda), table::num(r.latency),
               table::num(r.area, 1), r.status});
    }
    return t;
}

} // namespace mwl
