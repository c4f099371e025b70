#include "io/manifest.hpp"

#include "io/graph_io.hpp"
#include "model/hardware_model.hpp"
#include "support/atomic_write.hpp"
#include "support/json.hpp"
#include "tgff/corpus.hpp"

namespace mwl {

namespace {

void read_line(const line_reader& line, std::vector<manifest_entry>& out)
{
    const bool graph_line = line.keyword() == "graph";
    if (!graph_line && line.keyword() != "corpus") {
        line.fail("unknown keyword '" + std::string(line.keyword()) + "'");
    }
    manifest_directives what;
    std::vector<std::string_view> rest;
    for (const std::string_view token : line.tokens()) {
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
            line.fail("unknown graph token '" + std::string(rest[1]) + "'");
        }
        const std::string path(rest.front());
        std::string text;
        if (!read_file(path, text)) {
            line.fail("cannot open graph file " + path);
        }
        out.push_back({path, parse_graph_string(text), what,
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

bool parse_directive(std::string_view token, manifest_directives& out)
{
    const std::optional<key_value> kv = split_key_value(token);
    if (!kv) {
        return false;
    }
    if (kv->key == "lambda") {
        out.lambda = parse_int_checked(kv->value, token);
    } else if (kv->key == "slack") {
        out.slack = parse_double_checked(kv->value, token) / 100.0;
        require(*out.slack >= 0.0, "slack must be non-negative");
    } else if (kv->key == "sweep") {
        out.sweep = parse_double_checked(kv->value, token) / 100.0;
        require(*out.sweep >= 0.0, "sweep must be non-negative");
    } else if (kv->key == "verify") {
        out.verify = parse_size_checked(kv->value, token);
        require(*out.verify >= 1, "verify needs >= 1 input");
    } else {
        return false;
    }
    return true;
}

std::vector<manifest_entry> parse_manifest(std::string_view text)
{
    std::vector<manifest_entry> entries;
    line_reader line(text, "manifest");
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
