#include "tgff/corpus.hpp"

#include "dfg/analysis.hpp"
#include "io/line_reader.hpp"
#include "support/error.hpp"
#include "support/parse_num.hpp"

#include <climits>
#include <cmath>
#include <cstdio>
#include <optional>

namespace mwl {

std::vector<corpus_entry> make_corpus(std::size_t n_ops, std::size_t count,
                                      const hardware_model& model,
                                      std::uint64_t base_seed,
                                      const tgff_options& prototype)
{
    tgff_options options = prototype;
    options.n_ops = n_ops;

    std::vector<corpus_entry> corpus;
    corpus.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        // Seed derivation keeps entries independent of `count`: asking for
        // more graphs later extends the corpus without changing a prefix.
        rng random(base_seed * 0x100000001b3ULL + n_ops * 0x9e3779b9ULL + i);
        corpus_entry entry{generate_tgff(options, random), 0};
        entry.lambda_min = min_latency(entry.graph, model);
        corpus.push_back(std::move(entry));
    }
    return corpus;
}

int relaxed_lambda(int lambda_min, double slack)
{
    require(slack >= 0.0, "slack must be non-negative");
    const double relaxed =
        std::ceil(static_cast<double>(lambda_min) * (1.0 + slack));
    if (relaxed > INT_MAX) {
        char text[32];
        std::snprintf(text, sizeof text, "%g", slack);
        throw precondition_error(
            std::string("relaxed lambda exceeds INT_MAX at slack ") + text);
    }
    return static_cast<int>(relaxed);
}

corpus_spec corpus_spec::parse(const std::vector<std::string_view>& tokens)
{
    corpus_spec spec;
    for (const std::string_view token : tokens) {
        const std::optional<key_value> kv = split_key_value(token);
        require(kv && !kv->key.empty() && !kv->value.empty(),
                "corpus spec tokens must look like key=value, got '" +
                    std::string(token) + "'");
        const std::string_view key = kv->key;
        const std::string_view value = kv->value;
        // parse_*_checked (support/parse_num.hpp): whole-token parses
        // only, negatives rejected where unsigned, range errors named --
        // so "ops=4x" and "count=-1" are diagnostics, not silent garbage.
        if (key == "ops") {
            spec.n_ops = parse_size_checked(value, token);
        } else if (key == "count") {
            spec.count = parse_size_checked(value, token);
        } else if (key == "seed") {
            spec.seed = parse_u64_checked(value, token);
        } else if (key == "mul-fraction") {
            spec.prototype.mul_fraction = parse_double_checked(value, token);
        } else if (key == "min-width") {
            spec.prototype.min_width = parse_int_checked(value, token);
        } else if (key == "max-width") {
            spec.prototype.max_width = parse_int_checked(value, token);
        } else {
            require(false, "unknown corpus spec key '" + std::string(key) +
                               "'");
        }
    }
    require(spec.n_ops >= 1, "corpus spec needs ops >= 1");
    require(spec.count >= 1, "corpus spec needs count >= 1");
    return spec;
}

std::vector<corpus_entry> make_corpus(const corpus_spec& spec,
                                      const hardware_model& model)
{
    return make_corpus(spec.n_ops, spec.count, model, spec.seed,
                       spec.prototype);
}

} // namespace mwl
