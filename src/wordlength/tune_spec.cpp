#include "wordlength/tune_spec.hpp"

#include "scenarios/scenarios.hpp"

#include <algorithm>
#include <unordered_set>

namespace mwl {

tune_spec tune_spec::parse(std::string_view text)
{
    tune_spec spec;
    std::unordered_set<std::string> seen_names;
    const std::vector<std::string> known = scenario_names();
    line_reader line(text, "spec");
    while (line.next()) {
        const std::string_view keyword = line.keyword();
        if (keyword == "scenario") {
            if (line.tokens().empty()) {
                line.fail("expected 'scenario NAME ...'");
            }
            for (const std::string_view name : line.tokens()) {
                if (name == "all") {
                    for (const std::string& each : known) {
                        if (seen_names.insert(each).second) {
                            spec.entries.push_back({each, {}});
                        }
                    }
                    continue;
                }
                if (std::find(known.begin(), known.end(), name) ==
                    known.end()) {
                    line.fail("unknown scenario '" + std::string(name) + "'");
                }
                if (!seen_names.emplace(name).second) {
                    line.fail("duplicate design '" + std::string(name) + "'");
                }
                spec.entries.push_back({std::string(name), {}});
            }
        } else if (keyword == "graph") {
            if (line.tokens().empty()) {
                line.fail("expected 'graph FILE ...'");
            }
            for (const std::string_view file : line.tokens()) {
                if (!seen_names.emplace(file).second) {
                    line.fail("duplicate design '" + std::string(file) + "'");
                }
                spec.entries.push_back({{}, std::string(file)});
            }
        } else if (keyword == "budget") {
            line.once();
            if (line.tokens().empty()) {
                line.fail("expected 'budget VALUE ...'");
            }
            for (const std::string_view token : line.tokens()) {
                const double value = line.number<double>(token);
                if (value <= 0.0) {
                    line.fail("budgets must be positive, got '" +
                              std::string(token) + "'");
                }
                if (std::find(spec.budgets.begin(), spec.budgets.end(),
                              value) != spec.budgets.end()) {
                    line.fail("duplicate budget '" + std::string(token) +
                              "'");
                }
                spec.budgets.push_back(value);
            }
        } else if (keyword == "frac") {
            line.once();
            for (const key_value& kv : line.key_values()) {
                if (kv.key == "min") {
                    spec.min_frac_bits = line.number<int>(kv.value, kv.token);
                } else if (kv.key == "max") {
                    spec.max_frac_bits = line.number<int>(kv.value, kv.token);
                } else {
                    line.fail("unknown frac key '" + std::string(kv.key) + "'");
                }
            }
            if (spec.min_frac_bits < 0 ||
                spec.max_frac_bits < spec.min_frac_bits) {
                line.fail("frac range must be 0 <= min <= max");
            }
        } else if (keyword == "search") {
            line.once();
            for (const key_value& kv : line.key_values()) {
                if (kv.key == "seed") {
                    spec.seed = line.number<std::uint64_t>(kv.value, kv.token);
                } else if (kv.key == "max-steps") {
                    spec.max_steps =
                        line.number<std::size_t>(kv.value, kv.token);
                } else if (kv.key == "anneal") {
                    spec.anneal_iterations =
                        line.number<std::size_t>(kv.value, kv.token);
                } else if (kv.key == "temp") {
                    spec.anneal_temp = line.number<double>(kv.value, kv.token);
                    if (spec.anneal_temp <= 0.0) {
                        line.fail("temp must be positive");
                    }
                } else {
                    line.fail("unknown search key '" + std::string(kv.key) +
                              "'");
                }
            }
        } else if (keyword == "gain") {
            line.once();
            for (const key_value& kv : line.key_values()) {
                if (kv.key == "model") {
                    if (kv.value == "unit") {
                        spec.gains = gain_model::unit;
                    } else if (kv.value == "attenuating") {
                        spec.gains = gain_model::attenuating;
                    } else {
                        line.fail("unknown gain model '" +
                                  std::string(kv.value) +
                                  "' (unit | attenuating)");
                    }
                } else if (kv.key == "base-frac") {
                    spec.base_frac_bits = line.number<int>(kv.value, kv.token);
                    if (spec.base_frac_bits < 0) {
                        line.fail("base-frac must be >= 0");
                    }
                } else if (kv.key == "cap") {
                    spec.width_cap = line.number<int>(kv.value, kv.token);
                    if (spec.width_cap < 4 || spec.width_cap > 48) {
                        line.fail("cap must be in [4, 48]");
                    }
                } else {
                    line.fail("unknown gain key '" + std::string(kv.key) + "'");
                }
            }
        } else if (keyword == "lambda") {
            line.once();
            for (const key_value& kv : line.key_values()) {
                if (kv.key != "slack") {
                    line.fail("unknown lambda key '" + std::string(kv.key) +
                              "'");
                }
                const double percent = line.number<double>(kv.value, kv.token);
                if (percent < 0.0) {
                    line.fail("slack must be non-negative");
                }
                spec.slack = percent / 100.0;
            }
        } else {
            line.fail("unknown keyword '" + std::string(keyword) + "'");
        }
    }
    if (spec.entries.empty()) {
        throw spec_error("spec names no designs");
    }
    if (spec.budgets.empty()) {
        throw spec_error("spec names no budgets");
    }
    return spec;
}

} // namespace mwl
