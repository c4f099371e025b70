#include "campaign/campaign_spec.hpp"

#include "scenarios/scenarios.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

#include <algorithm>
#include <sstream>
#include <type_traits>
#include <unordered_set>

namespace mwl {

namespace {

/// `1,2,4` or `1e-6,1e-5`: distinct values > 0.
template <typename T>
std::vector<T> positive_list(const line_reader& line, const key_value& kv)
{
    std::vector<T> values;
    std::size_t pos = 0;
    while (pos <= kv.value.size()) {
        const std::size_t comma =
            std::min(kv.value.find(',', pos), kv.value.size());
        const std::string_view item = kv.value.substr(pos, comma - pos);
        const T value = line.number<T>(item, kv.token);
        if (!(value > 0)) {
            line.fail(std::string(kv.key) + (std::is_integral_v<T>
                                                 ? " values must be >= 1"
                                                 : " values must be positive"));
        }
        if (std::find(values.begin(), values.end(), value) != values.end()) {
            line.fail("duplicate " + std::string(kv.key) + " value '" +
                      std::string(item) + "'");
        }
        values.push_back(value);
        pos = comma + 1;
    }
    return values;
}

} // namespace

campaign_spec campaign_spec::parse(std::string_view text)
{
    campaign_spec spec;
    std::unordered_set<std::string> seen_scenarios;
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
                        if (seen_scenarios.insert(each).second) {
                            spec.scenarios.push_back(each);
                        }
                    }
                    continue;
                }
                if (std::find(known.begin(), known.end(), name) ==
                    known.end()) {
                    line.fail("unknown scenario '" + std::string(name) + "'");
                }
                if (!seen_scenarios.emplace(name).second) {
                    line.fail("duplicate scenario '" + std::string(name) +
                              "'");
                }
                spec.scenarios.emplace_back(name);
            }
        } else if (keyword == "lambda") {
            line.once();
            for (const key_value& kv : line.key_values()) {
                if (kv.key == "slack") {
                    // `lo..hi`, or a single value as the range lo..lo.
                    const std::size_t dots = kv.value.find("..");
                    spec.slack_lo =
                        line.number<int>(kv.value.substr(0, dots), kv.token);
                    spec.slack_hi =
                        dots == std::string::npos
                            ? spec.slack_lo
                            : line.number<int>(kv.value.substr(dots + 2),
                                               kv.token);
                } else if (kv.key == "step") {
                    spec.slack_step = line.number<int>(kv.value, kv.token);
                } else {
                    line.fail("unknown lambda key '" + std::string(kv.key) +
                              "'");
                }
            }
            if (spec.slack_lo < 0 || spec.slack_hi < spec.slack_lo) {
                line.fail("slack range must be 0 <= lo <= hi");
            }
            if (spec.slack_step < 1) {
                line.fail("step must be >= 1");
            }
        } else if (keyword == "model") {
            line.once();
            for (const key_value& kv : line.key_values()) {
                if (kv.key == "adder-latency") {
                    spec.adder_latencies = positive_list<int>(line, kv);
                } else if (kv.key == "mul-bits-per-cycle") {
                    spec.mul_bits_per_cycle = positive_list<int>(line, kv);
                } else {
                    line.fail("unknown model key '" + std::string(kv.key) +
                              "'");
                }
            }
        } else if (keyword == "perturb") {
            line.once();
            for (const key_value& kv : line.key_values()) {
                if (kv.key == "count") {
                    spec.perturb_count =
                        line.number<std::size_t>(kv.value, kv.token);
                } else if (kv.key == "flips") {
                    spec.perturb_flips = line.number<int>(kv.value, kv.token);
                    if (spec.perturb_flips < 1) {
                        line.fail("flips must be >= 1");
                    }
                } else if (kv.key == "seed") {
                    spec.perturb_seed =
                        line.number<std::uint64_t>(kv.value, kv.token);
                } else {
                    line.fail("unknown perturb key '" + std::string(kv.key) +
                              "'");
                }
            }
            if (spec.perturb_count < 1) {
                line.fail("perturb needs count=N (>= 1)");
            }
        } else if (keyword == "tune") {
            line.once();
            for (const key_value& kv : line.key_values()) {
                if (kv.key == "budget") {
                    spec.tune_budgets = positive_list<double>(line, kv);
                } else if (kv.key == "min-frac") {
                    spec.tune_min_frac = line.number<int>(kv.value, kv.token);
                } else if (kv.key == "max-frac") {
                    spec.tune_max_frac = line.number<int>(kv.value, kv.token);
                } else if (kv.key == "seed") {
                    spec.tune_seed =
                        line.number<std::uint64_t>(kv.value, kv.token);
                } else if (kv.key == "max-steps") {
                    spec.tune_max_steps =
                        line.number<std::size_t>(kv.value, kv.token);
                } else if (kv.key == "anneal") {
                    spec.tune_anneal =
                        line.number<std::size_t>(kv.value, kv.token);
                } else {
                    line.fail("unknown tune key '" + std::string(kv.key) + "'");
                }
            }
            if (spec.tune_budgets.empty()) {
                line.fail("tune needs budget=LIST");
            }
            if (spec.tune_min_frac < 0 ||
                spec.tune_max_frac < spec.tune_min_frac) {
                line.fail("tune frac range must be 0 <= min <= max");
            }
        } else {
            line.fail("unknown keyword '" + std::string(keyword) + "'");
        }
    }
    if (spec.scenarios.empty()) {
        throw spec_error("spec names no scenarios");
    }
    return spec;
}

std::string campaign_point::key() const
{
    std::string base = scenario + "/v" + std::to_string(variant) + "/a" +
                       std::to_string(adder_latency) + "m" +
                       std::to_string(mul_bits_per_cycle) + "/s" +
                       std::to_string(slack_percent);
    if (tuned) {
        // %g keeps 1e-06 stable and short; untuned campaigns keep the
        // historic key (and fingerprint) byte for byte.
        std::ostringstream b;
        b << budget;
        base += "/b" + b.str();
    }
    return base;
}

std::vector<campaign_point> expand(const campaign_spec& spec)
{
    std::vector<campaign_point> points;
    for (const std::string& scenario : spec.scenarios) {
        for (std::size_t v = 0; v <= spec.perturb_count; ++v) {
            for (const int adder : spec.adder_latencies) {
                for (const int bits : spec.mul_bits_per_cycle) {
                    for (int slack = spec.slack_lo; slack <= spec.slack_hi;
                         slack += spec.slack_step) {
                        campaign_point p;
                        p.index = points.size();
                        p.scenario = scenario;
                        p.variant = v;
                        p.adder_latency = adder;
                        p.mul_bits_per_cycle = bits;
                        p.slack_percent = slack;
                        if (spec.tune_budgets.empty()) {
                            points.push_back(std::move(p));
                            continue;
                        }
                        // Tuning campaigns add the budget as the
                        // innermost loop.
                        for (const double budget : spec.tune_budgets) {
                            campaign_point t = p;
                            t.index = points.size();
                            t.tuned = true;
                            t.budget = budget;
                            points.push_back(std::move(t));
                        }
                    }
                }
            }
        }
    }
    return points;
}

std::uint64_t points_fingerprint(const std::vector<campaign_point>& points)
{
    fnv1a_hasher h;
    h.mix(std::string_view("mwl-campaign-points-v1"));
    h.mix(static_cast<std::int64_t>(points.size()));
    for (const campaign_point& p : points) {
        h.mix(std::string_view(p.key()));
    }
    return h.digest();
}

sequencing_graph make_variant_graph(const campaign_spec& spec,
                                    const std::string& scenario,
                                    std::size_t variant)
{
    sequencing_graph base = make_scenario(scenario).graph;
    if (variant == 0) {
        return base;
    }
    fnv1a_hasher h;
    h.mix(static_cast<std::int64_t>(spec.perturb_seed));
    h.mix(std::string_view(scenario));
    h.mix(static_cast<std::int64_t>(variant));
    rng r(h.digest());

    // Collect the perturbed shapes first, then rebuild: the graph itself
    // is append-only, so a variant is a fresh graph with identical edges.
    std::vector<op_shape> shapes;
    shapes.reserve(base.size());
    for (const op_id id : base.all_ops()) {
        shapes.push_back(base.shape(id));
    }
    for (int flip = 0; flip < spec.perturb_flips && !shapes.empty();
         ++flip) {
        const std::size_t pick =
            r.uniform(0, static_cast<std::uint64_t>(shapes.size()) - 1);
        op_shape& s = shapes[pick];
        const int delta = r.chance(0.5) ? 1 : -1;
        if (s.kind() == op_kind::add) {
            // Keep widths in the range every model and the RTL layer
            // accept: at least 1 bit, and capped well below 64.
            const int w = std::clamp(s.width_a() + delta, 1, 48);
            s = op_shape::adder(w);
        } else {
            const bool first = r.chance(0.5);
            int a = s.width_a();
            int b = s.width_b();
            (first ? a : b) = std::clamp((first ? a : b) + delta, 1, 32);
            s = op_shape::multiplier(a, b);
        }
    }

    sequencing_graph out;
    for (const op_id id : base.all_ops()) {
        out.add_operation(shapes[id.value()], base.op(id).name);
    }
    for (const op_id id : base.all_ops()) {
        for (const op_id succ : base.successors(id)) {
            out.add_dependency(id, succ);
        }
    }
    return out;
}

} // namespace mwl
