#include "campaign/report.hpp"

#include "support/json.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace mwl {

campaign_status status_of(const std::vector<campaign_point>& points,
                          const result_store& store)
{
    campaign_status status;
    status.total = points.size();
    for (const campaign_point& point : points) {
        ++status.per_scenario_total[point.scenario];
        if (!store.has(point.index)) {
            continue;
        }
        ++status.completed;
        ++status.per_scenario_completed[point.scenario];
        if (!store.results().at(point.index).ok()) {
            ++status.failed;
        }
    }
    return status;
}

table render_status(const campaign_status& status)
{
    table t("campaign status");
    t.header({"scenario", "completed", "total"});
    for (const auto& [scenario, total] : status.per_scenario_total) {
        const auto it = status.per_scenario_completed.find(scenario);
        const std::size_t done =
            it == status.per_scenario_completed.end() ? 0 : it->second;
        t.row({scenario, std::to_string(done), std::to_string(total)});
    }
    t.row({"(all)", std::to_string(status.completed),
           std::to_string(status.total)});
    return t;
}

std::map<std::string, std::vector<frontier_entry>>
merge_scenario_frontiers(const std::vector<campaign_point>& points,
                         const result_store& store)
{
    std::map<std::string, std::vector<frontier_entry>> frontiers;
    std::map<std::string, std::vector<frontier_entry>> candidates;
    for (const campaign_point& point : points) {
        frontiers.try_emplace(point.scenario); // every scenario appears
        const auto it = store.results().find(point.index);
        if (it == store.results().end() || !it->second.ok()) {
            continue;
        }
        candidates[point.scenario].push_back(
            {it->second.latency, it->second.area, it->second.key});
    }
    for (auto& [scenario, entries] : candidates) {
        std::sort(entries.begin(), entries.end(),
                  [](const frontier_entry& a, const frontier_entry& b) {
                      if (a.latency != b.latency) {
                          return a.latency < b.latency;
                      }
                      if (a.area != b.area) {
                          return a.area < b.area;
                      }
                      return a.key < b.key;
                  });
        std::vector<frontier_entry>& front = frontiers[scenario];
        for (frontier_entry& entry : entries) {
            if (front.empty() || entry.area < front.back().area) {
                front.push_back(std::move(entry));
            }
        }
    }
    return frontiers;
}

table render_frontiers(
    const std::map<std::string, std::vector<frontier_entry>>& frontiers)
{
    table t("merged Pareto frontiers (whole grid)");
    t.header({"scenario", "latency", "area", "achieved by"});
    for (const auto& [scenario, front] : frontiers) {
        if (front.empty()) {
            t.row({scenario, "-", "-", "(no successful points)"});
            continue;
        }
        for (const frontier_entry& entry : front) {
            t.row({scenario, table::num(entry.latency),
                   table::num(entry.area, 1), entry.key});
        }
    }
    return t;
}

std::string report_json(const std::vector<campaign_point>& points,
                        const result_store& store)
{
    std::ostringstream json;
    char fp[17];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, store.fingerprint());
    json << "{\"format_version\":" << store_format_version
         << ",\"fingerprint\":\"" << fp << "\",\"points\":" << points.size()
         << ",\"completed\":" << store.results().size() << ",\"results\":[";
    bool first = true;
    for (const auto& [index, result] : store.results()) {
        json << (first ? "" : ",") << "{\"index\":" << index
             << ",\"key\":" << json_quote(result.key)
             << ",\"lambda\":" << result.lambda;
        if (result.ok()) {
            json << ",\"latency\":" << result.latency
                 << ",\"area\":" << format_double(result.area)
                 << ",\"status\":\"ok\"}";
        } else {
            json << ",\"status\":\"error\",\"error\":"
                 << json_quote(result.error) << "}";
        }
        first = false;
    }
    json << "],\"frontiers\":{";
    first = true;
    for (const auto& [scenario, front] :
         merge_scenario_frontiers(points, store)) {
        json << (first ? "" : ",") << json_quote(scenario) << ":[";
        bool inner_first = true;
        for (const frontier_entry& entry : front) {
            json << (inner_first ? "" : ",") << "{\"latency\":"
                 << entry.latency << ",\"area\":"
                 << format_double(entry.area)
                 << ",\"key\":" << json_quote(entry.key) << "}";
            inner_first = false;
        }
        json << "]";
        first = false;
    }
    json << "}}";
    return json.str();
}

} // namespace mwl
