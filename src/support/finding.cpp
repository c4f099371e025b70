#include "support/finding.hpp"

#include "support/json.hpp"

#include <ostream>
#include <sstream>

namespace mwl {

const char* to_string(finding_severity severity)
{
    return severity == finding_severity::error ? "error" : "warning";
}

std::string finding::to_string() const
{
    std::string out;
    if (!location.empty()) {
        out += location;
        out += ": ";
    }
    out += message;
    out += " [";
    out += rule;
    out += ']';
    return out;
}

std::string finding::to_json() const
{
    return "{\"rule\":" + json_quote(rule) + ",\"severity\":\"" +
           mwl::to_string(severity) + "\",\"node\":" + json_quote(location) +
           ",\"bits\":[" + std::to_string(bit_lo) + "," +
           std::to_string(bit_hi) + "],\"message\":" + json_quote(message) +
           '}';
}

std::ostream& operator<<(std::ostream& os, const finding& f)
{
    return os << f.to_string();
}

finding make_finding(std::string rule, finding_severity severity,
                     std::string location, std::string message, int bit_lo,
                     int bit_hi)
{
    finding f;
    f.rule = std::move(rule);
    f.severity = severity;
    f.location = std::move(location);
    f.message = std::move(message);
    f.bit_lo = bit_lo;
    f.bit_hi = bit_hi;
    return f;
}

std::string format_findings(const std::vector<finding>& all)
{
    std::ostringstream os;
    for (const finding& f : all) {
        os << "\n  - " << f.to_string();
    }
    return os.str();
}

bool has_errors(const std::vector<finding>& all)
{
    for (const finding& f : all) {
        if (f.severity == finding_severity::error) {
            return true;
        }
    }
    return false;
}

} // namespace mwl
