#include "io/line_reader.hpp"

#include <istream>
#include <sstream>
#include <utility>

namespace mwl {

line_reader::line_reader(std::istream& in, std::string kind)
    : in_(in), kind_(std::move(kind))
{
}

bool line_reader::next()
{
    std::string raw;
    while (std::getline(in_, raw)) {
        ++line_no_;
        std::istringstream line(raw);
        tokens_.clear();
        std::string token;
        while (line >> token && token.front() != '#') {
            tokens_.push_back(token);
        }
        if (tokens_.empty()) {
            continue;
        }
        keyword_ = std::move(tokens_.front());
        tokens_.erase(tokens_.begin());
        return true;
    }
    return false;
}

void line_reader::fail(const std::string& message) const
{
    throw line_error(kind_ + " line " + std::to_string(line_no_) + ": " +
                     message);
}

void line_reader::once()
{
    if (!seen_once_.insert(keyword_).second) {
        fail("duplicate " + keyword_ + " line");
    }
}

std::vector<key_value> line_reader::key_values() const
{
    std::vector<key_value> out;
    out.reserve(tokens_.size());
    for (const std::string& token : tokens_) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
            fail("expected key=value, got '" + token + "'");
        }
        out.push_back({token.substr(0, eq), token.substr(eq + 1), token});
    }
    return out;
}

} // namespace mwl
