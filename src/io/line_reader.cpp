#include "io/line_reader.hpp"

#include <utility>

namespace mwl {
namespace {

bool is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

/// The next token of `rest`, which is advanced past it; empty at the end.
std::string_view next_token(std::string_view& rest)
{
    std::size_t begin = 0;
    while (begin < rest.size() && is_space(rest[begin])) {
        ++begin;
    }
    std::size_t end = begin;
    while (end < rest.size() && !is_space(rest[end])) {
        ++end;
    }
    const std::string_view token = rest.substr(begin, end - begin);
    rest.remove_prefix(end);
    return token;
}

} // namespace

std::vector<std::string_view> split_tokens(std::string_view text)
{
    std::vector<std::string_view> tokens;
    for (std::string_view token = next_token(text); !token.empty();
         token = next_token(text)) {
        tokens.push_back(token);
    }
    return tokens;
}

std::optional<key_value> split_key_value(std::string_view token)
{
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
        return std::nullopt;
    }
    return key_value{token.substr(0, eq), token.substr(eq + 1), token};
}

line_reader::line_reader(std::string_view text, std::string kind)
    : rest_(text), kind_(std::move(kind))
{
}

bool line_reader::next()
{
    while (!rest_.empty()) {
        ++line_no_;
        const std::size_t newline = rest_.find('\n');
        std::string_view line = rest_.substr(0, newline);
        rest_.remove_prefix(newline == std::string_view::npos ? rest_.size()
                                                              : newline + 1);
        keyword_ = next_token(line);
        if (keyword_.empty() || keyword_.front() == '#') {
            continue;
        }
        tokens_.clear();
        for (std::string_view token = next_token(line);
             !token.empty() && token.front() != '#';
             token = next_token(line)) {
            tokens_.push_back(token);
        }
        return true;
    }
    return false;
}

void line_reader::fail(const std::string& message) const
{
    const std::string where = kind_.empty() ? "line " : kind_ + " line ";
    throw line_error(where + std::to_string(line_no_) + ": " + message);
}

void line_reader::once()
{
    if (!seen_once_.emplace(keyword_).second) {
        fail("duplicate " + std::string(keyword_) + " line");
    }
}

std::vector<key_value> line_reader::key_values() const
{
    std::vector<key_value> out;
    out.reserve(tokens_.size());
    for (const std::string_view token : tokens_) {
        const std::optional<key_value> kv = split_key_value(token);
        if (!kv || kv->key.empty() || kv->value.empty()) {
            fail("expected key=value, got '" + std::string(token) + "'");
        }
        out.push_back(*kv);
    }
    return out;
}

} // namespace mwl
