#include "support/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mwl {

std::string json_quote(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string format_double(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

namespace {

const char* kind_name(json_value::kind kind)
{
    switch (kind) {
    case json_value::kind::null: return "null";
    case json_value::kind::boolean: return "a boolean";
    case json_value::kind::number: return "a number";
    case json_value::kind::string: return "a string";
    case json_value::kind::array: return "an array";
    case json_value::kind::object: return "an object";
    }
    return "?";
}

const json_value& typed_member(const json_value& obj, std::string_view key,
                               json_value::kind kind)
{
    const json_value& v = obj.at(key);
    if (v.what != kind) {
        throw json_error("key '" + std::string(key) + "' is not " +
                         kind_name(kind));
    }
    return v;
}

class reader {
public:
    explicit reader(std::string_view text) : text_(text) {}

    json_value document()
    {
        json_value v = value();
        skip_space();
        if (at_ != text_.size()) {
            fail("trailing characters after the top-level value");
        }
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& message) const
    {
        throw json_error("JSON, offset " + std::to_string(at_) + ": " +
                         message);
    }

    void skip_space()
    {
        while (at_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[at_]))) {
            ++at_;
        }
    }

    char peek()
    {
        skip_space();
        if (at_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[at_];
    }

    void expect(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++at_;
    }

    bool take_word(std::string_view word)
    {
        if (text_.substr(at_, word.size()) != word) {
            return false;
        }
        at_ += word.size();
        return true;
    }

    /// The four hex digits of a \u escape. The writers emit these only
    /// for control characters, so code points beyond ASCII are refused.
    char unicode_escape()
    {
        const std::string hex(text_.substr(at_, 4));
        const bool all_hex =
            hex.size() == 4 &&
            std::all_of(hex.begin(), hex.end(), [](char h) {
                return std::isxdigit(static_cast<unsigned char>(h)) != 0;
            });
        const unsigned long code =
            all_hex ? std::strtoul(hex.c_str(), nullptr, 16) : 0x80;
        if (code >= 0x80) {
            fail("unsupported \\u escape");
        }
        at_ += 4;
        return static_cast<char>(code);
    }

    std::string string_literal()
    {
        expect('"');
        std::string out;
        while (at_ < text_.size() && text_[at_] != '"') {
            const char c = text_[at_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (at_ >= text_.size()) {
                fail("unterminated escape");
            }
            switch (const char e = text_[at_++]) {
            case '"':
            case '\\':
            case '/': out += e; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': out += unicode_escape(); break;
            default: fail("unsupported escape sequence");
            }
        }
        if (at_ >= text_.size()) {
            fail("unterminated string");
        }
        ++at_; // closing quote
        return out;
    }

    double number()
    {
        std::size_t end = at_;
        while (end < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
                text_[end] == 'e' || text_[end] == 'E')) {
            ++end;
        }
        if (end == at_) {
            fail("expected a value");
        }
        const std::string token(text_.substr(at_, end - at_));
        char* stop = nullptr;
        errno = 0;
        // strtod, not stod: a subnormal sets ERANGE but is still the
        // correctly rounded value, and must read back bit-exactly.
        const double value = std::strtod(token.c_str(), &stop);
        if (stop != token.c_str() + token.size()) {
            fail("malformed number");
        }
        if (errno == ERANGE && std::isinf(value)) {
            fail("number out of range");
        }
        at_ = end;
        return value;
    }

    json_value value()
    {
        const char c = peek();
        json_value v;
        if (c == '{') {
            ++at_;
            v.what = json_value::kind::object;
            if (peek() == '}') {
                ++at_;
                return v;
            }
            while (true) {
                if (peek() != '"') {
                    fail("expected a member name");
                }
                std::string key = string_literal();
                expect(':');
                v.object.emplace_back(std::move(key), value());
                if (peek() == ',') {
                    ++at_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            ++at_;
            v.what = json_value::kind::array;
            if (peek() == ']') {
                ++at_;
                return v;
            }
            while (true) {
                v.array.push_back(value());
                if (peek() == ',') {
                    ++at_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.what = json_value::kind::string;
            v.string = string_literal();
            return v;
        }
        if (take_word("true")) {
            v.what = json_value::kind::boolean;
            v.boolean = true;
            return v;
        }
        if (take_word("false")) {
            v.what = json_value::kind::boolean;
            return v;
        }
        if (take_word("null")) {
            return v;
        }
        v.what = json_value::kind::number;
        v.number = number();
        return v;
    }

    std::string_view text_;
    std::size_t at_ = 0;
};

} // namespace

const json_value& json_value::at(std::string_view key) const
{
    if (what != kind::object) {
        throw json_error("expected an object around key '" +
                         std::string(key) + "'");
    }
    for (const auto& [name, value] : object) {
        if (name == key) {
            return value;
        }
    }
    throw json_error("missing key '" + std::string(key) + "'");
}

double json_value::number_at(std::string_view key) const
{
    return typed_member(*this, key, kind::number).number;
}

bool json_value::boolean_at(std::string_view key) const
{
    return typed_member(*this, key, kind::boolean).boolean;
}

const std::string& json_value::string_at(std::string_view key) const
{
    return typed_member(*this, key, kind::string).string;
}

const std::vector<json_value>& json_value::array_at(
    std::string_view key) const
{
    return typed_member(*this, key, kind::array).array;
}

json_value parse_json(std::string_view text)
{
    return reader(text).document();
}

} // namespace mwl
