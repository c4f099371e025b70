// JSON text: the one string escaper, the one double formatter, and a small
// reader.
//
// Every JSON document in the repository (quality goldens, campaign reports,
// mwl_batch / mwl_client / mwl_tune / mwl_lint results, findings) is built
// by hand in a fixed key order, because each format's byte layout is part
// of its contract. The two value encodings that are easy to get subtly
// wrong live here, once:
//
//  * `json_quote` -- a string literal with '"', '\\' and every control
//    character escaped;
//  * `format_double` -- "%.17g", which round-trips every finite double
//    through strtod bit-exactly. Campaign journal records use it too, so a
//    result serialises to the same digits on disk and in a report. It is
//    printed by std::to_chars at precision 17 in general format, which
//    the standard defines as printf's "%.17g" (support_test pins the
//    two against each other), without printf's format parsing.
//
// `parse_json` reads back what those writers produce (objects, arrays,
// strings with any standard escape, numbers, booleans, null).

#ifndef MWL_SUPPORT_JSON_HPP
#define MWL_SUPPORT_JSON_HPP

#include "support/error.hpp"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mwl {

/// `text` as a JSON string literal, surrounding quotes included.
[[nodiscard]] std::string json_quote(std::string_view text);

/// "%.17g": the shortest fixed-precision form that round-trips exactly.
[[nodiscard]] std::string format_double(double value);

/// Append format_double(value) to `out` (no temporary string).
void append_double(std::string& out, double value);

/// Malformed JSON, or a document without the member/type a reader wants;
/// `what()` names the byte offset or the key.
class json_error : public error {
public:
    using error::error;
};

struct json_value {
    enum class kind { null, boolean, number, string, array, object };
    kind what = kind::null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<json_value> array;
    /// Members in document order (duplicates kept; lookups take the first).
    std::vector<std::pair<std::string, json_value>> object;

    /// Member `key` of an object. Throws `json_error` when this is not an
    /// object or has no such member.
    [[nodiscard]] const json_value& at(std::string_view key) const;

    /// Typed member access; throws `json_error` naming `key` on a
    /// missing member or a value of another kind.
    [[nodiscard]] double number_at(std::string_view key) const;
    [[nodiscard]] bool boolean_at(std::string_view key) const;
    [[nodiscard]] const std::string& string_at(std::string_view key) const;
    [[nodiscard]] const std::vector<json_value>& array_at(
        std::string_view key) const;
};

/// Parse one JSON document (surrounding whitespace allowed). Throws
/// `json_error` with the byte offset of the first problem.
[[nodiscard]] json_value parse_json(std::string_view text);

} // namespace mwl

#endif // MWL_SUPPORT_JSON_HPP
