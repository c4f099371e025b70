// Line-grammar reader: the scaffolding shared by every line-oriented text
// format in the repository -- campaign specs, tune specs and graph/corpus
// manifests.
//
// A grammar line is a keyword followed by whitespace-separated tokens:
//
//   # comment
//   keyword token token key=value   # trailing comment
//
// Blank lines are skipped and a token starting with '#' comments out the
// rest of its line. Every diagnostic reads "<kind> line N: message" with
// N 1-based, thrown as `line_error`; numbers go through support/parse_num,
// so a malformed value fails its line with parse_num's wording.

#ifndef MWL_IO_LINE_READER_HPP
#define MWL_IO_LINE_READER_HPP

#include "support/error.hpp"
#include "support/parse_num.hpp"

#include <cstddef>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

namespace mwl {

/// Input in a line grammar that does not parse; `what()` carries
/// "<kind> line N: ...".
class line_error : public error {
public:
    using error::error;
};

/// One `key=value` token, split at its first '='.
struct key_value {
    std::string key;
    std::string value;
    std::string token; ///< the whole token, for diagnostics
};

class line_reader {
public:
    /// `kind` names the grammar in diagnostics ("spec", "manifest").
    line_reader(std::istream& in, std::string kind);

    /// Advance to the next line that has a keyword; false at end of input.
    [[nodiscard]] bool next();

    [[nodiscard]] std::size_t line_number() const { return line_no_; }
    [[nodiscard]] const std::string& keyword() const { return keyword_; }
    /// The tokens after the keyword, comments dropped.
    [[nodiscard]] const std::vector<std::string>& tokens() const
    {
        return tokens_;
    }

    /// Throw `line_error` "<kind> line N: message" for the current line.
    [[noreturn]] void fail(const std::string& message) const;

    /// Fail "duplicate <keyword> line" if an earlier line already had this
    /// keyword.
    void once();

    /// Every token as key=value (both sides non-empty); fails
    /// "expected key=value, got 'T'" on the first token that is not.
    [[nodiscard]] std::vector<key_value> key_values() const;

    /// `text` through parse_checked<T>; a bad value fails the line with
    /// parse_num's message (`context` as there, e.g. the whole token).
    template <typename T>
    [[nodiscard]] T number(const std::string& text,
                           const std::string& context = {}) const
    {
        try {
            return parse_checked<T>(text, context);
        } catch (const error& e) {
            fail(e.what());
        }
    }

private:
    std::istream& in_;
    std::string kind_;
    std::size_t line_no_ = 0;
    std::string keyword_;
    std::vector<std::string> tokens_;
    std::set<std::string> seen_once_;
};

} // namespace mwl

#endif // MWL_IO_LINE_READER_HPP
