// The one tokenizer behind every text grammar in the repository:
//
//   * `.mwl` graphs (io/graph_io), through line_reader with an empty kind;
//   * graph/corpus manifests (io/manifest), kind "manifest";
//   * campaign and tune specs (campaign/campaign_spec,
//     wordlength/tune_spec), kind "spec";
//   * corpus specs (tgff/corpus), through split_key_value;
//   * MWL1 request and response headers (serve/protocol) and campaign
//     journal records (campaign/result_store), through split_tokens and
//     split_key_value -- one-line grammars that take no comments.
//
// A grammar line is a keyword followed by whitespace-separated tokens:
//
//   # comment
//   keyword token token key=value   # trailing comment
//
// Whitespace is the C-locale isspace set (space, \t, \n, \v, \f, \r), the
// set operator>> splits on, so CRLF line ends and tabs parse. Blank lines
// are skipped and a token starting with '#' comments out the rest of its
// line. Tokens are views into the caller's buffer, which must outlive
// them; the rest of a line from token i is therefore the buffer from
// `tokens[i].data()` on. Every diagnostic reads "<kind> line N: message"
// ("line N: message" for an empty kind) with N 1-based, thrown as
// `line_error`; numbers go through support/parse_num, so a malformed value
// fails its line with parse_num's wording.

#ifndef MWL_IO_LINE_READER_HPP
#define MWL_IO_LINE_READER_HPP

#include "support/error.hpp"
#include "support/parse_num.hpp"

#include <cstddef>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace mwl {

/// Input in a line grammar that does not parse; `what()` carries
/// "<kind> line N: ...".
class line_error : public error {
public:
    using error::error;
};

/// The whitespace-separated tokens of `text`, comments not stripped.
[[nodiscard]] std::vector<std::string_view> split_tokens(
    std::string_view text);

/// One `key=value` token, split at its first '='.
struct key_value {
    std::string_view key;
    std::string_view value;
    std::string_view token; ///< the whole token, for diagnostics
};

/// `token` split at its first '='; nullopt when it has none. Either side
/// may be empty.
[[nodiscard]] std::optional<key_value> split_key_value(
    std::string_view token);

class line_reader {
public:
    /// Read the lines of `text`, which must outlive the reader. `kind`
    /// names the grammar in diagnostics ("spec", "manifest"; empty for
    /// .mwl).
    line_reader(std::string_view text, std::string kind);

    /// Advance to the next line that has a keyword; false at end of input.
    [[nodiscard]] bool next();

    [[nodiscard]] std::size_t line_number() const { return line_no_; }
    [[nodiscard]] std::string_view keyword() const { return keyword_; }
    /// The tokens after the keyword, comments dropped.
    [[nodiscard]] const std::vector<std::string_view>& tokens() const
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
    [[nodiscard]] T number(std::string_view text,
                           std::string_view context = {}) const
    {
        try {
            return parse_checked<T>(text, context);
        } catch (const error& e) {
            fail(e.what());
        }
    }

private:
    std::string_view rest_;
    std::string kind_;
    std::size_t line_no_ = 0;
    std::string_view keyword_;
    std::vector<std::string_view> tokens_;
    std::set<std::string, std::less<>> seen_once_;
};

} // namespace mwl

#endif // MWL_IO_LINE_READER_HPP
