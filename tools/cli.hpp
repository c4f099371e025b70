// The command-line layer every mwl tool (and bench) shares: a flag table,
// checked numerics, and the common conventions.
//
//  * Exit codes: 0 success; 1 the work itself failed (failed jobs, drift,
//    findings, counterexamples, runtime errors); 2 usage or input errors;
//    3 interrupted and drained (support/interrupt.hpp).
//  * A flag without its value, an unknown option, or a malformed or
//    out-of-range number is a usage error: "TOOL: <problem>" and the usage
//    text on stderr, exit 2. Numbers go through support/parse_num, so a
//    bad one reads "TOOL: bad value for --F: <parse_num message>".
//  * `--json -` writes the JSON document to stdout and moves the human
//    report to stderr, so the stream stays machine-readable.
//
// Usage:
//   cli::tool cli("mwl_batch", usage_text);
//   cli.value("--jobs", jobs);
//   cli.flag("--csv", csv);
//   cli.positional([&](const std::string& arg) { manifest = arg; });
//   cli.parse(argc, argv);

#ifndef MWL_TOOLS_CLI_HPP
#define MWL_TOOLS_CLI_HPP

#include "support/parse_num.hpp"

#include <climits>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace mwl::cli {

namespace detail {

template <typename T>
struct is_optional : std::false_type {};
template <typename T>
struct is_optional<std::optional<T>> : std::true_type {};

/// Store one flag value: strings verbatim, vectors collect repeats,
/// numbers (plain or std::optional) through parse_checked.
template <typename T>
void assign(T& target, const std::string& text)
{
    if constexpr (std::is_same_v<T, std::string>) {
        target = text;
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        target.push_back(text);
    } else if constexpr (is_optional<T>::value) {
        target = parse_checked<typename T::value_type>(text);
    } else {
        target = parse_checked<T>(text);
    }
}

} // namespace detail

class tool {
public:
    tool(std::string name, std::string usage);

    /// A flag without a value: sets `target`, or runs `on`.
    void flag(const std::string& name, bool& target);
    void flag(const std::string& name, std::function<void()> on);

    /// A flag with a value, stored into `target` (see detail::assign).
    template <typename T>
    void value(const std::string& name, T& target)
    {
        value(name, [&target](const std::string& text) {
            detail::assign(target, text);
        });
    }
    /// An int flag that must lie in [lo, hi].
    void value(const std::string& name, int& target, int lo,
               int hi = INT_MAX);
    /// A flag with a value, handed to `on`; an `mwl::error` it throws
    /// becomes "bad value for NAME: ...".
    void value(const std::string& name,
               std::function<void(const std::string&)> on);

    /// Arguments that are not options ("-" included). Without a handler
    /// they are rejected as unknown options.
    void positional(std::function<void(const std::string&)> on);

    /// Apply every argument; --help / -h print the usage and exit 0.
    void parse(int argc, char** argv);

    /// "NAME: message" and the usage on stderr, exit 2.
    [[noreturn]] void fail(const std::string& message) const;

    /// Write `json` plus a newline to `path` ("-" = stdout). A file write
    /// is noted as "json written to PATH" on `report`; false (after a
    /// "cannot write" diagnostic) if the file cannot be opened.
    [[nodiscard]] bool write_json(const std::string& path,
                                  const std::string& json,
                                  std::ostream& report) const;

private:
    struct option {
        std::string name;
        bool takes_value = false;
        std::function<void(const std::string&)> apply;
    };

    std::string name_;
    std::string usage_;
    std::vector<option> options_;
    std::function<void(const std::string&)> positional_;
};

/// Where the human-readable report goes: stderr when `--json -` hands
/// stdout to the JSON document, stdout otherwise.
[[nodiscard]] std::ostream& report_stream(const std::string& json_path);

/// An input path read whole, "-" meaning stdin.
class input {
public:
    explicit input(const std::string& path);
    /// False when the path could not be opened.
    [[nodiscard]] explicit operator bool() const { return opened_; }
    [[nodiscard]] const std::string& text() const { return text_; }

private:
    std::string text_;
    bool opened_ = false;
};

} // namespace mwl::cli

#endif // MWL_TOOLS_CLI_HPP
