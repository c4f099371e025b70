// Graph/corpus manifests: the job lists mwl_batch, mwl_lint and mwl_client
// read, one parser for all three.
//
//   # comment
//   graph FILE [directive]...
//   corpus ops=N count=N [seed=S] [mul-fraction=F] [min-width=W]
//          [max-width=W] [directive]...
//
// with the directives
//
//   lambda=N     allocate at exactly N control steps
//   slack=PCT    allocate at ceil(lambda_min * (1 + PCT/100)), PCT >= 0
//   sweep=PCT    Pareto sweep over [lambda_min, the slack=PCT bound]
//   verify=N     differential verification on N >= 1 input vectors
//
// `sweep=` and `verify=` exclude each other. The parser checks every
// directive on every line; what a directive *does* is up to the tool
// (mwl_batch runs all four, mwl_lint ignores sweep=/verify=, mwl_client
// rejects them). A corpus line expands to `count` entries named
// "tgff(ops=N,seed=S)#i", i being the entry's index in the whole manifest,
// so identical corpus lines still give unique names. Errors throw
// `line_error` "manifest line N: ..." (io/line_reader.hpp), including a
// graph file that cannot be opened or parsed.

#ifndef MWL_IO_MANIFEST_HPP
#define MWL_IO_MANIFEST_HPP

#include "dfg/sequencing_graph.hpp"
#include "io/line_reader.hpp"
#include "report/table.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mwl {

/// The directives of one manifest line; unset = not given.
struct manifest_directives {
    std::optional<int> lambda;
    std::optional<double> slack;       ///< as a fraction (slack=25 -> 0.25)
    std::optional<double> sweep;       ///< as a fraction
    std::optional<std::size_t> verify; ///< input vectors per graph
};

/// One expanded manifest entry.
struct manifest_entry {
    std::string name; ///< the graph path, or "tgff(ops=N,seed=S)#i"
    sequencing_graph graph;
    manifest_directives what;
    std::size_t line = 0; ///< 1-based manifest line it came from
    /// Corpus entries: the line's corpus seed and the entry's position
    /// among the graphs that line generated.
    std::optional<std::uint64_t> corpus_seed;
    std::size_t corpus_index = 0;
};

/// Take `token` into `out` if it is a directive (lambda=, slack=, sweep=,
/// verify=); false for any other token. Throws `precondition_error` on a
/// bad value (parse_num wording, or "slack must be non-negative" etc.).
bool parse_directive(std::string_view token, manifest_directives& out);

/// Parse and expand a whole manifest (graph files are read relative to
/// the working directory).
[[nodiscard]] std::vector<manifest_entry> parse_manifest(
    std::string_view text);

/// One result row of a manifest run. mwl_batch and mwl_client both render
/// their results through the two functions below, so a served run and a
/// local batch run of one manifest compare byte for byte.
struct manifest_result {
    std::string entry;
    std::string kind; ///< "alloc", "sweep" or "verify"
    int lambda = 0;
    int latency = 0;
    double area = 0.0;
    std::string status;
};

/// `[{"entry":...,"kind":...,"lambda":N,"latency":N,"area":X,
/// "status":...},...]`, doubles in support/json's format_double.
[[nodiscard]] std::string results_json(
    const std::vector<manifest_result>& rows);

/// The aligned entry/kind/lambda/latency/area/status table.
[[nodiscard]] table results_table(const std::string& title,
                                  const std::vector<manifest_result>& rows);

} // namespace mwl

#endif // MWL_IO_MANIFEST_HPP
