// Plain-text sequencing-graph interchange format (.mwl).
//
//   # comment
//   op  <name> add <width>
//   op  <name> mul <width_a> <width_b>   # trailing comment
//   dep <producer-name> <consumer-name>
//
// A line grammar on io/line_reader: blank lines and `#` comments (whole
// line or trailing) are skipped, and a line with tokens beyond its fields
// is rejected. Names are unique identifiers (no whitespace, not starting
// with '#'). Widths lie in [1, op_shape::max_width]. Dependencies may only
// reference operations declared earlier in the file; cycles are rejected
// by the underlying graph. The parser reports malformed input with 1-based
// line numbers via `parse_error`.

#ifndef MWL_IO_GRAPH_IO_HPP
#define MWL_IO_GRAPH_IO_HPP

#include "dfg/sequencing_graph.hpp"
#include "support/error.hpp"

#include <cstdint>
#include <string>
#include <string_view>

namespace mwl {

/// Malformed .mwl input; `what()` reads "line N: ...".
class parse_error : public error {
public:
    using error::error;
};

/// Parse a graph from text. Throws `parse_error` on malformed input.
[[nodiscard]] sequencing_graph parse_graph_string(std::string_view text);

/// Serialise a graph; `parse_graph_string(write_graph(g))` reproduces `g`.
/// Unnamed operations are given stable names ("o<N>").
[[nodiscard]] std::string write_graph(const sequencing_graph& graph);

/// Stable content hash of the allocation-relevant structure: operation
/// shapes (in id order) and dependency edges (in stored predecessor
/// order). Equal fingerprints imply graphs the allocator cannot tell
/// apart, so the batch engine (src/engine/) may serve one's cached result
/// for the other. Operation *names* are deliberately excluded -- they
/// never reach the allocator -- so re-labelled copies of a graph dedup.
[[nodiscard]] std::uint64_t graph_fingerprint(const sequencing_graph& graph);

} // namespace mwl

#endif // MWL_IO_GRAPH_IO_HPP
