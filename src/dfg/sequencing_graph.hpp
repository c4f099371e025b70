// Sequencing graph P(O, S).
//
// The paper's input model (after De Micheli [7]): a DAG whose vertices are
// fixed-point operations with a-priori wordlengths, and whose directed edges
// are data dependencies ("o1 must complete before o2 starts"). The graph is
// append-only: operations and dependencies can be added, never removed,
// which keeps op_ids stable (they are dense indices 0..size()-1).

#ifndef MWL_DFG_SEQUENCING_GRAPH_HPP
#define MWL_DFG_SEQUENCING_GRAPH_HPP

#include "model/op_shape.hpp"
#include "support/ids.hpp"

#include <span>
#include <string>
#include <vector>

namespace mwl {

/// One vertex of the sequencing graph.
struct operation {
    op_shape shape;
    std::string name; ///< optional, for diagnostics and DOT dumps
};

class sequencing_graph {
public:
    /// Append an operation; returns its dense id.
    op_id add_operation(op_shape shape, std::string name = {});

    /// Add the data dependency "from completes before to starts".
    /// Duplicate edges are ignored. Throws `precondition_error` on invalid
    /// ids, self-loops, or an edge that would create a cycle.
    void add_dependency(op_id from, op_id to);

    [[nodiscard]] std::size_t size() const { return ops_.size(); }
    [[nodiscard]] bool empty() const { return ops_.empty(); }

    [[nodiscard]] const operation& op(op_id id) const;
    [[nodiscard]] const op_shape& shape(op_id id) const { return op(id).shape; }

    [[nodiscard]] std::span<const op_id> predecessors(op_id id) const;
    [[nodiscard]] std::span<const op_id> successors(op_id id) const;

    [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

    /// All operation ids, dense ascending (0, 1, ..., size()-1).
    [[nodiscard]] std::vector<op_id> all_ops() const;

    /// A topological order of all operations. The graph is maintained
    /// acyclic by construction, so this always succeeds.
    [[nodiscard]] std::vector<op_id> topological_order() const;

    /// True iff `to` is reachable from `from` through dependency edges.
    [[nodiscard]] bool reaches(op_id from, op_id to) const;

private:
    void check_id(op_id id) const;

    std::vector<operation> ops_;
    std::vector<std::vector<op_id>> preds_;
    std::vector<std::vector<op_id>> succs_;
    std::size_t edge_count_ = 0;
    bool all_ascending_ = true; ///< every edge so far has from < to
};

} // namespace mwl

#endif // MWL_DFG_SEQUENCING_GRAPH_HPP
