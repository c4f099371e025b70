#include "dfg/sequencing_graph.hpp"

#include "support/error.hpp"

#include <algorithm>
#include <functional>
#include <queue>

namespace mwl {

op_id sequencing_graph::add_operation(op_shape shape, std::string name)
{
    const op_id id(ops_.size());
    ops_.push_back(operation{shape, std::move(name)});
    preds_.emplace_back();
    succs_.emplace_back();
    return id;
}

void sequencing_graph::add_dependency(op_id from, op_id to)
{
    check_id(from);
    check_id(to);
    require(from != to, "dependency cannot be a self-loop");

    auto& succ = succs_[from.value()];
    if (std::find(succ.begin(), succ.end(), to) != succ.end()) {
        return; // duplicate edge: idempotent
    }
    // While every edge runs from a lower id to a higher one, every path
    // does too, so an ascending edge cannot close a cycle and needs no
    // search. Generated graphs and their .mwl text are built that way.
    const bool ascending = from.value() < to.value();
    if ((!ascending || !all_ascending_) && reaches(to, from)) {
        throw precondition_error("dependency " +
                                 std::to_string(from.value()) + " -> " +
                                 std::to_string(to.value()) +
                                 " would create a cycle");
    }
    all_ascending_ = all_ascending_ && ascending;

    succ.push_back(to);
    preds_[to.value()].push_back(from);
    ++edge_count_;
}

const operation& sequencing_graph::op(op_id id) const
{
    check_id(id);
    return ops_[id.value()];
}

std::span<const op_id> sequencing_graph::predecessors(op_id id) const
{
    check_id(id);
    return preds_[id.value()];
}

std::span<const op_id> sequencing_graph::successors(op_id id) const
{
    check_id(id);
    return succs_[id.value()];
}

std::vector<op_id> sequencing_graph::all_ops() const
{
    std::vector<op_id> ids;
    ids.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
        ids.emplace_back(i);
    }
    return ids;
}

std::vector<op_id> sequencing_graph::topological_order() const
{
    // Kahn's algorithm; smallest-id-first tie-break makes the order
    // deterministic, which keeps every downstream heuristic reproducible.
    std::vector<std::size_t> in_degree(size());
    for (std::size_t i = 0; i < size(); ++i) {
        in_degree[i] = preds_[i].size();
    }

    std::priority_queue<op_id, std::vector<op_id>, std::greater<>> ready;
    for (std::size_t i = 0; i < size(); ++i) {
        if (in_degree[i] == 0) {
            ready.emplace(i);
        }
    }

    std::vector<op_id> order;
    order.reserve(size());
    while (!ready.empty()) {
        const op_id id = ready.top();
        ready.pop();
        order.push_back(id);
        for (const op_id succ : succs_[id.value()]) {
            if (--in_degree[succ.value()] == 0) {
                ready.push(succ);
            }
        }
    }
    MWL_ASSERT(order.size() == size()); // acyclic by construction
    return order;
}

bool sequencing_graph::reaches(op_id from, op_id to) const
{
    check_id(from);
    check_id(to);
    if (from == to) {
        return true;
    }
    std::vector<bool> seen(size(), false);
    std::vector<op_id> stack{from};
    seen[from.value()] = true;
    while (!stack.empty()) {
        const op_id at = stack.back();
        stack.pop_back();
        for (const op_id succ : succs_[at.value()]) {
            if (succ == to) {
                return true;
            }
            if (!seen[succ.value()]) {
                seen[succ.value()] = true;
                stack.push_back(succ);
            }
        }
    }
    return false;
}

void sequencing_graph::check_id(op_id id) const
{
    require(id.is_valid() && id.value() < size(),
            "operation id out of range");
}

} // namespace mwl
