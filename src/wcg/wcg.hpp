// Wordlength compatibility graph G(V, E), V = O u R, E = C u H (paper §2.1).
//
// This class owns the *H* side of the graph: the bipartite, mutable
// "operation o may execute on resource-wordlength type r" relation, together
// with cached latency/area of every resource type and the per-operation
// latency bounds derived from H. Refinement (paper §2.4) deletes H edges.
//
// The *C* side (schedule-derived transitive orientation on O) is a function
// of the current schedule, not persistent state; it is represented
// implicitly by (start time, latency bound) pairs and handled by the chain
// utilities in wcg/chains.hpp.

#ifndef MWL_WCG_WCG_HPP
#define MWL_WCG_WCG_HPP

#include "dfg/sequencing_graph.hpp"
#include "model/hardware_model.hpp"
#include "support/bitset.hpp"
#include "support/ids.hpp"
#include "support/serial.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace mwl {

class wordlength_compatibility_graph {
public:
    /// Build the initial graph: resources are the join-closure of the
    /// operation shapes (wcg/resource_set.hpp) and {o,r} is in H exactly
    /// when r covers o's shape. `graph` and `model` must outlive *this.
    wordlength_compatibility_graph(const sequencing_graph& graph,
                                   const hardware_model& model);

    [[nodiscard]] const sequencing_graph& graph() const { return *graph_; }
    [[nodiscard]] const hardware_model& model() const { return *model_; }

    /// Process-unique identity of this graph object; a copy gets a fresh
    /// one. Caches of state derived from H (the scheduling-set memo) key
    /// on it together with edge_version(), never on the address.
    [[nodiscard]] std::uint64_t serial() const { return serial_.value(); }

    /// graph().topological_order(), computed once at construction.
    [[nodiscard]] std::span<const op_id> topological_order() const
    {
        return topo_order_;
    }

    // -- resource-wordlength types -------------------------------------

    [[nodiscard]] std::size_t resource_count() const
    {
        return resources_.size();
    }
    [[nodiscard]] const op_shape& resource(res_id r) const;
    [[nodiscard]] int latency(res_id r) const;
    [[nodiscard]] double area(res_id r) const;
    [[nodiscard]] std::vector<res_id> all_resources() const;

    // -- H edges ---------------------------------------------------------

    /// O(1): one bit probe of the op-major incidence matrix.
    [[nodiscard]] bool compatible(op_id o, res_id r) const
    {
        check_op(o);
        check_res(r);
        return bits_test(res_bits_.data() + o.value() * res_words_,
                         r.value());
    }
    /// H(o): resource types that may still execute o, ascending res_id.
    /// A slice of the flat CSR pool; rows only shrink under refinement.
    [[nodiscard]] std::span<const res_id> resources_for(op_id o) const;
    /// O(r): operations that resource type r may still execute.
    [[nodiscard]] std::span<const op_id> ops_for(res_id r) const;
    [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

    // -- word-parallel view of H -----------------------------------------
    //
    // Rows of the resource-major incidence bit matrix, maintained in
    // lockstep with the CSR adjacency; the set cover's coverage rows
    // consume them directly. The op-major matrix backs compatible().

    /// Words per ops_row (== bits_words(graph().size())).
    [[nodiscard]] std::size_t op_words() const { return op_words_; }
    /// Bit o set iff {o, r} is in H.
    [[nodiscard]] std::span<const std::uint64_t> ops_row(res_id r) const
    {
        check_res(r);
        return {op_bits_.data() + r.value() * op_words_, op_words_};
    }

    /// Monotone counter bumped by every successful `delete_edge` (and hence
    /// by `refine_op`). Downstream caches key on it, with serial(), to
    /// detect staleness: equal versions of one graph guarantee an identical
    /// H edge set, and a later version's H is a subset of an earlier one's.
    [[nodiscard]] std::uint64_t edge_version() const { return version_; }

    /// Delete one H edge. Throws `precondition_error` if the edge is absent
    /// or if deleting it would leave o with no compatible resource.
    void delete_edge(op_id o, res_id r);

    // -- latency bounds (paper: L_o and the native lower bound) ----------
    //
    // Both bounds and refinability are cached per operation and maintained
    // incrementally by delete_edge / refine_op, so every query is O(1); a
    // deletion only rescans H(o) when it removed o's last slowest edge or a
    // fastest one.

    /// L_o = max latency over H(o).
    [[nodiscard]] int latency_upper_bound(op_id o) const;
    /// min latency over H(o).
    [[nodiscard]] int latency_lower_bound(op_id o) const;
    /// Upper bounds for all operations, indexed by op id: a view of the
    /// cached bounds, so it follows later refinements.
    [[nodiscard]] const std::vector<int>& latency_upper_bounds() const;

    /// True iff o still has an H edge to a resource with latency strictly
    /// below L_o -- i.e. the §2.4 refinement step can shrink o's bound.
    [[nodiscard]] bool refinable(op_id o) const;

    /// §2.4 refinement: delete every {o,r} in H with latency(r) == L_o.
    /// Returns the number of edges deleted. Throws `precondition_error`
    /// if o is not refinable.
    int refine_op(op_id o);

    // -- §2.4 metric inputs, indexed by op id ----------------------------
    //
    // Maintained by delete_edge like the latency bounds: a deletion of
    // {o, r} adjusts o's counts and the pools of the other operations in
    // O(r), so reading them is O(1) per operation.

    /// Pool of o: sum over r in H(o) of |O(r)|, the H edges incident to
    /// the resources o may still use.
    [[nodiscard]] std::span<const std::uint32_t> sharing_pools() const
    {
        return pool_;
    }
    /// Number of r in H(o) with latency(r) == L_o: the edges refine_op(o)
    /// would delete.
    [[nodiscard]] std::span<const std::uint32_t> slowest_edge_counts() const
    {
        return slowest_;
    }

private:
    void check_op(op_id o) const;
    void check_res(res_id r) const;
    void recompute_bounds(op_id o);

    const sequencing_graph* graph_;
    const hardware_model* model_;
    std::vector<op_shape> resources_;
    std::vector<int> res_latency_;
    std::vector<double> res_area_;

    // H adjacency as CSR: row i of h_op_data_ spans
    // [op_row_begin_[i], op_row_end_[i]), ascending res_id; likewise
    // h_res_data_ for O(r) rows, ascending op_id. Rows never grow after
    // construction, so deletion shifts within the row slice and begin
    // offsets stay fixed -- one contiguous pool, no per-row heap rows.
    std::vector<res_id> h_op_data_;
    std::vector<std::uint32_t> op_row_begin_;
    std::vector<std::uint32_t> op_row_end_;
    std::vector<op_id> h_res_data_;
    std::vector<std::uint32_t> res_row_begin_;
    std::vector<std::uint32_t> res_row_end_;

    // Incidence bit matrices mirroring the CSR rows: resource-major for
    // ops_row, op-major for compatible().
    std::size_t op_words_ = 0;
    std::size_t res_words_ = 0;
    std::vector<std::uint64_t> op_bits_;
    std::vector<std::uint64_t> res_bits_;

    std::vector<int> lat_upper_;                // cached max latency of H(o)
    std::vector<int> lat_lower_;                // cached min latency of H(o)
    std::vector<std::uint32_t> pool_;           // see sharing_pools()
    std::vector<std::uint32_t> slowest_;        // see slowest_edge_counts()
    std::vector<op_id> topo_order_;
    std::size_t edge_count_ = 0;
    std::uint64_t version_ = 0;
    instance_serial serial_;
};

} // namespace mwl

#endif // MWL_WCG_WCG_HPP
