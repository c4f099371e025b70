// Binding data structures: a clique cover of the scheduled operations,
// each clique carrying the resource-wordlength type that implements it.
// One clique = one physical resource instance in the datapath.

#ifndef MWL_BIND_BINDING_HPP
#define MWL_BIND_BINDING_HPP

#include "support/ids.hpp"
#include "wcg/wcg.hpp"

#include <span>
#include <vector>

namespace mwl {

/// One physical resource instance and the operations it executes.
struct binding_clique {
    res_id resource;         ///< resource-wordlength type implementing it
    std::vector<op_id> ops;  ///< members, in chain (execution) order
};

/// A complete binding: disjoint cliques covering every operation.
struct binding {
    std::vector<binding_clique> cliques;
    std::vector<clique_id> clique_of_op; ///< indexed by op id
    double total_area = 0.0;             ///< sum of clique resource areas

    [[nodiscard]] const binding_clique& clique_of(op_id o) const
    {
        return cliques[clique_of_op[o.value()].value()];
    }

    /// Resource type an operation is bound to.
    [[nodiscard]] res_id resource_of(op_id o) const
    {
        return clique_of(o).resource;
    }
};

/// Recompute `clique_of_op` and `total_area` from `cliques`; checks that the
/// cliques are disjoint and cover all `n_ops` operations.
void finalize_binding(binding& b, std::size_t n_ops,
                      const wordlength_compatibility_graph& wcg);

/// Cheapest resource type compatible (current H edges) with every operation
/// in `ops`; returns res_id::invalid() if none exists (Eqn. 4 violated).
/// Ties broken towards smaller res_id.
[[nodiscard]] res_id cheapest_common_resource(
    const wordlength_compatibility_graph& wcg, std::span<const op_id> ops);

/// As above, reusing `common_scratch` (resized internally) so a looping
/// caller performs no per-query allocation.
[[nodiscard]] res_id cheapest_common_resource(
    const wordlength_compatibility_graph& wcg, std::span<const op_id> ops,
    std::vector<std::uint64_t>& common_scratch);

} // namespace mwl

#endif // MWL_BIND_BINDING_HPP
