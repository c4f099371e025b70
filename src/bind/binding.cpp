#include "bind/binding.hpp"

#include "support/error.hpp"

namespace mwl {

void finalize_binding(binding& b, std::size_t n_ops,
                      const wordlength_compatibility_graph& wcg)
{
    b.clique_of_op.assign(n_ops, clique_id::invalid());
    b.total_area = 0.0;
    for (std::size_t ci = 0; ci < b.cliques.size(); ++ci) {
        const binding_clique& k = b.cliques[ci];
        require(!k.ops.empty(), "binding clique must be non-empty");
        b.total_area += wcg.area(k.resource);
        for (const op_id o : k.ops) {
            require(o.value() < n_ops, "clique member out of range");
            require(!b.clique_of_op[o.value()].is_valid(),
                    "operation bound to two cliques");
            require(wcg.compatible(o, k.resource),
                    "clique resource not compatible with member (Eqn. 4)");
            b.clique_of_op[o.value()] = clique_id(ci);
        }
    }
    for (std::size_t i = 0; i < n_ops; ++i) {
        require(b.clique_of_op[i].is_valid(), "operation left unbound");
    }
}

} // namespace mwl
