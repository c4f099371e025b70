#include "bind/binding.hpp"

#include "support/bitset.hpp"
#include "support/error.hpp"

#include <cstdint>
#include <vector>

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

res_id cheapest_common_resource(const wordlength_compatibility_graph& wcg,
                                std::span<const op_id> ops)
{
    std::vector<std::uint64_t> common;
    return cheapest_common_resource(wcg, ops, common);
}

res_id cheapest_common_resource(const wordlength_compatibility_graph& wcg,
                                std::span<const op_id> ops,
                                std::vector<std::uint64_t>& common_scratch)
{
    if (ops.empty()) {
        // Every resource is vacuously common; cheapest overall, ties
        // towards smaller res_id (matches a full scan).
        res_id best = res_id::invalid();
        for (const res_id r : wcg.all_resources()) {
            if (!best.is_valid() || wcg.area(r) < wcg.area(best)) {
                best = r;
            }
        }
        return best;
    }

    // Intersect the H(o) bit rows word by word instead of probing every
    // (resource, op) pair, then take the cheapest survivor in ascending
    // res_id order.
    const std::size_t words = wcg.res_words();
    const std::span<const std::uint64_t> first =
        wcg.resources_row(ops.front());
    common_scratch.assign(first.begin(), first.end());
    for (const op_id o : ops.subspan(1)) {
        bits_and(common_scratch.data(), wcg.resources_row(o).data(), words);
    }
    res_id best = res_id::invalid();
    bits_for_each(common_scratch.data(), words, [&](std::size_t ri) {
        const res_id r(ri);
        if (!best.is_valid() || wcg.area(r) < wcg.area(best)) {
            best = r;
        }
    });
    return best;
}

} // namespace mwl
