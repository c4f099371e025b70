#include "wcg/resource_set.hpp"

#include <algorithm>
#include <utility>

namespace mwl {

std::vector<op_shape> extract_resource_types(std::span<const op_shape> shapes)
{
    // The join of a subset is its componentwise max. For adders that is
    // the widest member, so the closure is the distinct widths. For
    // multipliers (a, b) is the join of some subset iff one shape has
    // first width a and second width <= b, and one has second width b and
    // first width <= a: the join of those two is (a, b), and any subset
    // joining to (a, b) contains such shapes. So a first width a needs only
    // its least second width, a second width b only its least first width.
    std::vector<int> adders;
    std::vector<std::pair<int, int>> by_first;  // (a, b)
    std::vector<std::pair<int, int>> by_second; // (b, a)
    adders.reserve(shapes.size());
    by_first.reserve(shapes.size());
    by_second.reserve(shapes.size());
    for (const op_shape& s : shapes) {
        if (s.kind() == op_kind::add) {
            adders.push_back(s.width_a());
        } else {
            by_first.emplace_back(s.width_a(), s.width_b());
            by_second.emplace_back(s.width_b(), s.width_a());
        }
    }
    std::sort(adders.begin(), adders.end());
    adders.erase(std::unique(adders.begin(), adders.end()), adders.end());
    // Sorted pairs put each width's least partner first; keep that one.
    const auto least_partner = [](std::vector<std::pair<int, int>>& pairs) {
        std::sort(pairs.begin(), pairs.end());
        pairs.erase(std::unique(pairs.begin(), pairs.end(),
                                [](const auto& x, const auto& y) {
                                    return x.first == y.first;
                                }),
                    pairs.end());
    };
    least_partner(by_first);
    least_partner(by_second);

    // Ascending by kind, then widths: op_shape's order.
    std::vector<op_shape> closure;
    closure.reserve(adders.size() + by_first.size()); // (a, least b) each
    for (const int w : adders) {
        closure.push_back(op_shape::adder(w));
    }
    for (const auto& [a, least_b] : by_first) {
        for (const auto& [b, least_a] : by_second) {
            if (b >= least_b && least_a <= a) {
                closure.push_back(op_shape::multiplier(a, b));
            }
        }
    }
    return closure;
}

std::vector<op_shape> extract_resource_types(const sequencing_graph& graph)
{
    std::vector<op_shape> shapes;
    shapes.reserve(graph.size());
    for (const op_id o : graph.all_ops()) {
        shapes.push_back(graph.shape(o));
    }
    return extract_resource_types(shapes);
}

} // namespace mwl
