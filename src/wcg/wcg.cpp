#include "wcg/wcg.hpp"

#include "support/error.hpp"
#include "wcg/resource_set.hpp"

#include <algorithm>

namespace mwl {

wordlength_compatibility_graph::wordlength_compatibility_graph(
    const sequencing_graph& graph, const hardware_model& model)
    : graph_(&graph), model_(&model)
{
    resources_ = extract_resource_types(graph);
    res_latency_.reserve(resources_.size());
    res_area_.reserve(resources_.size());
    for (const op_shape& shape : resources_) {
        res_latency_.push_back(model.latency(shape));
        res_area_.push_back(model.area(shape));
        MWL_ASSERT(res_latency_.back() >= 1);
        MWL_ASSERT(res_area_.back() > 0.0);
    }

    const std::size_t n_ops = graph.size();
    const std::size_t n_res = resources_.size();
    op_words_ = bits_words(n_ops);
    res_words_ = bits_words(n_res);
    op_bits_.assign(n_res * op_words_, 0);
    res_bits_.assign(n_ops * res_words_, 0);

    // Two passes: count row sizes, then fill the flat CSR pools. Rows come
    // out ascending by construction (ops and resources are visited in
    // ascending id order).
    op_row_begin_.assign(n_ops, 0);
    op_row_end_.assign(n_ops, 0);
    res_row_begin_.assign(n_res, 0);
    res_row_end_.assign(n_res, 0);
    std::vector<std::uint32_t> op_deg(n_ops, 0);
    std::vector<std::uint32_t> res_deg(n_res, 0);
    for (const op_id o : graph.all_ops()) {
        for (std::size_t ri = 0; ri < n_res; ++ri) {
            if (resources_[ri].covers(graph.shape(o))) {
                ++op_deg[o.value()];
                ++res_deg[ri];
                ++edge_count_;
            }
        }
        // The closure contains every operation's own shape, so H(o) is
        // never empty at construction.
        MWL_ASSERT(op_deg[o.value()] > 0);
    }
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < n_ops; ++i) {
        op_row_begin_[i] = at;
        op_row_end_[i] = at;
        at += op_deg[i];
    }
    h_op_data_.resize(edge_count_);
    at = 0;
    for (std::size_t ri = 0; ri < n_res; ++ri) {
        res_row_begin_[ri] = at;
        res_row_end_[ri] = at;
        at += res_deg[ri];
    }
    h_res_data_.resize(edge_count_);
    for (const op_id o : graph.all_ops()) {
        for (std::size_t ri = 0; ri < n_res; ++ri) {
            if (!resources_[ri].covers(graph.shape(o))) {
                continue;
            }
            h_op_data_[op_row_end_[o.value()]++] = res_id(ri);
            h_res_data_[res_row_end_[ri]++] = o;
            bits_set(op_bits_.data() + ri * op_words_, o.value());
            bits_set(res_bits_.data() + o.value() * res_words_, ri);
        }
    }

    lat_upper_.assign(n_ops, 0);
    lat_lower_.assign(n_ops, 0);
    slowest_.assign(n_ops, 0);
    pool_.assign(n_ops, 0);
    for (const op_id o : graph.all_ops()) {
        recompute_bounds(o);
        for (const res_id r : resources_for(o)) {
            pool_[o.value()] +=
                res_row_end_[r.value()] - res_row_begin_[r.value()];
        }
    }
    topo_order_ = graph.topological_order();
}

const op_shape& wordlength_compatibility_graph::resource(res_id r) const
{
    check_res(r);
    return resources_[r.value()];
}

int wordlength_compatibility_graph::latency(res_id r) const
{
    check_res(r);
    return res_latency_[r.value()];
}

double wordlength_compatibility_graph::area(res_id r) const
{
    check_res(r);
    return res_area_[r.value()];
}

std::vector<res_id> wordlength_compatibility_graph::all_resources() const
{
    std::vector<res_id> ids;
    ids.reserve(resources_.size());
    for (std::size_t i = 0; i < resources_.size(); ++i) {
        ids.emplace_back(i);
    }
    return ids;
}

std::span<const res_id>
wordlength_compatibility_graph::resources_for(op_id o) const
{
    check_op(o);
    return {h_op_data_.data() + op_row_begin_[o.value()],
            h_op_data_.data() + op_row_end_[o.value()]};
}

std::span<const op_id>
wordlength_compatibility_graph::ops_for(res_id r) const
{
    check_res(r);
    return {h_res_data_.data() + res_row_begin_[r.value()],
            h_res_data_.data() + res_row_end_[r.value()]};
}

void wordlength_compatibility_graph::delete_edge(op_id o, res_id r)
{
    check_op(o);
    check_res(r);
    res_id* const row_first = h_op_data_.data() + op_row_begin_[o.value()];
    res_id* const row_last = h_op_data_.data() + op_row_end_[o.value()];
    res_id* const it = std::lower_bound(row_first, row_last, r);
    require(it != row_last && *it == r, "H edge not present");
    require(row_last - row_first > 1,
            "deleting the last compatible resource of an operation");
    std::move(it + 1, row_last, it);
    --op_row_end_[o.value()];

    op_id* const col_first = h_res_data_.data() + res_row_begin_[r.value()];
    op_id* const col_last = h_res_data_.data() + res_row_end_[r.value()];
    op_id* const jt = std::lower_bound(col_first, col_last, o);
    MWL_ASSERT(jt != col_last && *jt == o);
    std::move(jt + 1, col_last, jt);
    --res_row_end_[r.value()];

    bits_reset(op_bits_.data() + r.value() * op_words_, o.value());
    bits_reset(res_bits_.data() + o.value() * res_words_, r.value());
    --edge_count_;
    ++version_;

    // Pools: o loses r's whole old column, every other operation still in
    // O(r) one edge of it.
    pool_[o.value()] -= static_cast<std::uint32_t>(col_last - col_first);
    for (const op_id other : ops_for(r)) {
        --pool_[other.value()];
    }

    // The cached bounds only move when o's last slowest edge or a fastest
    // edge went away.
    const int lat = res_latency_[r.value()];
    const bool slowest = lat == lat_upper_[o.value()];
    if (slowest) {
        --slowest_[o.value()];
    }
    if ((slowest && slowest_[o.value()] == 0) ||
        lat == lat_lower_[o.value()]) {
        recompute_bounds(o);
    }
}

int wordlength_compatibility_graph::latency_upper_bound(op_id o) const
{
    check_op(o);
    return lat_upper_[o.value()];
}

int wordlength_compatibility_graph::latency_lower_bound(op_id o) const
{
    check_op(o);
    return lat_lower_[o.value()];
}

const std::vector<int>&
wordlength_compatibility_graph::latency_upper_bounds() const
{
    return lat_upper_;
}

bool wordlength_compatibility_graph::refinable(op_id o) const
{
    check_op(o);
    return lat_lower_[o.value()] < lat_upper_[o.value()];
}

int wordlength_compatibility_graph::refine_op(op_id o)
{
    require(refinable(o), "operation has no strictly faster resource left");
    const int top = latency_upper_bound(o);

    // Collect first, then delete: delete_edge mutates the row we iterate.
    std::vector<res_id> doomed;
    for (const res_id r : resources_for(o)) {
        if (res_latency_[r.value()] == top) {
            doomed.push_back(r);
        }
    }
    MWL_ASSERT(!doomed.empty());
    for (const res_id r : doomed) {
        delete_edge(o, r);
    }
    return static_cast<int>(doomed.size());
}

void wordlength_compatibility_graph::recompute_bounds(op_id o)
{
    int upper = 0;
    int lower = 0;
    std::uint32_t slowest = 0;
    for (const res_id r : resources_for(o)) {
        const int lat = res_latency_[r.value()];
        if (lat > upper) {
            upper = lat;
            slowest = 0;
        }
        slowest += lat == upper ? 1 : 0;
        lower = (lower == 0) ? lat : std::min(lower, lat);
    }
    MWL_ASSERT(upper >= 1 && lower >= 1);
    lat_upper_[o.value()] = upper;
    lat_lower_[o.value()] = lower;
    slowest_[o.value()] = slowest;
}

void wordlength_compatibility_graph::check_op(op_id o) const
{
    require(o.is_valid() && o.value() < graph_->size(),
            "operation id out of range");
}

void wordlength_compatibility_graph::check_res(res_id r) const
{
    require(r.is_valid() && r.value() < resources_.size(),
            "resource id out of range");
}

} // namespace mwl
