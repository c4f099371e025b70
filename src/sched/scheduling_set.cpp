#include "sched/scheduling_set.hpp"

#include "support/bitset.hpp"
#include "support/error.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>

namespace mwl {
namespace {

using candidate = scheduling_set_cache::candidate;

constexpr std::size_t no_bound = static_cast<std::size_t>(-1);
constexpr std::uint32_t no_witness = static_cast<std::uint32_t>(-1);

/// Chvátal's greedy cover of `universe` operations by `cands`, as indices
/// into `cands`. `covered` is a zeroed row of bits_words(universe) words.
std::vector<std::size_t> greedy_cover(std::span<const candidate> cands,
                                      std::size_t universe,
                                      std::uint64_t* covered)
{
    const std::size_t w = bits_words(universe);
    std::vector<std::size_t> chosen;
    for (std::size_t n_covered = 0; n_covered < universe;) {
        std::size_t best = cands.size();
        std::size_t best_gain = 0;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const std::size_t gain =
                bits_andnot_count(cands[i].cov, covered, w);
            const bool better =
                gain > best_gain ||
                (gain == best_gain && gain > 0 && best < cands.size() &&
                 cands[i].area < cands[best].area);
            if (better) {
                best = i;
                best_gain = gain;
            }
        }
        MWL_ASSERT(best < cands.size() && best_gain > 0);
        chosen.push_back(best);
        bits_or(covered, cands[best].cov, w);
        n_covered += best_gain;
    }
    return chosen;
}

struct search_state {
    std::span<const candidate> cands;
    // Candidate indices covering operation o, largest set first:
    // cover_flat[cover_off[o] .. cover_off[o + 1]).
    std::span<const std::uint32_t> cover_off;
    std::span<const std::uint32_t> cover_flat;
    std::size_t n_ops = 0;
    std::size_t words = 0;
    // rows + d * words: the operations covered at search depth d.
    std::uint64_t* rows = nullptr;
    std::size_t max_set_size = 1;
    std::size_t node_cap = 0;
    std::size_t nodes = 0;
    bool capped = false;
    // Upper bound: a cover of this size is known to exist (the previous
    // optimum, if it still covers). Used ONLY to prune, never as a
    // returned solution, so the search still reports its own first optimal
    // cover in DFS order (see PERF.md).
    std::size_t known_cover_size = no_bound;
    // Lower bound: no cover is smaller (the last proven optimum on a
    // superset of the current H edges). The first cover of this size in
    // DFS order is the search's answer, so the search stops there.
    std::size_t min_size = 0;
    std::vector<std::size_t> best;
    std::vector<std::size_t> current;
};

void branch(search_state& st)
{
    if (++st.nodes > st.node_cap) {
        st.capped = true;
        return;
    }
    const std::size_t depth = st.current.size();
    const std::uint64_t* const covered = st.rows + depth * st.words;
    const std::size_t n_covered = bits_count(covered, st.words);
    if (n_covered == st.n_ops) {
        if (depth < st.best.size()) {
            st.best = st.current;
        }
        return;
    }
    // Lower bound: every chosen set covers at most max_set_size elements.
    const std::size_t uncovered = st.n_ops - n_covered;
    const std::size_t lower =
        (uncovered + st.max_set_size - 1) / st.max_set_size;
    std::size_t prune_limit = st.best.size();
    if (st.known_cover_size != no_bound) {
        prune_limit = std::min(prune_limit, st.known_cover_size + 1);
    }
    if (depth + lower >= prune_limit) {
        return;
    }

    // Branch on the uncovered operation with the fewest remaining covers
    // (the first such in id order): smallest branching factor first.
    std::size_t pivot = st.n_ops;
    std::size_t pivot_options = no_bound;
    for (std::size_t wi = 0; wi < st.words; ++wi) {
        std::uint64_t open = ~covered[wi];
        const std::size_t tail = st.n_ops - wi * 64;
        if (tail < 64) {
            open &= (std::uint64_t{1} << tail) - 1;
        }
        for (; open != 0; open &= open - 1) {
            const std::size_t o =
                wi * 64 + static_cast<std::size_t>(__builtin_ctzll(open));
            const std::size_t n_options =
                st.cover_off[o + 1] - st.cover_off[o];
            if (n_options < pivot_options) {
                pivot = o;
                pivot_options = n_options;
            }
        }
    }
    MWL_ASSERT(pivot < st.n_ops);

    const std::span<const std::uint32_t> options =
        st.cover_flat.subspan(st.cover_off[pivot], pivot_options);
    std::uint64_t* const next = st.rows + (depth + 1) * st.words;
    for (const std::size_t ci : options) {
        std::copy(covered, covered + st.words, next);
        bits_or(next, st.cands[ci].cov, st.words);
        st.current.push_back(ci);
        branch(st);
        st.current.pop_back();
        if (st.capped || st.best.size() <= st.min_size) {
            return;
        }
    }
}

/// True iff `members` still covers every operation under the current H
/// edges of `wcg`: one union of their rows, no search.
bool still_covers(const wordlength_compatibility_graph& wcg,
                  const std::vector<res_id>& members,
                  std::vector<std::uint64_t>& row)
{
    const std::size_t w = wcg.op_words();
    row.assign(w, 0);
    for (const res_id r : members) {
        bits_or(row.data(), wcg.ops_row(r).data(), w);
    }
    return bits_count(row.data(), w) == wcg.graph().size();
}

/// The exact cover under the two optional bounds (no_bound / 0 for none).
/// `ws.witness` must hold one entry per resource of `wcg`.
scheduling_set_result solve(const wordlength_compatibility_graph& wcg,
                            std::size_t node_cap,
                            std::size_t known_cover_size,
                            std::size_t min_size, scheduling_set_cache& ws)
{
    const std::size_t n_ops = wcg.graph().size();
    scheduling_set_result result;
    if (n_ops == 0) {
        return result;
    }
    const std::size_t w = wcg.op_words();
    const std::size_t n_res = wcg.resource_count();
    MWL_ASSERT(ws.witness.size() == n_res);

    // Candidates, indexed by res_id: every resource still covering an
    // operation, its coverage read straight from the WCG's bit row.
    std::vector<candidate>& cands = ws.cands_ws;
    cands.resize(n_res);
    for (std::size_t ri = 0; ri < n_res; ++ri) {
        const res_id r(ri);
        cands[ri] = candidate{r, wcg.area(r), wcg.ops_for(r).size(),
                              wcg.ops_row(r).data()};
    }

    // Drop candidates whose coverage is dominated by another's (subset
    // coverage); for equal coverage keep the smaller-area resource, ties
    // broken on res_id. A candidate is dominated iff some live
    // (non-dominated) candidate contains its coverage -- strictly, or
    // equally with a better (area, id) tie-break. Any dominator has >=
    // count, and an equal-count dominator has equal coverage and a better
    // tie-break, so processing candidates in (count desc, area asc, id
    // asc) order makes every potential dominator precede its victims and
    // makes liveness prefix-stable: each candidate needs testing against
    // the live list only, and its last dominator, if live again, first.
    const auto before = [&](std::size_t a, std::size_t b) {
        if (cands[a].count != cands[b].count) {
            return cands[a].count > cands[b].count;
        }
        if (cands[a].area != cands[b].area) {
            return cands[a].area < cands[b].area;
        }
        return a < b;
    };
    // The live candidates are compacted into the front of `order` as the
    // scan passes them: order[0 .. n_live).
    std::vector<std::size_t>& order = ws.order_ws;
    order.clear();
    for (std::size_t ri = 0; ri < n_res; ++ri) {
        if (cands[ri].count > 0) {
            order.push_back(ri);
        }
    }
    std::sort(order.begin(), order.end(), before);
    std::vector<std::uint8_t>& is_live = ws.is_live_ws;
    is_live.assign(n_res, 0);
    std::size_t n_live = 0;
    for (const std::size_t ri : order) {
        std::uint32_t& witness = ws.witness[ri];
        bool dominated = witness != no_witness && is_live[witness] != 0 &&
                         bits_subset(cands[ri].cov, cands[witness].cov, w);
        for (std::size_t i = 0; !dominated && i < n_live; ++i) {
            if (bits_subset(cands[ri].cov, cands[order[i]].cov, w)) {
                dominated = true;
                witness = static_cast<std::uint32_t>(order[i]);
            }
        }
        if (!dominated) {
            order[n_live++] = ri;
            is_live[ri] = 1;
        }
    }
    std::vector<candidate>& kept = ws.kept_ws;
    kept.clear();
    for (std::size_t ri = 0; ri < n_res; ++ri) {
        if (is_live[ri] != 0) {
            kept.push_back(cands[ri]);
        }
    }

    // Every operation retains at least one H edge, so a cover exists.
    ws.rows_ws.assign(w, 0);
    search_state st;
    st.cands = kept;
    st.n_ops = n_ops;
    st.words = w;
    st.node_cap = node_cap;
    st.known_cover_size = known_cover_size;
    st.min_size = min_size;
    st.best = greedy_cover(kept, n_ops, ws.rows_ws.data());
    MWL_ASSERT(st.best.size() >= min_size);

    if (st.best.size() > min_size) {
        // The search needs the per-operation cover lists, a flat table.
        // off[o] first counts o's covers and then, summed, marks the end of
        // o's list; filling from the last candidate down leaves every list
        // in ascending candidate order and off[o] at its start.
        auto& off = ws.cover_off_ws;
        off.assign(n_ops + 1, 0);
        for (const candidate& c : kept) {
            st.max_set_size = std::max(st.max_set_size, c.count);
            for (const op_id o : wcg.ops_for(c.id)) {
                ++off[o.value()];
            }
        }
        std::partial_sum(off.begin(), off.end(), off.begin());
        auto& flat = ws.cover_flat_ws;
        flat.resize(off[n_ops]);
        for (std::size_t ci = kept.size(); ci-- > 0;) {
            for (const op_id o : wcg.ops_for(kept[ci].id)) {
                flat[--off[o.value()]] = static_cast<std::uint32_t>(ci);
            }
        }
        // Try large sets first: finds good covers early, improving pruning.
        for (std::size_t o = 0; o < n_ops; ++o) {
            MWL_ASSERT(off[o + 1] > off[o]);
            std::sort(flat.begin() + off[o], flat.begin() + off[o + 1],
                      [&](std::uint32_t a, std::uint32_t b) {
                          return kept[a].count > kept[b].count;
                      });
        }
        st.cover_off = off;
        st.cover_flat = flat;
        // A branching node is shallower than the best cover so far, so
        // depths run from 0 to |greedy cover|.
        ws.rows_ws.assign((st.best.size() + 1) * w, 0);
        st.rows = ws.rows_ws.data();
        branch(st);
    }

    result.proven_minimum = !st.capped;
    result.members.reserve(st.best.size());
    for (const std::size_t ci : st.best) {
        result.members.push_back(kept[ci].id);
    }
    std::sort(result.members.begin(), result.members.end());
    return result;
}

} // namespace

scheduling_set_result
min_scheduling_set(const wordlength_compatibility_graph& wcg,
                   std::size_t node_cap)
{
    scheduling_set_cache scratch;
    scratch.witness.assign(wcg.resource_count(), no_witness);
    return solve(wcg, node_cap, no_bound, 0, scratch);
}

scheduling_set_result
min_scheduling_set(const wordlength_compatibility_graph& wcg,
                   scheduling_set_cache& cache, std::size_t node_cap)
{
    // Edge versions count per WCG, so everything carried is tied to the
    // graph object's serial. A hit also requires the same node cap: a
    // result computed under a different cap may be capped (or proven)
    // differently than asked for.
    const bool same_graph = cache.wcg_serial == wcg.serial();
    if (same_graph && cache.edge_version == wcg.edge_version() &&
        cache.node_cap == node_cap) {
        return cache.result;
    }
    if (!same_graph) {
        cache.witness.assign(wcg.resource_count(), no_witness);
        cache.min_size = 0;
    }

    // H only shrank since the cached cover was computed. If the old
    // optimum is still a cover (refinement can only shrink coverage sets,
    // so it often is not), its size bounds the new optimum from above.
    std::size_t known = no_bound;
    if (same_graph && still_covers(wcg, cache.result.members, cache.rows_ws)) {
        known = cache.result.members.size();
    }

    cache.result = solve(wcg, node_cap, known, cache.min_size, cache);
    if ((known != no_bound || cache.min_size > 0) &&
        !cache.result.proven_minimum) {
        // The bounded search hit the node cap. A capped bounded search
        // implies the cold search caps too (it visits a subset of the cold
        // search's nodes), but the two would spend the budget differently
        // and stop on different covers; rerun cold so the cached path
        // returns exactly what the cold overload would.
        cache.result = solve(wcg, node_cap, no_bound, 0, cache);
    }
    if (cache.result.proven_minimum) {
        cache.min_size = cache.result.members.size();
    }
    cache.wcg_serial = wcg.serial();
    cache.edge_version = wcg.edge_version();
    cache.node_cap = node_cap;
    return cache.result;
}

} // namespace mwl
