#include "bind/bind_select.hpp"

#include "support/bitset.hpp"
#include "support/error.hpp"
#include "wcg/chains.hpp"

#include <algorithm>
#include <utility>

namespace mwl {
namespace {

timed_op make_timed(op_id o, std::span<const int> start,
                    std::span<const int> lat)
{
    return timed_op{o, start[o.value()], lat[o.value()]};
}

/// True iff `extra`'s members can be absorbed into `base` while keeping
/// `resource` feasible for everyone (Eqn. 4) and the union a chain.
///
/// Both inputs are sorted by start (chains have strictly ascending starts),
/// so the union is checked by a two-pointer merge walk testing `precedes`
/// between consecutive items -- no merged vector is materialized and no
/// allocation happens per probe.
bool can_absorb(const wordlength_compatibility_graph& wcg, res_id resource,
                const std::vector<timed_op>& base,
                const std::vector<op_id>& extra, std::span<const int> start,
                std::span<const int> lat)
{
    for (const op_id o : extra) {
        if (!wcg.compatible(o, resource)) {
            return false;
        }
    }
    std::size_t i = 0;
    std::size_t j = 0;
    timed_op prev{};
    bool have_prev = false;
    while (i < base.size() || j < extra.size()) {
        timed_op next;
        if (j == extra.size() ||
            (i < base.size() &&
             base[i].start <= start[extra[j].value()])) {
            next = base[i++];
        } else {
            next = make_timed(extra[j++], start, lat);
        }
        if (have_prev && !precedes(prev, next)) {
            return false;
        }
        prev = next;
        have_prev = true;
    }
    return true;
}

/// Greed compensation: grow the newly selected `chain` (keeping its
/// resource type, so total cost can only drop) to swallow previously
/// selected cliques; absorbed cliques are deleted. `chain` stays sorted
/// by start throughout, which can_absorb's merge walk relies on.
void absorb_earlier_cliques(const wordlength_compatibility_graph& wcg,
                            res_id resource, std::span<const int> start,
                            std::span<const int> lat,
                            std::vector<timed_op>& chain,
                            std::vector<binding_clique>& cliques,
                            std::vector<timed_op>& merged)
{
    bool absorbed = true;
    while (absorbed) {
        absorbed = false;
        for (std::size_t j = 0; j < cliques.size(); ++j) {
            const binding_clique& prev = cliques[j];
            if (!can_absorb(wcg, resource, chain, prev.ops, start, lat)) {
                continue;
            }
            // Keep the sorted-by-start invariant (a chain has distinct
            // starts); merge through a reused buffer, no allocation.
            merged.clear();
            std::size_t bi = 0;
            std::size_t ei = 0;
            while (bi < chain.size() || ei < prev.ops.size()) {
                if (ei == prev.ops.size() ||
                    (bi < chain.size() &&
                     chain[bi].start <= start[prev.ops[ei].value()])) {
                    merged.push_back(chain[bi++]);
                } else {
                    merged.push_back(make_timed(prev.ops[ei++], start, lat));
                }
            }
            chain.swap(merged);
            cliques.erase(cliques.begin() + static_cast<std::ptrdiff_t>(j));
            absorbed = true;
            break;
        }
    }
}

/// Replace the top of a max-heap with `key`, which must not be larger, and
/// sift it down: one pass instead of a pop_heap/push_heap pair.
void lower_top(std::vector<bind_chain_key>& heap, const bind_chain_key& key)
{
    const std::size_t n = heap.size();
    std::size_t at = 0;
    for (std::size_t child = 1; child < n; child = 2 * at + 1) {
        if (child + 1 < n && heap[child] < heap[child + 1]) {
            ++child;
        }
        if (!(key < heap[child])) {
            break;
        }
        heap[at] = heap[child];
        at = child;
    }
    heap[at] = key;
}

/// The column selection, on word-parallel rows.
///
/// One counting sort by finish gives every operation a finish rank; O(r)
/// becomes a bit row over ranks and the covered set a bit row too, so a
/// resource's candidates are `row & ~covered`. A lazy max-heap holds one
/// key per resource (bind_chain_key: ratio, length, res_id), each an upper
/// bound on the resource's current longest-chain length: candidate sets
/// only shrink as operations are covered, so chain lengths never grow.
/// Keys start exact (the earliest-finish greedy of wcg/chains.hpp over
/// every row), and each resource keeps its greedy's picks as a witness
/// chain: while no witness member is covered, the witness is still a
/// chain of the keyed length, so the key is still exact. An exact key on
/// top is the round's true argmax. A stale one is first lowered to the
/// candidate count popcount(row & ~covered); only a key that this does
/// not lower pays for a greedy recompute. Only the winner's chain is
/// built, with longest_chain_into over its uncovered members -- the
/// canonical chain the quadratic DP of tests/oracle returns, so this
/// binds exactly as oracle::bind_select_reference does.
class row_selection {
public:
    row_selection(const wordlength_compatibility_graph& wcg,
                  std::span<const int> start, std::span<const int> lat,
                  bind_scratch& sc)
        : wcg_(wcg), sc_(sc), words_(bits_words(start.size()))
    {
        const std::size_t n = start.size();
        const auto finish = [&](std::size_t i) {
            return static_cast<std::size_t>(start[i] + lat[i]);
        };
        std::size_t horizon = 0;
        for (std::size_t i = 0; i < n; ++i) {
            horizon = std::max(horizon, finish(i));
        }
        // Stable counting sort by finish: finish times are bounded by the
        // schedule horizon.
        std::vector<std::uint32_t>& next = sc.count;
        next.assign(horizon + 1, 0);
        for (std::size_t i = 0; i < n; ++i) {
            ++next[finish(i)];
        }
        std::uint32_t total = 0;
        for (std::uint32_t& c : next) {
            total += std::exchange(c, total);
        }
        sc.ranked.resize(n);
        sc.rank_of.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t rank = next[finish(i)]++;
            sc.ranked[rank] = make_timed(op_id(i), start, lat);
            sc.rank_of[i] = rank;
        }

        // The rows and every resource's first greedy in one pass over H by
        // ascending rank: each operation joins the rows of H(o) and is
        // offered to their greedies in the order greedy_longest_chain
        // would offer it.
        const std::size_t n_res = wcg.resource_count();
        sc.rows.assign(n_res * words_, 0);
        sc.witness.assign(n_res * words_, 0);
        sc.greedy.assign(n_res, greedy_chain{});
        sc.covered.assign(words_, 0);
        for (std::size_t rank = 0; rank < n; ++rank) {
            const timed_op& item = sc.ranked[rank];
            const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
            for (const res_id r : wcg.resources_for(item.op)) {
                const std::size_t at = r.value() * words_ + rank / 64;
                sc.rows[at] |= bit;
                if (sc.greedy[r.value()].offer(item)) {
                    sc.witness[at] |= bit;
                }
            }
        }
        sc.heap.clear();
        for (std::size_t ri = 0; ri < n_res; ++ri) {
            if (sc.greedy[ri].length > 0) {
                sc.heap.push_back(key(res_id(ri), sc.greedy[ri].length));
            }
        }
        std::make_heap(sc.heap.begin(), sc.heap.end());
    }

    /// The round's winning resource type; its canonical longest chain of
    /// uncovered operations goes to `chain`.
    res_id select(std::vector<timed_op>& chain)
    {
        std::vector<bind_chain_key>& heap = sc_.heap;
        for (;;) {
            // Every uncovered operation keeps at least one H edge, so a
            // key for some resource with candidates is always here.
            MWL_ASSERT(!heap.empty());
            const bind_chain_key top = heap.front();
            const res_id r = top.r;
            if (top.length == sc_.greedy[r.value()].length &&
                bits_disjoint(witness(r), sc_.covered.data(), words_)) {
                build_chain(r, chain);
                MWL_ASSERT(chain.size() == top.length);
                // The key stays: r remains selectable, and covering the
                // chain turns the key back into an upper bound.
                return r;
            }
            const std::size_t bound =
                bits_andnot_count(row(r), sc_.covered.data(), words_);
            if (bound == 0) {
                std::pop_heap(heap.begin(), heap.end());
                heap.pop_back();
                continue; // nothing left for r to cover
            }
            const std::size_t length =
                bound < top.length ? bound : recompute(r);
            lower_top(heap, key(r, length));
        }
    }

    void cover(op_id o)
    {
        const std::uint32_t rank = sc_.rank_of[o.value()];
        MWL_ASSERT(!bits_test(sc_.covered.data(), rank));
        bits_set(sc_.covered.data(), rank);
    }

private:
    [[nodiscard]] const std::uint64_t* row(res_id r) const
    {
        return sc_.rows.data() + r.value() * words_;
    }

    [[nodiscard]] std::uint64_t* witness(res_id r)
    {
        return sc_.witness.data() + r.value() * words_;
    }

    [[nodiscard]] bind_chain_key key(res_id r, std::size_t length) const
    {
        return {static_cast<double>(length) / wcg_.area(r), length, r};
    }

    /// Exact longest-chain length of r now; refreshes its witness.
    std::size_t recompute(res_id r)
    {
        greedy_chain& greedy = sc_.greedy[r.value()];
        greedy = greedy_longest_chain(sc_.ranked, {row(r), words_},
                                      sc_.covered, {witness(r), words_});
        return greedy.length;
    }

    void build_chain(res_id r, std::vector<timed_op>& chain)
    {
        std::vector<timed_op>& candidates = sc_.candidates;
        candidates.clear();
        bits_for_each(row(r), words_, [&](std::size_t rank) {
            if (!bits_test(sc_.covered.data(), rank)) {
                candidates.push_back(sc_.ranked[rank]);
            }
        });
        longest_chain_into(candidates, sc_.chains, chain);
    }

    const wordlength_compatibility_graph& wcg_;
    bind_scratch& sc_;
    std::size_t words_;
};

} // namespace

binding bind_select(const wordlength_compatibility_graph& wcg,
                    std::span<const int> start_times,
                    std::span<const int> latencies,
                    const bind_options& options, bind_scratch* scratch_arg)
{
    const sequencing_graph& graph = wcg.graph();
    const std::size_t n = graph.size();
    require(start_times.size() == n && latencies.size() == n,
            "schedule vectors must cover every operation");
    for (std::size_t i = 0; i < n; ++i) {
        require(start_times[i] >= 0, "operation is unscheduled");
        require(latencies[i] >= 1, "operation latencies must be >= 1");
    }

    binding result;
    bind_scratch local;
    bind_scratch& sc = scratch_arg ? *scratch_arg : local;
    std::vector<timed_op>& best_chain = sc.best_chain;

    // Chvátal ratio selection over the implicit column set: for each
    // resource type the best feasible column is a longest chain of
    // uncovered compatible operations. The winner of a round is already
    // its chain's cheapest common resource (DESIGN.md §2.3), so the
    // paper's closing cheapest-resource pass would move nothing.
    row_selection selection(wcg, start_times, latencies, sc);
    std::size_t n_covered = 0;
    while (n_covered < n) {
        const res_id best_r = selection.select(best_chain);
        MWL_ASSERT(best_r.is_valid() && !best_chain.empty());
        for (const timed_op& item : best_chain) {
            selection.cover(item.op);
        }
        n_covered += best_chain.size();

        if (options.enable_growth) {
            absorb_earlier_cliques(wcg, best_r, start_times, latencies,
                                   best_chain, result.cliques, sc.merge_tmp);
        }

        binding_clique clique;
        clique.resource = best_r;
        clique.ops.reserve(best_chain.size());
        for (const timed_op& item : best_chain) {
            clique.ops.push_back(item.op);
        }
        result.cliques.push_back(std::move(clique));
    }

    finalize_binding(result, n, wcg);
    return result;
}

} // namespace mwl
