// Property tests for the word-parallel support kernels
// (support/bitset.hpp) and the WCG's bit-matrix adjacency views: every
// randomized operation sequence is mirrored against a std::set reference
// model, so any divergence between the packed-word fast paths and plain
// set semantics names the failing seed (MWL_BITSET_SEED).

#include "model/hardware_model.hpp"
#include "support/bitset.hpp"
#include "support/rng.hpp"
#include "tgff/generator.hpp"
#include "wcg/wcg.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace mwl {
namespace {

TEST(BitsetModel, RandomMutationsMatchSetSemantics)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_BITSET_SEED", 0xB1751);
    MWL_TRACE_SEED("MWL_BITSET_SEED", seed);
    rng random(seed);

    constexpr std::size_t bits = 200; // deliberately not a word multiple
    dyn_bitset bs(bits);
    std::set<std::size_t> model;

    for (int step = 0; step < 4000; ++step) {
        const std::size_t i =
            static_cast<std::size_t>(random.uniform(0, bits - 1));
        switch (random.uniform_int(0, 2)) {
        case 0:
            bs.set(i);
            model.insert(i);
            break;
        case 1:
            bs.reset(i);
            model.erase(i);
            break;
        default:
            ASSERT_EQ(bs.test(i), model.count(i) == 1) << "bit " << i;
            break;
        }
        if (step % 250 == 0) {
            ASSERT_EQ(bs.count(), model.size());
            const std::size_t first_unset = [&] {
                for (std::size_t b = 0; b < bits; ++b) {
                    if (model.count(b) == 0) {
                        return b;
                    }
                }
                return bits;
            }();
            ASSERT_EQ(bs.first_unset(), first_unset);
            ASSERT_EQ(bs.all_set(), model.size() == bits);

            // bits_for_each must visit exactly the members, ascending --
            // the order downstream CSR rebuilds rely on.
            std::vector<std::size_t> visited;
            bits_for_each(bs.words(), bs.word_count(),
                          [&](std::size_t b) { visited.push_back(b); });
            ASSERT_TRUE(std::is_sorted(visited.begin(), visited.end()));
            ASSERT_TRUE(std::equal(visited.begin(), visited.end(),
                                   model.begin(), model.end()));
        }
    }
}

TEST(BitsetModel, PairwiseKernelsMatchSetAlgebra)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_BITSET_SEED", 0xB1752);
    MWL_TRACE_SEED("MWL_BITSET_SEED", seed);
    rng random(seed);

    for (int round = 0; round < 50; ++round) {
        const std::size_t bits =
            static_cast<std::size_t>(random.uniform(1, 300));
        const std::size_t words = bits_words(bits);
        std::vector<std::uint64_t> a(words, 0);
        std::vector<std::uint64_t> b(words, 0);
        std::set<std::size_t> ma;
        std::set<std::size_t> mb;
        for (std::size_t i = 0; i < bits; ++i) {
            if (random.chance(0.4)) {
                bits_set(a.data(), i);
                ma.insert(i);
            }
            if (random.chance(0.4)) {
                bits_set(b.data(), i);
                mb.insert(i);
            }
        }

        const std::size_t diff = [&] {
            std::size_t count = 0;
            for (const std::size_t v : ma) {
                count += mb.count(v) == 0 ? 1u : 0u;
            }
            return count;
        }();
        ASSERT_EQ(bits_andnot_count(a.data(), b.data(), words), diff);
        ASSERT_EQ(bits_subset(a.data(), b.data(), words),
                  std::includes(mb.begin(), mb.end(), ma.begin(), ma.end()));
        ASSERT_EQ(bits_disjoint(a.data(), b.data(), words),
                  std::none_of(ma.begin(), ma.end(), [&](std::size_t v) {
                      return mb.count(v) != 0;
                  }));
        ASSERT_EQ(bits_any(a.data(), words), !ma.empty());
        ASSERT_EQ(bits_count(a.data(), words), ma.size());

        std::vector<std::uint64_t> u = a;
        bits_or(u.data(), b.data(), words);
        std::vector<std::uint64_t> x = a;
        bits_and(x.data(), b.data(), words);
        for (std::size_t i = 0; i < bits; ++i) {
            ASSERT_EQ(bits_test(u.data(), i),
                      ma.count(i) == 1 || mb.count(i) == 1);
            ASSERT_EQ(bits_test(x.data(), i),
                      ma.count(i) == 1 && mb.count(i) == 1);
        }
    }
}

TEST(BitsetModel, PopcountMatchesBitAtATimeCount)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_BITSET_SEED", 0xB1753);
    MWL_TRACE_SEED("MWL_BITSET_SEED", seed);
    rng random(seed);

    const auto slow_count = [](std::uint64_t word) {
        std::size_t count = 0;
        for (int bit = 0; bit < 64; ++bit) {
            count += (word >> bit) & 1U;
        }
        return count;
    };
    std::vector<std::uint64_t> words = {0, ~std::uint64_t{0}};
    for (int bit = 0; bit < 64; ++bit) {
        words.push_back(std::uint64_t{1} << bit);
        words.push_back(~(std::uint64_t{1} << bit));
    }
    for (int i = 0; i < 10000; ++i) {
        // Sparse and dense words as well as uniform ones.
        const std::uint64_t word = random();
        words.push_back(word);
        words.push_back(word & random() & random());
        words.push_back(word | random() | random());
    }
    for (const std::uint64_t word : words) {
        ASSERT_EQ(bits_popcount(word), slow_count(word)) << word;
    }
}

// ------------------------------------------------ WCG adjacency model --

/// Reference H relation rebuilt from first principles (shape coverage),
/// then mutated alongside the WCG under random legal edge deletions.
struct wcg_model {
    std::vector<std::set<std::size_t>> res_of_op; ///< H(o)
    std::vector<std::set<std::size_t>> ops_of_res; ///< O(r)
    std::size_t edges = 0;
};

wcg_model build_model(const sequencing_graph& g,
                      const wordlength_compatibility_graph& wcg)
{
    wcg_model m;
    m.res_of_op.resize(g.size());
    m.ops_of_res.resize(wcg.resource_count());
    for (const op_id o : g.all_ops()) {
        for (std::size_t r = 0; r < wcg.resource_count(); ++r) {
            if (wcg.resource(res_id{r}).covers(g.shape(o))) {
                m.res_of_op[o.value()].insert(r);
                m.ops_of_res[r].insert(o.value());
                ++m.edges;
            }
        }
    }
    return m;
}

void expect_wcg_matches_model(const sequencing_graph& g,
                              const wordlength_compatibility_graph& wcg,
                              const wcg_model& m)
{
    ASSERT_EQ(wcg.edge_count(), m.edges);
    for (const op_id o : g.all_ops()) {
        const auto& row = m.res_of_op[o.value()];
        const std::span<const res_id> csr = wcg.resources_for(o);
        ASSERT_EQ(csr.size(), row.size());
        auto it = row.begin();
        for (const res_id r : csr) {
            ASSERT_EQ(r.value(), *it++); // ascending, exactly the members
        }
        // The CSR row and compatible(), the op-major bit row, must agree.
        int upper = 0;
        int lower = 0;
        for (std::size_t r = 0; r < wcg.resource_count(); ++r) {
            const bool in_model = row.count(r) == 1;
            ASSERT_EQ(wcg.compatible(o, res_id{r}), in_model);
            if (in_model) {
                const int lat = wcg.latency(res_id{r});
                upper = std::max(upper, lat);
                lower = lower == 0 ? lat : std::min(lower, lat);
            }
        }
        ASSERT_EQ(wcg.latency_upper_bound(o), upper);
        ASSERT_EQ(wcg.latency_lower_bound(o), lower);
        ASSERT_EQ(wcg.refinable(o), lower < upper);
    }
    for (std::size_t r = 0; r < wcg.resource_count(); ++r) {
        const auto& row = m.ops_of_res[r];
        const std::span<const op_id> csr = wcg.ops_for(res_id{r});
        ASSERT_EQ(csr.size(), row.size());
        auto it = row.begin();
        for (const op_id o : csr) {
            ASSERT_EQ(o.value(), *it++);
        }
        for (const op_id o : g.all_ops()) {
            ASSERT_EQ(bits_test(wcg.ops_row(res_id{r}).data(), o.value()),
                      row.count(o.value()) == 1);
        }
    }
}

TEST(WcgModel, RandomDeletionsTrackSetReference)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_BITSET_SEED", 0xB1753);
    MWL_TRACE_SEED("MWL_BITSET_SEED", seed);
    rng random(seed);

    tgff_options opts;
    opts.n_ops = 40;
    sequencing_graph g = generate_tgff(opts, random);
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    wcg_model m = build_model(g, wcg);

    expect_wcg_matches_model(g, wcg, m);

    std::uint64_t last_version = wcg.edge_version();
    for (int round = 0; round < 200; ++round) {
        // Pick a random deletable edge: |H(o)| must stay >= 1.
        std::vector<std::size_t> deletable;
        for (const op_id o : g.all_ops()) {
            if (m.res_of_op[o.value()].size() >= 2) {
                deletable.push_back(o.value());
            }
        }
        if (deletable.empty()) {
            break;
        }
        const std::size_t ov = deletable[static_cast<std::size_t>(
            random.uniform(0, deletable.size() - 1))];
        const auto& row = m.res_of_op[ov];
        auto it = row.begin();
        std::advance(it, static_cast<long>(
                             random.uniform(0, row.size() - 1)));
        const std::size_t rv = *it;

        wcg.delete_edge(op_id{ov}, res_id{rv});
        m.res_of_op[ov].erase(rv);
        m.ops_of_res[rv].erase(ov);
        --m.edges;

        ASSERT_GT(wcg.edge_version(), last_version);
        last_version = wcg.edge_version();
        if (round % 20 == 0) {
            expect_wcg_matches_model(g, wcg, m);
        }
    }
    expect_wcg_matches_model(g, wcg, m);
}

} // namespace
} // namespace mwl
